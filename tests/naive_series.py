"""Repeated-product references for the graded series algorithms.

``TruncatedSeries`` multiplies on integer numerators over one denominator
per operand (per grade in ``exp`` and ``log``), builds ``exp`` and ``log``
grade by grade, and ``plethystic_exp`` takes a single ``exp``.  These are
the textbook forms they replaced, kept here as test oracles only:

* the product as a sum over every pair of terms in ``QQ`` arithmetic, each
  pair kept when its monomial lies inside the meet of the two specs;
* exp as the truncated sum of ``f^k / k!``, one full product per term;
* log as the truncated sum of ``(-1)^(p+1) h^p / p`` with ``h = f - 1``;
* plethystic_exp as the product of one geometric power ``(1 - m)^(-chi)``
  per monomial ``m``;
* every sum, in a linear sum, ``exp``, ``log`` and a substitution, added
  coefficient by coefficient in ``QQ`` and built through the constructor
  (``naive_sum``), never through ``+``, ``-``, ``scaled`` or a
  ``_LinearSum``, which these references check;
* a substitution as one product of repeated factors per monomial, and
  exp from its term 1, each built where every z and hbar window starts at
  0 (``from_zero``) and truncated to the spec at the end;
* a regrade as its affine forms evaluated on each monomial's exponents
  by name, where ``regrade`` runs a map compiled on packed keys;
* the text form rendered from ``QQ`` coefficients and exponent tuples,
  where ``to_text`` reads the integer form through the layout's compiled
  order and renderer;
* the Moebius double sum of ``special._mobius_double_sum`` as its
  (k, l, j) loop, with V_{kl} and log F_l(v^k) built afresh for every
  pair (k, l), S_j(X_{l,k}) evaluated row by row, and X_{l,k} folded
  from ``QQ`` coefficients.
"""

from __future__ import annotations

import dataclasses
import operator

from linkchi.rationals import QQ, binomial, divisors, mobius, qq_str
from linkchi.series import SeriesError, TruncatedSeries, _LinearSum
from linkchi.special import f_poly, s_poly


def naive_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    if a.vars != b.vars:
        raise SeriesError("variable sets differ")
    out: dict[tuple[int, ...], QQ] = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            m = tuple(map(operator.add, m1, m2))
            out[m] = out.get(m, QQ(0)) + QQ(c1) * QQ(c2)
    # the constructor drops the monomials outside the spec and the zeros
    return TruncatedSeries(a.vars, a.spec.meet(b.spec), out)


def naive_sum(vars_, spec, terms) -> TruncatedSeries:
    """Sum of ``c * a`` over the terms ``(c, a)``, added in ``QQ`` over the
    meet of ``spec`` and every operand's spec."""
    out: dict[tuple[int, ...], QQ] = {}
    for c, a in terms:
        if a.vars != vars_:
            raise SeriesError("variable sets differ")
        spec = spec.meet(a.spec)
        for mono, v in a.coeffs.items():
            out[mono] = out.get(mono, QQ(0)) + QQ(c) * v
    # the constructor drops the monomials outside the spec and the zeros
    return TruncatedSeries(vars_, spec, out)


def naive_linear_sum(vars_, spec, terms) -> TruncatedSeries:
    """Sum of ``c * a`` or ``c * naive_mul(a, b)`` over the terms ``(c, a)``
    and ``(c, a, b)``, over the meet of ``spec`` and the operands' specs."""
    return naive_sum(
        vars_,
        spec,
        [(c, operands[0] if len(operands) == 1 else naive_mul(*operands)) for c, *operands in terms],
    )


def from_zero(spec):
    """``spec`` with the low end of each z and hbar window set to 0."""
    z, hbar = spec.z_window, spec.hbar_window
    return dataclasses.replace(spec, z_window=z and (0, z[1]), hbar_window=hbar and (0, hbar[1]))


def naive_substitute(series: TruncatedSeries, assignments) -> TruncatedSeries:
    """Sum of ``c * prod_v assignments[v]^e_v`` over the terms of ``series``,
    each power a repeated ``naive_mul`` in variable order, starting from the
    carried monomial: a variable not replaced keeps its exponent under the
    same name.  Every product is built under the spec with its windows
    from 0, so a carried monomial below a window's low end is kept until
    the sum, which the spec truncates."""
    first = next(iter(assignments.values()))
    vars_, spec = first.vars, first.spec
    low = from_zero(spec)
    factors = {name: TruncatedSeries(vars_, low, a.coeffs) for name, a in assignments.items()}
    terms = []
    for mono, c in series.coeffs.items():
        kept = {n: e for n, e in zip(series.vars.names, mono) if n not in assignments}
        term = TruncatedSeries.term(vars_, low, kept, c)
        for name, e in zip(series.vars.names, mono):
            if name not in assignments:
                continue
            for _ in range(e):
                term = naive_mul(term, factors[name])
        terms.append((1, term))
    return naive_sum(vars_, spec, terms)


def naive_regrade(series: TruncatedSeries, vars_, spec, images=None, parity=None, sign=1):
    """``series.regrade(vars_, spec, images, parity, sign)``, monomial by
    monomial: the forms evaluated on a dict of the exponents, the x-total
    and the p-weight summed name by name, the bounds read from the spec's
    fields, and the result built through the constructor.  Each monomial
    is checked in the order ``regrade`` checks it (a dropped nonzero
    variable; past an upper bound, where it drops; below a lower bound,
    0 in a direction the spec bounds or a window's low end; a negative
    exponent elsewhere; then a second monomial on the same image), and the
    error names its case."""
    images, parity = images or {}, parity or {}
    read = {name for form in (*images.values(), parity) for name, c in form.items() if c}
    upper = {"xt": spec.x_total_max, "u": spec.u_max, "pw": spec.p_weight_max}
    windows = {"z": spec.z_window, "hbar": spec.hbar_window}
    out = {}
    for mono, c in series.coeffs.items():
        e = dict(zip(series.vars.names, mono))
        for name, ex in e.items():
            if name not in vars_.names and name not in read and ex:
                raise SeriesError(f"regrading drops {name}, but {mono} has it")
        e["xt"] = sum(v for name, v in e.items() if name[0] == "x")
        e["pw"] = sum(int(name[1:]) * v for name, v in e.items() if name[0] == "p")
        e[1] = 1

        def value(form):
            return sum(k * e[name] for name, k in form.items())

        image = {n: value(images[n]) if n in images else e.get(n, 0) for n in vars_.names}
        target = tuple(image[n] for n in vars_.names)
        image["xt"] = sum(v for n, v in image.items() if n[0] == "x")
        image["pw"] = sum(int(n[1:]) * v for n, v in image.items() if n[0] == "p")
        past = [n for n, cap in upper.items() if cap is not None and image.get(n, 0) > cap]
        past += [n for n, w in windows.items() if w is not None and image.get(n, 0) > w[1]]
        if past:
            continue
        below = [n for n, cap in upper.items() if cap is not None and image.get(n, 0) < 0]
        below += [n for n, w in windows.items() if w is not None and image.get(n, 0) < w[0]]
        if below:
            raise SeriesError(f"image {image} of {mono} lies below the lower bounds of {spec}")
        if min(target, default=0) < 0:
            raise SeriesError(f"image {image} of {mono}: no exponent may go below 0")
        if target in out:
            raise SeriesError(f"regrading sends two monomials to {target}")
        out[target] = c * sign * (-1) ** (value(parity) % 2)
    return TruncatedSeries(vars_, spec, out)


def graded_lex(series: TruncatedSeries) -> list:
    """The monomials of ``series`` in the order of the text form: weighted
    total degree (e for x, u, z and hbar, l * e for p_l), then lex."""
    weights = [int(name[1:]) if name.startswith("p") else 1 for name in series.vars.names]

    def key(mono):
        return sum(w * e for w, e in zip(weights, mono)), mono

    return sorted(series.coeffs, key=key)


def monomial_text(names, mono) -> str:
    """``name^e`` per nonzero exponent in name order (``name`` for e = 1),
    joined by ``*``; ``1`` for the monomial 1."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e]
    return "*".join(parts) or "1"


def naive_to_text(series: TruncatedSeries) -> str:
    """The text form rendered from the ``QQ`` coefficients and the
    exponent tuples."""
    if not series.coeffs:
        return "0"
    terms = []
    for mono in graded_lex(series):
        ms = monomial_text(series.vars.names, mono)
        cs = qq_str(series.coeffs[mono])
        if ms == "1":
            terms.append(cs)
        elif cs == "1":
            terms.append(ms)
        elif cs == "-1":
            terms.append(f"-{ms}")
        else:
            terms.append(f"{cs}*{ms}")
    return " + ".join(terms)


def naive_exp(series: TruncatedSeries) -> TruncatedSeries:
    if series.constant_term() != 0:
        raise SeriesError("exp requires zero constant term")
    series._grades()  # nilpotence guard: the loop below must terminate
    vars_, spec = series.vars, series.spec
    # the term 1 lies outside a window without exponent 0, but its
    # products with the series do not; the last sum drops it there
    term = TruncatedSeries.one(vars_, from_zero(spec))
    terms = [(1, term)]
    k = 0
    while True:
        k += 1
        term = naive_sum(vars_, spec, [(QQ(1, k), naive_mul(term, series))])
        if term.is_zero():
            return naive_sum(vars_, spec, terms)
        terms.append((1, term))


def naive_log(series: TruncatedSeries) -> TruncatedSeries:
    if series.constant_term() != 1:
        raise SeriesError("log requires constant term 1")
    vars_, spec = series.vars, series.spec
    power = TruncatedSeries.one(vars_, spec)
    y = naive_sum(vars_, spec, [(1, series), (-1, power)])
    y._grades()
    terms = []
    p = 0
    while True:
        p += 1
        power = naive_mul(power, y)
        if power.is_zero():
            return naive_sum(vars_, spec, terms)
        terms.append((QQ((-1) ** (p + 1), p), power))


def naive_plethystic_exp(series: TruncatedSeries) -> TruncatedSeries:
    vars_, spec = series.vars, series.spec
    if series.constant_term() != 0:
        raise SeriesError("plethystic_exp requires zero constant term")
    weight = _climbing_weight(series)
    out = TruncatedSeries.one(vars_, spec)
    for mono in graded_lex(series):
        c = series.coeffs[mono]
        if c.denominator != 1:
            raise SeriesError(f"plethystic_exp requires integer coefficients, got {c}")
        if weight(mono) < 1:
            raise SeriesError(f"monomial {mono} cannot be plethystically exponentiated")
        out = naive_mul(out, _geometric_power(vars_, spec, mono, int(c)))
    return out


def _geometric_power(vars_, spec, mono, chi: int) -> TruncatedSeries:
    """(1 - m)^(-chi) for a single monomial m, truncated."""
    coeffs = {(0,) * vars_.nvars: QQ(1)}
    k = 0
    while True:
        k += 1
        m_k = tuple(e * k for e in mono)
        if chi > 0:
            c = binomial(chi - 1 + k, k)
        else:
            if k > -chi:
                break
            c = (-1) ** k * binomial(-chi, k)
        if TruncatedSeries(vars_, spec, {m_k: c}).is_zero():
            break
        coeffs[m_k] = QQ(c)
    return TruncatedSeries(vars_, spec, coeffs)


def _climbing_weight(series: TruncatedSeries):
    """The weight ``mono -> int`` of the monomials of ``series``: the
    exponent sum over every direction the spec bounds above, read field by
    field: the x-total, u, z, hbar, and the p-weight (p_l counted l
    times)."""
    vars_, spec = series.vars, series.spec
    names = vars_.names
    parts = []  # one exponent sum ``mono -> int`` per direction counted
    if spec.x_total_max is not None:
        parts.append(lambda m: sum(m[: vars_.hodge_count]))
    for name, bound in (("u", spec.u_max), ("z", spec.z_window), ("hbar", spec.hbar_window)):
        if bound is not None and name in names:
            i = vars_.index(name)
            parts.append(lambda m, i=i: m[i])
    if spec.p_weight_max is not None:
        base = vars_.nvars - vars_.pcount
        parts.append(lambda m: sum((l + 1) * m[base + l] for l in range(vars_.pcount)))
    return lambda mono: sum(part(mono) for part in parts)


def naive_mobius_double_sum(vars_, spec, var, sigma_d, t_max, power_sum):
    """``sum_{k,l,j} mu(k)/(k j) S_j(X_{l,k}) (sigma_d l v^{kl} / F_l(v^k))^j
    - sum_{k,l} mu(k)/k X_{l,k} log F_l(v^k)``, term by term, with the
    arguments of ``special._mobius_double_sum``."""
    iv = vars_.index(var)
    out = _LinearSum(vars_, spec)
    v = TruncatedSeries.term(vars_, spec, {var: 1})
    for k in range(1, 2 * t_max + 1):
        mk = mobius(k)
        if mk == 0:
            continue
        for l in range(1, 2 * t_max // k + 1):
            coeffs: dict = {}
            for a in divisors(l):
                m = mobius(l // a)
                if m:
                    for mono, c in power_sum(a * k).coeffs.items():
                        coeffs[mono] = coeffs.get(mono, 0) + QQ(m, l) * c
            x = TruncatedSeries(vars_, spec, coeffs)
            if x.is_zero():
                continue
            f_coeffs = {}
            for power, c in enumerate(f_poly(l).coeffs):
                if c != 0:
                    mono = [0] * vars_.nvars
                    mono[iv] = power * k
                    f_coeffs[tuple(mono)] = c
            fl = TruncatedSeries(vars_, spec, f_coeffs)
            if k * l <= t_max:
                v_arg = (v ** (k * l)).scaled(sigma_d * l) * fl.inverse()
                v_pow = TruncatedSeries.one(vars_, spec)
                x_pows: list = [v_pow]
                for j in range(1, t_max // (k * l) + 1):
                    v_pow = v_pow * v_arg
                    if v_pow.is_zero():
                        break
                    sj = s_poly(j).at_series(x, x_pows)
                    out.add_product(QQ(mk, k * j), sj, v_pow)
            if l > 1:
                out.add_product(QQ(-mk, k), x, fl.log())
    return out.series()
