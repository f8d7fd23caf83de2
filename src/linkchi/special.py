"""Named special polynomials and series transforms.

* ``e_poly(l)``  — the Moebius-averaged power polynomial
  ``(1/l) * sum_{p | l} mu(p) x^(l/p)``; its value at 1 vanishes for l >= 2.
* ``f_poly(l)``  — its complexity-variable companion
  ``sum_{t | l} mu(t) u^(l - l/t)``, always 1 at u = 0.
* ``s_poly(j)``  — the Faulhaber power-sum polynomial with
  ``S_j(n) = 1^j + ... + n^j``.
* ``gamma_series`` — the formal series ``exp(sum_j S_j(x) u^j / j)``; at
  integer arguments it collapses to rational closed forms, which the test
  suite uses as oracles.
* ``plethystic_log`` / ``plethystic_exp`` — mutually inverse transforms
  between a product generating function and its "connected" exponents.
"""

from __future__ import annotations

from functools import lru_cache

from .rationals import CACHE_SIZE, QQ, bernoulli, binomial, divisors, mobius
from .series import (
    _DIRECTIONS,
    _FIELD_MASK,
    SeriesError,
    TruncatedSeries,
    TruncationSpec,
    VariableSet,
    _LinearSum,
    _climbing,
    _graded_lex,
    _masks,
    _passes,
    _raise_exponents,
    _weight,
)

__all__ = [
    "UniPolynomial",
    "e_poly",
    "f_poly",
    "s_poly",
    "log_gamma_series",
    "gamma_series",
    "plethystic_log",
    "plethystic_exp",
]


class UniPolynomial:
    """Polynomial in one designated variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [QQ(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __eq__(self, other):
        return isinstance(other, UniPolynomial) and self.coeffs == other.coeffs

    def __call__(self, x):
        """Evaluate at a rational (Horner)."""
        acc = QQ(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def at_series(self, x: TruncatedSeries, powers: list | None = None) -> TruncatedSeries:
        """Evaluate at a series argument.

        ``powers`` may carry a growable cache ``[1, x, x^2, ...]`` shared
        between evaluations at the same argument.
        """
        if powers is None:
            powers = [TruncatedSeries.one(x.vars, x.spec)]
        while len(powers) <= self.degree:
            powers.append(powers[-1] * x)
        out = _LinearSum(x.vars, x.spec)
        for k, c in enumerate(self.coeffs):
            out.add(c, powers[k])
        return out.series()

    def __repr__(self):
        return f"UniPolynomial({list(self.coeffs)})"


@lru_cache(maxsize=CACHE_SIZE)
def e_poly(l: int) -> UniPolynomial:
    """E_l(x) = (1/l) sum_{p | l} mu(p) x^(l/p)."""
    if l < 1:
        raise ValueError(f"e_poly requires l >= 1, got {l}")
    cs = [QQ(0)] * (l + 1)
    for p in divisors(l):
        mp = mobius(p)
        if mp:
            cs[l // p] += QQ(mp, l)
    return UniPolynomial(cs)


@lru_cache(maxsize=CACHE_SIZE)
def f_poly(l: int) -> UniPolynomial:
    """F_l(u) = l u^l E_l(1/u) = sum_{t | l} mu(t) u^(l - l/t)."""
    if l < 1:
        raise ValueError(f"f_poly requires l >= 1, got {l}")
    cs = [QQ(0)] * l
    for t in divisors(l):
        mt = mobius(t)
        if mt:
            cs[l - l // t] += mt
    return UniPolynomial(cs)


@lru_cache(maxsize=CACHE_SIZE)
def s_poly(j: int) -> UniPolynomial:
    """S_j(x) = (1/(j+1)) sum_{p=0}^{j} (-1)^p C(j+1, p) B_p x^(j+1-p).

    Faulhaber's power-sum polynomial: S_j(n) = 1^j + 2^j + ... + n^j.
    """
    if j < 1:
        raise ValueError(f"s_poly requires j >= 1, got {j}")
    cs = [QQ(0)] * (j + 2)
    for p in range(j + 1):
        bp = bernoulli(p)
        if bp != 0:
            cs[j + 1 - p] += QQ((-1) ** p * binomial(j + 1, p), j + 1) * bp
    return UniPolynomial(cs)


def _f_series(vars_, spec, var: str, l: int) -> TruncatedSeries:
    """F_l(v) as a series in the variable ``var``."""
    terms = {vars_.monomial({var: power}): c for power, c in enumerate(f_poly(l).coeffs) if c}
    return TruncatedSeries(vars_, spec, terms)


def _mobius_x(vars_, spec, l: int, k: int, power_sum) -> TruncatedSeries:
    """X_{l,k} = (1/l) sum_{a | l} mu(l/a) P_{ak}, with P_n = ``power_sum(n)``.

    For P_n = sum_i eps_i x_i^n this is sum_i eps_i E_l(x_i^k).
    """
    out = _LinearSum(vars_, spec)
    for a in divisors(l):
        m = mobius(l // a)
        if m:
            out.add(QQ(m, l), power_sum(a * k))
    return out.series()


@lru_cache(maxsize=CACHE_SIZE)
def _column_polys(j_max: int) -> tuple[UniPolynomial, ...]:
    """``(Q_1, ..., Q_{j_max+1})`` with ``Q_n(y) = sum_{j=1..j_max}
    [x^n]S_j(x) y^j / j``, so that ``sum_{j<=j_max} S_j(X) y^j / j =
    sum_n X^n Q_n(y)`` (S_j has degree j + 1 and no constant term)."""
    cols = [[QQ(0)] * (j_max + 1) for _ in range(j_max + 1)]
    for j in range(1, j_max + 1):
        for n, c in enumerate(s_poly(j).coeffs[1:]):
            cols[n][j] = c / j
    return tuple(UniPolynomial(c) for c in cols)


_V = VariableSet(has_u=True)  # the one-variable layout of :func:`_v_factors`


def _frozen(series: TruncatedSeries) -> tuple:
    """The integer form of a series of ``_V`` as ``(den, ((e, n), ...))``,
    the terms ``n / den * v^e`` by rising e."""
    den, items = series._ints
    unpack = _V.layout.unpack
    return den, tuple(sorted((unpack(key)[0], n) for key, n in items.items()))


@lru_cache(maxsize=CACHE_SIZE)
def _v_factors(l: int, sigma_d: int, top: int, j_max: int) -> tuple:
    """The double sum's factors in its variable v alone, for one l:
    ``(cols, log_fl)``.  ``cols`` holds Q_1(V_l), ..., Q_{j_max+1}(V_l)
    (:func:`_column_polys`) with ``V_l = sigma_d l v^l / F_l(v)``, and is
    empty when j_max < 1; ``log_fl`` is log F_l, None for l = 1 (F_1 = 1).
    Each is built in the one-variable layout ``_V`` under ``u_max = top``
    and returned frozen (:func:`_frozen`), so no caller can change a cached
    value."""
    spec = TruncationSpec(u_max=top)
    fl = _f_series(_V, spec, "u", l)
    cols = ()
    if j_max >= 1:
        v_l = TruncatedSeries.term(_V, spec, {"u": l}, sigma_d * l) * fl.inverse()
        powers = [TruncatedSeries.one(_V, spec)]
        cols = tuple(_frozen(q.at_series(v_l, powers)) for q in _column_polys(j_max))
    return cols, (_frozen(fl.log()) if l > 1 else None)


def _final_terms(x: TruncatedSeries, factor: tuple, k: int, top: int, step: int, genus=None):
    """The terms of ``x * f(v^k)``, f a frozen factor of :func:`_v_factors`
    and x a series with no positive exponent in v, as ``(den, lazy (key,
    numerator) pairs)``: v^e meets each term of x at the key offset ``k e
    step``, ``step`` being the key of v less the bias, for every e with k e
    <= top.  With ``genus`` g (x/u layouts only) a term of x of x-total s
    meets only the one v^e with k e = s + g - 1."""
    den, items = factor
    placed = {k * e: m for e, m in items if k * e <= top}
    dx, x_items = x._ints
    if genus is None:
        return dx * den, (
            (key + ke * step, n * m) for key, n in x_items.items() for ke, m in placed.items()
        )
    xs, g1 = x.vars.layout.shift["xt"], genus - 1
    return dx * den, (
        (key + ke * step, n * placed[ke])
        for key, n in x_items.items()
        for ke in (((key >> xs) & _FIELD_MASK) + g1,)
        if ke in placed
    )


def _mobius_double_sum(vars_, spec, var: str, sigma_d: int, t_max: int, power_sum, genus=None):
    """The double sum behind F^pi and the graph supercharacters.

    ``sum_{k,l,j} mu(k)/(k j) S_j(X_{l,k}) V_{kl}^j
    - sum_{k,l} mu(k)/k X_{l,k} log F_l(v^k)``, with v = ``var``,
    ``V_{kl} = sigma_d l v^{kl} / F_l(v^k)`` and X_{l,k} from
    :func:`_mobius_x` over the power sums P_n = ``power_sum(n)``, each
    built once.  The first sum needs klj <= t_max (v-order of V_{kl}^j)
    and the second kl <= 2 t_max (log F_l(v^k) has v-order
    k(l - l/p1) >= kl/2).

    Two identities cut the work.  ``V_{kl}(v) = V_l(v^k)`` and ``log
    F_l(v^k) = (log F_l)(v^k)``, and the j-sum goes by columns, ``sum_j
    S_j(X) V^j / j = sum_n X^n Q_n(V)`` with the Q_n of
    :func:`_column_polys`.  So the factors in v, Q_n(V_l) and log F_l,
    depend on (l, sigma_d, top) alone, top the upper bound of the spec's
    ``var`` window: :func:`_v_factors` builds them once per process.

    Every final product is ``X_{l,k}^n f(v^k)``, f such a factor, and its
    terms go into one :class:`~linkchi.series._LinearSum` straight from
    the integer numerators (:func:`_final_terms`): no product is built as
    a series or run through the pair loop.  The pairing keeps exactly the
    terms of the truncated product of X^n and f(v^k), with no bound test,
    because no P_n, and so no term of X^n, has a positive exponent in v
    (checked here; true of the x/u layout of F^pi, the p layout of the
    graph supercharacters and the hbar-Laurent layout of the envelope).
    A term of X^n lies in the spec with v-exponent a <= 0, and v^(k e)
    adds k e >= 0 to it: the pair lies in the spec when k e <= top, and
    the pairs with k e > top, among them every ``V_l^j`` with j >
    t_max/(kl), are those that truncating f(v^k) to the spec drops.  The
    monomial 1 must lie in the spec (checked here).

    With ``genus`` g (x/u layouts only) the sum keeps only its terms of
    genus e - s + 1 = g, e the v-exponent and s the x-total, by the same
    pairing: each final pair enters the sum without being multiplied
    again.  Only the k dividing g - 1 are visited: with P_n of x-total n,
    as F^pi's are, every x-total in X_{l,k} and its powers is a multiple
    of k, and a term of v^(k e) has genus k e - s + 1.
    """
    layout = vars_.layout
    window = spec.windows[_DIRECTIONS.index(var)]
    if window is None or not _passes(_masks(layout, spec), layout.bias):
        raise SeriesError(
            f"the double sum needs an upper bound on {var} and the monomial 1 in {spec}"
        )
    if genus is not None and (var, vars_.nvars) != ("u", vars_.hodge_count + 1):
        raise SeriesError(f"a genus layer of the double sum needs an x/u layout, not {vars_.names}")
    top = window[1]
    step = layout.pack(vars_.monomial({var: 1})) - layout.bias
    sums = {n: power_sum(n) for n in range(1, 2 * t_max + 1)}
    for n, p_n in sums.items():
        if max(p_n.exponents_of(var), default=0) > 0:
            raise SeriesError(f"the power sum P_{n} = {p_n} has a positive exponent in {var}")
    out = _LinearSum(vars_, spec)
    for l in range(1, 2 * t_max + 1):
        factors = None  # read on first use
        for k in range(1, 2 * t_max // l + 1):
            mk = mobius(k)
            if mk == 0 or (genus is not None and (genus - 1) % k):
                continue
            x = _mobius_x(vars_, spec, l, k, sums.__getitem__)
            if x.is_zero():
                continue
            if factors is None:
                cols, log_fl = factors = _v_factors(l, sigma_d, top, t_max // l)
            if k * l <= t_max:
                x_pow = x
                for n, q in enumerate(cols[: t_max // (k * l) + 1]):
                    if n:
                        x_pow = x_pow * x
                    den, pairs = _final_terms(x_pow, q, k, top, step, genus)
                    out.add_items(mk, k * den, pairs)
            if log_fl is not None:  # F_1 = 1 contributes nothing
                den, pairs = _final_terms(x, log_fl, k, top, step, genus)
                out.add_items(-mk, k * den, pairs)
    return out.series()


def log_gamma_series(x_arg: TruncatedSeries, u_arg: TruncatedSeries) -> TruncatedSeries:
    """sum_{j >= 1} S_j(x_arg) u_arg^j / j, truncated.

    ``x_arg`` must be u-free and polynomial; ``u_arg`` must vanish at
    u = 0, so the sum terminates once u_arg^j leaves the spec.
    """
    if x_arg.vars != u_arg.vars or x_arg.spec != u_arg.spec:
        raise SeriesError("x_arg and u_arg must share one variable set and spec")
    if u_arg.vars.has_u:
        if 0 in u_arg.exponents_of("u"):
            raise SeriesError("u-argument must have u-order >= 1")
        if x_arg.exponents_of("u") - {0}:
            raise SeriesError("x-argument must not depend on u")
    out = _LinearSum(x_arg.vars, x_arg.spec)
    x_pows: list = [TruncatedSeries.one(x_arg.vars, x_arg.spec)]
    u_pow = x_pows[0]
    j = 0
    while True:
        j += 1
        u_pow = u_pow * u_arg
        if u_pow.is_zero():
            break
        out.add_product(QQ(1, j), s_poly(j).at_series(x_arg, x_pows), u_pow)
    return out.series()


def gamma_series(x_arg: TruncatedSeries, u_arg: TruncatedSeries) -> TruncatedSeries:
    """exp(sum_{j >= 1} S_j(x_arg) u_arg^j / j).

    At a nonnegative integer n this is 1/((1-u)(1-2u)...(1-nu)); at a
    negative integer -n it is (1+u)(1+2u)...(1+(n-1)u).  Those closed
    forms are checked against this definition in the test suite.
    """
    return log_gamma_series(x_arg, u_arg).exp()


def _plethystic_bound(series: TruncatedSeries) -> int:
    """Largest l a plethystic sum over x_i <- x_i^l, u <- u^l needs.

    The largest upper bound among the directions the series climbs in
    (:func:`~linkchi.series._climbing`).  It is exact, not heuristic: a
    monomial of positive weight has degree >= 1 in a climbing direction,
    so degree >= l there after raising, and for l above every bound each
    such monomial leaves the spec.
    """
    spec, metric = series.spec, series.vars.layout.metric
    climbing = _climbing(spec, [metric(key) for key in series._ints[1]])
    if not climbing:
        raise SeriesError("plethystic transforms need a truncated direction")
    return max(spec.windows[d][1] for d in climbing)


def plethystic_log(series: TruncatedSeries) -> TruncatedSeries:
    """sum_l mu(l)/l * log(series with x_i <- x_i^l, u <- u^l).

    Extracts the exponents chi from a product of the form
    prod (1 - x^s u^t)^(-chi); inverse of :func:`plethystic_exp`.  The
    bound on l is :func:`_plethystic_bound`: ``log`` accepts only
    series whose non-constant monomials have positive weight in the
    directions the series climbs in, so every l above it contributes
    log(1) = 0.
    """
    if series.constant_term() != 1:
        raise SeriesError("plethystic_log requires constant term 1")
    vars_, spec = series.vars, series.spec
    if vars_.has_z or vars_.has_hbar or vars_.pcount:
        raise SeriesError("plethystic_log is defined on x/u series only")
    out = _LinearSum(vars_, spec)
    for l in range(1, _plethystic_bound(series) + 1):
        ml = mobius(l)
        if ml == 0:
            continue
        out.add(QQ(ml, l), _raise_exponents(series, l).log())
    return out.series()


def plethystic_exp(series: TruncatedSeries) -> TruncatedSeries:
    """prod over monomials m of series of (1 - m)^(-chi_m), chi_m its coefficient.

    Computed as one ``exp(sum_{l=1..L} series(x^l, u^l) / l)``: each
    factor is ``exp(-chi_m log(1 - m)) = exp(chi_m sum_l m^l / l)``, and
    summing over m puts the l-th power of every monomial into
    ``series(x^l, u^l)``.  ``L`` is :func:`_plethystic_bound`, exact
    because every monomial must have positive weight in the directions
    the series climbs in (:mod:`linkchi.series`).  Requires integer
    coefficients and zero constant term.
    """
    vars_, spec = series.vars, series.spec
    if series.constant_term() != 0:
        raise SeriesError("plethystic_exp requires zero constant term")
    if series.is_zero():
        return TruncatedSeries.one(vars_, spec)
    layout = vars_.layout
    den, items = series._ints
    metrics = {k: layout.metric(k) for k in items}
    weight = _weight(_climbing(spec, metrics.values()))
    # n / den is an integer iff den divides n
    bad = [k for k, n in items.items() if n % den or not weight(metrics[k])]
    if bad:  # name the first offending monomial in graded-lex order
        key = min(bad, key=lambda k: _graded_lex(layout, k))
        if items[key] % den:
            c = QQ(items[key], den)
            raise SeriesError(f"plethystic_exp requires integer coefficients, got {c}")
        mono = layout.unpack(key)
        raise SeriesError(f"monomial {mono} cannot be plethystically exponentiated")
    arg = _LinearSum(vars_, spec)
    for l in range(1, _plethystic_bound(series) + 1):
        arg.add(QQ(1, l), _raise_exponents(series, l))
    return arg.series().exp()
