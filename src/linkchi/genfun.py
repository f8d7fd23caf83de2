"""Generating functions of Euler characteristics for string-link spaces.

For a link configuration (r strands of source dimensions m_1..m_r inside
R^d) the homology generating function F^H collects the Euler
characteristics of the Hodge/complexity summands of the rational
homology, and F^pi does the same for the rational homotopy.  Both depend
only on the parities of the m_i and of d.  The two are related by a
plethystic logarithm, giving two independent evaluation routes; the
genus grading refines F^pi by hbar with exponent g = t - |s| + 1, and
genus-0/1 admit separate closed forms.  All of these meet in the
:mod:`linkchi.verify` cross-check suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rationals import QQ, mobius, totient
from .series import (
    SeriesError,
    TruncatedSeries,
    TruncationSpec,
    VariableSet,
    _LinearSum,
    _masks,
    _passes,
)
from .special import (
    _f_series,
    _mobius_double_sum,
    _mobius_x,
    log_gamma_series,
)

__all__ = [
    "LinkConfig",
    "EulerTable",
    "f_homology",
    "f_homotopy_direct",
    "f_homotopy_graded",
    "genus0_closed",
    "genus1_closed",
    "genus0_dims",
    "genus1_dims",
    "euler_table",
]

ODD, EVEN = 1, 0


def _parity_of(value) -> int:
    if isinstance(value, int):
        return value % 2
    text = str(value).strip().lower()
    if text == "odd":
        return ODD
    if text == "even":
        return EVEN
    raise ValueError(f"expected an integer, 'odd' or 'even', got {value!r}")


@dataclass(frozen=True)
class LinkConfig:
    """Strand count r, source dimensions m_i, ambient dimension d.

    Euler-characteristic series depend only on the parities, so entries
    of ``m`` and ``d`` may be given as 'odd'/'even'; the z-graded
    dimension series need the actual integers and refuse parity-only
    configurations.
    """

    r: int
    m_parities: tuple[int, ...]
    d_parity: int
    m_values: tuple[int, ...] | None = None
    d_value: int | None = None

    @classmethod
    def create(cls, m, d) -> "LinkConfig":
        m = tuple(m) if not isinstance(m, (int, str)) else (m,)
        r = len(m)
        if r < 1:
            raise ValueError("need at least one strand")
        m_par = tuple(_parity_of(v) for v in m)
        d_par = _parity_of(d)
        m_vals = tuple(m) if all(isinstance(v, int) for v in m) else None
        if m_vals is not None and any(v < 1 for v in m_vals):
            raise ValueError("source dimensions must be >= 1")
        d_val = d if isinstance(d, int) else None
        if d_val is not None and d_val < 2:
            raise ValueError("ambient dimension must be >= 2")
        return cls(r, m_par, d_par, m_vals, d_val)

    @property
    def has_values(self) -> bool:
        return self.m_values is not None and self.d_value is not None

    def require_values(self) -> tuple[tuple[int, ...], int]:
        if not self.has_values:
            raise ValueError(
                "this operation needs integer source/ambient dimensions, "
                "not parity shorthand"
            )
        return self.m_values, self.d_value

    @property
    def in_validity_range(self) -> bool | None:
        """d > 2 max(m_i) + 1, the range where the homology formulas are
        derived; None when only parities are known.  Violation is a
        warning, never an error: the formal series exist regardless."""
        if not self.has_values:
            return None
        return self.d_value > 2 * max(self.m_values) + 1

    # sign helpers: eps_i = (-1)^(m_i - 1), sd = (-1)^d, sigma_d = (-1)^(d-1)
    def eps(self, i: int) -> int:
        return 1 if self.m_parities[i] == ODD else -1

    @property
    def sd(self) -> int:
        return -1 if self.d_parity == ODD else 1

    @property
    def sigma_d(self) -> int:
        return -self.sd

    def xu_vars(self) -> VariableSet:
        return VariableSet(hodge_count=self.r, has_u=True)


def _xu_spec(t_max: int, x_total_max: int | None = None) -> TruncationSpec:
    s = (t_max + 1) if x_total_max is None else x_total_max
    return TruncationSpec(u_max=t_max, x_total_max=s)


def color_power_sum(
    cfg: LinkConfig, vars_: VariableSet, spec: TruncationSpec, l: int, mode: str
) -> TruncatedSeries:
    """The colored power sum substituted for p_l: A_l = alpha_l(-1) =
    sum_i (-1)^(m_i) x_i^l in ``"euler"`` mode, and sum_i (-1)^(m_i (l-1))
    x_i^l in ``"dims"`` mode (integer m_i needed).  The dims sum is
    alpha_l(1/z) = sum_i (-1)^(m_i (l-1)) x_i^l z^(-m_i l) with z^(-m_i)
    moved onto x_i: a dims series stores z^(e + sum_i m_i s_i), e the
    homological degree, so that no exponent is negative (see
    :func:`genus0_dims`)."""
    if mode == "euler":
        signs = [-cfg.eps(i) for i in range(cfg.r)]
    else:
        signs = [-1 if (m * (l - 1)) % 2 else 1 for m in cfg.require_values()[0]]
    terms = {vars_.monomial({f"x{i + 1}": l}): c for i, c in enumerate(signs)}
    return TruncatedSeries(vars_, spec, terms)


def _eps_power_sum(cfg: LinkConfig, vars_: VariableSet, spec: TruncationSpec):
    """n -> sum_i (-1)^(m_i - 1) x_i^n = -A_n, the power sums behind X_{l,k}."""
    return lambda n: -color_power_sum(cfg, vars_, spec, n, "euler")


def f_homology(
    cfg: LinkConfig,
    t_max: int,
    x_total_max: int | None = None,
    x_values=None,
    l_max: int | None = None,
) -> TruncatedSeries:
    """The homology generating function F^H(x_1..x_r, u), truncated.

    Product over l >= 1 of
    ``Gamma(X_l, sigma_d l u^l / F_l(u)) * F_l(u)^(-X_l)`` with
    ``X_l = sum_i (-1)^(m_i-1) E_l(x_i)``.  Within the spec the Gamma
    part is 1 for l > t_max, since ``U_l = sigma_d l u^l / F_l(u)`` has
    u-order l, and the F_l power is 1 for l > 2 t_max, since log F_l has
    u-order l - l/p1 >= l/2.  So ``U_l`` and ``log_gamma_series`` are
    built for l <= t_max only, and ``X_l log F_l(u)`` for every l <=
    ``l_max`` (2 t_max by default).  The power sums P_n are built once
    each, for every X_l.

    With ``x_values`` the Hodge variables are specialized *inside* the
    product: X_l is built by the same ``_mobius_x`` over the constant
    power sums ``P_n = sum_i (-1)^(m_i-1) v_i^n``, and the result is a
    series in u alone.  This is required, not merely faster, whenever
    the full x-support matters: F^H carries monomials of x-degree up to
    2t, so specializing a series truncated at x-degree S loses terms.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if l_max is None:
        l_max = 2 * t_max
    if x_values is not None:
        if len(x_values) != cfg.r:
            raise ValueError(f"need {cfg.r} x-values")
        vars_ = VariableSet(has_u=True)
        spec = TruncationSpec(u_max=t_max)

        def power_sum(n):  # the constant P_n = sum_i eps_i v_i^n
            p_n = sum((cfg.eps(i) * QQ(v) ** n for i, v in enumerate(x_values)), QQ(0))
            return TruncatedSeries.constant(vars_, spec, p_n)
    else:
        vars_ = cfg.xu_vars()
        spec = _xu_spec(t_max, x_total_max)
        power_sum = _eps_power_sum(cfg, vars_, spec)

    log_total = _LinearSum(vars_, spec)
    l_top = max(l_max, 1)
    sums = {n: power_sum(n) for n in range(1, l_top + 1)}
    for l in range(1, l_top + 1):
        x_arg = _mobius_x(vars_, spec, l, 1, sums.__getitem__)
        if x_arg.is_zero():
            continue
        fl = _f_series(vars_, spec, "u", l)
        if l <= t_max:  # past t_max, U_l leaves the spec and Gamma is 1
            u_arg = TruncatedSeries.term(vars_, spec, {"u": l}, cfg.sigma_d * l) * fl.inverse()
            log_total.add(1, log_gamma_series(x_arg, u_arg))
        if l > 1:  # F_1 = 1 contributes nothing
            log_total.add_product(-1, x_arg, fl.log())
    return log_total.series().exp()


def f_homotopy_direct(
    cfg: LinkConfig, t_max: int, x_total_max: int | None = None, genus: int | None = None
) -> TruncatedSeries:
    """The homotopy generating function F^pi(x_1..x_r, u), truncated.

    Double sum over k, l, j of
    ``mu(k)/(k j) * S_j(X_{l,k}) * (sigma_d l u^{kl} / F_l(u^k))^j``
    minus the sum over k, l of ``mu(k)/k * X_{l,k} * log F_l(u^k)``,
    where ``X_{l,k} = sum_i (-1)^(m_i-1) E_l(x_i^k)``: the Moebius double
    sum of :mod:`linkchi.special` at the power sums
    ``P_n = sum_i (-1)^(m_i-1) x_i^n``.

    With ``genus`` g, only the genus-g layer, the terms x^s u^t with
    t - |s| + 1 = g, computed alone by the double sum and laid out as
    :func:`f_homotopy_graded` under ``hbar_window = (g, g)``,
    ``u_max = t_max`` and ``x_total_max = max(t_max + 1 - g, 0)``: a
    coefficient of another genus raises ``OutOfBoundsError``.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    vars_ = cfg.xu_vars()
    if genus is None:
        spec = _xu_spec(t_max, x_total_max)
        return _mobius_double_sum(
            vars_, spec, "u", cfg.sigma_d, t_max, _eps_power_sum(cfg, vars_, spec)
        )
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if x_total_max is not None:
        raise ValueError("a genus layer sets its own x-total bound")
    spec = _xu_spec(t_max, max(t_max + 1 - genus, 0))
    layer = _mobius_double_sum(
        vars_, spec, "u", cfg.sigma_d, t_max, _eps_power_sum(cfg, vars_, spec), genus=genus
    )
    return _by_genus(layer, (genus, genus))


def f_homotopy_graded(f_pi: TruncatedSeries) -> TruncatedSeries:
    """hbar-graded refinement of ``f_pi``: hbar * F^pi(x_i/hbar, u hbar),
    re-expanded.

    Each monomial x^s u^t acquires hbar^(t - |s| + 1), its genus.  A
    negative genus would mean F^pi carries a monomial with |s| > t + 1 —
    an internal inconsistency, so it raises :class:`SeriesError` (it lies
    below the hbar window) rather than being truncated away.  The window
    is read from ``f_pi``: hbar runs over (0, u_max), and the u and x-total
    bounds are those of ``f_pi``.
    """
    return _by_genus(f_pi, (0, f_pi.spec.u_max))


def _by_genus(f_pi: TruncatedSeries, window: tuple[int, int]) -> TruncatedSeries:
    """``f_pi`` with each x^s u^t times hbar^(t - |s| + 1), its genus, under
    ``hbar_window = window``: past the window a term drops, below it raises."""
    vars_ = VariableSet(hodge_count=f_pi.vars.hodge_count, has_u=True, has_hbar=True)
    spec = TruncationSpec(
        u_max=f_pi.spec.u_max,
        x_total_max=f_pi.spec.x_total_max,
        hbar_window=window,
    )
    return f_pi.regrade(vars_, spec, images={"hbar": {"u": 1, "xt": -1, 1: 1}})


def _mu_log_sum(
    cfg: LinkConfig,
    vars_: VariableSet,
    spec: TruncationSpec,
    t_max: int,
    weight,
) -> TruncatedSeries:
    """sum_l weight(l)/l * log(1 - (-1)^d u^l A_l) with A_l = sum_i (-1)^(m_i) x_i^l."""
    one = TruncatedSeries.one(vars_, spec)
    u = TruncatedSeries.term(vars_, spec, {"u": 1})
    out = _LinearSum(vars_, spec)
    for l in range(1, t_max + 1):
        w = weight(l)
        if w == 0:
            continue
        a_l = color_power_sum(cfg, vars_, spec, l, "euler")
        arg = one - ((u ** l) * a_l).scaled(cfg.sd)
        out.add(QQ(w, l), arg.log())
    return out.series()


def genus0_closed(cfg: LinkConfig, t_max: int) -> TruncatedSeries:
    """Closed form for the genus-zero part of F^pi.

    ``-A_1 + (A_1 - (-1)^d / u) * sum_l mu(l)/l log(1 - (-1)^d u^l A_l)``
    with ``A_l = sum_i (-1)^(m_i) x_i^l``.  The 1/u prefactor must cancel
    against the u-order->=1 logarithm.  Computed as
    ``(u A_1 - (-1)^d) * sum`` one u-order further, then lowered by one
    u-order with :meth:`~linkchi.series.TruncatedSeries.regrade`; a term
    that would land on u^(-1) lies below the spec and raises
    :class:`SeriesError`.
    """
    vars_ = cfg.xu_vars()
    wspec = _xu_spec(t_max + 1)
    bracket = _mu_log_sum(cfg, vars_, wspec, t_max + 1, mobius)
    u = TruncatedSeries.term(vars_, wspec, {"u": 1})
    a1 = color_power_sum(cfg, vars_, wspec, 1, "euler")
    shifted = (u * a1 - TruncatedSeries.constant(vars_, wspec, cfg.sd)) * bracket
    spec = _xu_spec(t_max)
    lowered = shifted.regrade(vars_, spec, images={"u": {"u": 1, 1: -1}})
    return lowered - color_power_sum(cfg, vars_, spec, 1, "euler")


def genus1_closed(cfg: LinkConfig, t_max: int) -> TruncatedSeries:
    """Closed form for the genus-one part of F^pi.

    A totient-weighted logarithm plus the rational hedgehog correction
    ``(-1)^(d+1) (u^2 A_1^2 + (-1)^d u^2 A_2 - 2 (-1)^d u A_1)
    / (4 (1 - (-1)^d u^2 A_2))``.
    """
    vars_ = cfg.xu_vars()
    spec = _xu_spec(t_max)
    out = _mu_log_sum(cfg, vars_, spec, t_max, totient).scaled(QQ(-1, 2))
    one = TruncatedSeries.one(vars_, spec)
    u = TruncatedSeries.term(vars_, spec, {"u": 1})
    a1 = color_power_sum(cfg, vars_, spec, 1, "euler")
    a2 = color_power_sum(cfg, vars_, spec, 2, "euler")
    sd = cfg.sd
    numer = (u * a1) ** 2 + ((u ** 2) * a2).scaled(sd) - (u * a1).scaled(2 * sd)
    denom = one - ((u ** 2) * a2).scaled(sd)
    return out + (numer * denom.inverse()).scaled(QQ(-sd, 4))


def _z_span(d: int, m_max: int, weight: int) -> int:
    """Top of a z window ``(0, span)`` holding every stored degree up to
    complexity or arity ``weight``: ``(|d| + 2 + max m)(weight + 3)``."""
    return (abs(d) + 2 + m_max) * (weight + 3)


def _homological_degree(d: int, t: dict, genus: int, m_values=()) -> dict:
    """Homological degree of a trivalent hairy graph, as an affine form of
    :meth:`~linkchi.series.TruncatedSeries.regrade` in the complexity's
    form ``t`` and the hair counts x_i of colours ``m_values``; without
    ``m_values`` it is the stored z exponent, the degree without its hair
    terms (:func:`genus0_dims`).

    Edges (hairs included) have degree d - 1, internal vertices -d and
    hairs of colour i -m_i.  Complexity t = E - V and genus g = t - |s| + 1
    with trivalence 2E = 3V + |s| give E - 2V = 1 - g, so the degree is
    ``(d - 2) t + 1 - g - sum_i m_i s_i``.  Genus-0/1 homology lives on
    trivalent graphs (trees, hedgehogs): one degree per Hodge summand.
    """
    form = {name: (d - 2) * c for name, c in t.items()}
    form[1] = form.get(1, 0) + 1 - genus
    return form | {f"x{i}": -m for i, m in enumerate(m_values, 1)}


def _dims_from_euler(cfg: LinkConfig, closed: TruncatedSeries, genus: int) -> TruncatedSeries:
    """z-graded dimension series of one genus layer from its Euler form.

    Each summand x^s u^t sits in the single degree e of
    :func:`_homological_degree`, so its dimension is (-1)^e times its Euler
    characteristic, placed at z^(e + sum_i m_i s_i), the degree without its
    hair terms: (d - 2) t + 1 - g >= 0 for d >= 2.
    """
    m_values, d = cfg.require_values()
    vars_ = VariableSet(hodge_count=cfg.r, has_u=True, has_z=True)
    span = _z_span(d, max(m_values), closed.spec.u_max)
    spec = TruncationSpec(
        u_max=closed.spec.u_max,
        x_total_max=closed.spec.x_total_max,
        z_window=(0, span),
    )
    degree = _homological_degree(d, {"u": 1}, genus, m_values)
    images = {"z": _homological_degree(d, {"u": 1}, genus)}
    return closed.regrade(vars_, spec, images=images, parity=degree)


def genus0_dims(cfg: LinkConfig, t_max: int) -> TruncatedSeries:
    """z-graded dimension series of the genus-zero Hodge summands:
    :func:`genus0_closed` regraded by :func:`_dims_from_euler`.

    The summand x^s u^t of homological degree e is stored at z^(e + sum_i
    m_i s_i) with the coefficient (-1)^e times its Euler characteristic:
    z counts the degree without the hair terms -m_i s_i, which the x_i
    exponents give back, so that every z exponent is nonnegative."""
    return _dims_from_euler(cfg, genus0_closed(cfg, t_max), 0)


def genus1_dims(cfg: LinkConfig, t_max: int) -> TruncatedSeries:
    """z-graded dimension series of the genus-one Hodge summands:
    :func:`genus1_closed` regraded by :func:`_dims_from_euler`, with z
    stored as in :func:`genus0_dims`."""
    return _dims_from_euler(cfg, genus1_closed(cfg, t_max), 1)


@dataclass
class EulerTable:
    """Integer grid chi[s2][t] at fixed genus, in the published layout.

    Rows are complexities t = 1..t_max; columns are hair counts s2 of
    the second strand (r = 2) from 0..s2_max, with s1 = t - s2 + 1 - g.
    For r = 1 there is a single column (s1 = t + 1 - g).
    """

    genus: int
    t_max: int
    r: int
    s2_max: int
    rows: dict[int, list[int]] = field(default_factory=dict)

    @property
    def convention(self) -> str:
        shift = 1 - self.genus
        if self.r == 1:
            if shift == 0:
                return "s1 = t"
            return f"s1 = t + {shift}" if shift > 0 else f"s1 = t - {-shift}"
        if shift > 0:
            return f"s1 = t - s2 + {shift}"
        if shift == 0:
            return "s1 = t - s2"
        return f"s1 = t - s2 - {-shift}"

    def cell(self, t: int, s2: int = 0) -> int:
        return self.rows[t][s2]

    def to_json_obj(self):
        return {
            "genus": self.genus,
            "convention": self.convention,
            "rows": [{"t": t, "chi": self.rows[t]} for t in sorted(self.rows)],
        }

    def to_csv(self) -> str:
        header = "t," + ",".join(str(s2) for s2 in range(self.s2_max + 1))
        lines = [header]
        for t in sorted(self.rows):
            lines.append(str(t) + "," + ",".join(str(v) for v in self.rows[t]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        cols = list(range(self.s2_max + 1))
        cells = [["t\\s2"] + [str(c) for c in cols]]
        for t in sorted(self.rows):
            cells.append([str(t)] + [str(v) for v in self.rows[t]])
        widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
        out = [f"# genus {self.genus}, {self.convention}"]
        for row in cells:
            out.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(out) + "\n"


def euler_table(
    cfg: LinkConfig,
    genus: int,
    t_max: int,
    f_pi: TruncatedSeries | None = None,
) -> EulerTable:
    """Extract the genus-g grid of chi values from F^pi.

    The coefficient of x^s u^t contributes to genus g = t - |s| + 1, so
    row t of the genus-g table reads off |s| = t + 1 - g; entries whose
    required s1 would be negative are 0.  Without ``f_pi`` only the
    genus-g layer is computed (``f_homotopy_direct(..., genus=g)``); an
    ``f_pi`` with hbar is read at hbar^g.

    Each cell is read from the integer form of ``f_pi`` with one packed
    key, one bound test, one dict lookup and an integrality test, and no
    ``QQ`` is built: a cell outside the spec of ``f_pi`` raises
    ``OutOfBoundsError``, as ``coefficient`` does, and a non-integer cell
    raises ``SeriesError`` naming it.  A cell's exponents are at most
    t_max + 1, so its key needs no storage-limit test.
    """
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if cfg.r > 2:
        raise ValueError("the published grid layout is defined for r <= 2")
    if f_pi is None:
        f_pi = f_homotopy_direct(cfg, t_max, genus=genus)
    spec = f_pi.spec
    if spec.u_max is not None and t_max > spec.u_max:
        raise ValueError("t_max exceeds the truncation of the supplied series")
    s2_max = t_max if cfg.r == 2 else 0
    table = EulerTable(genus=genus, t_max=t_max, r=cfg.r, s2_max=s2_max)
    vars_ = f_pi.vars
    layout = vars_.layout
    masks = _masks(layout, spec)
    den, items = f_pi._ints
    at = vars_.positions
    x1, u = at["x1"], at["u"]
    x2 = at["x2"] if cfg.r == 2 else None
    mono = [0] * vars_.nvars
    if vars_.has_hbar:
        mono[at["hbar"]] = genus
    for t in range(1, t_max + 1):
        row = []
        s_total = t + 1 - genus
        mono[u] = t
        for s2 in range(s2_max + 1):
            s1 = s_total - s2
            if s1 < 0:
                row.append(0)
                continue
            mono[x1] = s1
            if x2 is not None:
                mono[x2] = s2
            key = layout.pack(mono)
            n = items.get(key, 0)
            if n % den or not _passes(masks, key):
                expo = {"x1": s1, "u": t}
                if cfg.r == 2:
                    expo["x2"] = s2
                if vars_.has_hbar:
                    expo["hbar"] = genus
                c = f_pi.coefficient(expo)  # raises OutOfBoundsError outside the spec
                raise SeriesError(f"non-integer Euler characteristic at {expo}: {c}")
            row.append(n // den)
        table.rows[t] = row
    return table
