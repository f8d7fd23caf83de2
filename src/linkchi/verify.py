"""Cross-verification suite: every identity the engine can check against
itself, against closed forms, against the published grids, and against
the brute-force graph enumeration.

Each check fills in the :class:`CheckResult` it is given; a failing check
carries the first differing coefficient with enough provenance to locate
it, and a check that raises keeps what it recorded before.  The
CLI ``verify`` subcommand runs these and exits nonzero on any failure.

Route ledger: the code paths each cross-route check compares.

* ``route-equivalence`` (four parities, r <= 3, t = 10):

  - "direct vs plethystic": ``f_homotopy_direct`` (the double sum, built
    from ``log`` and ``inverse`` with no ``exp``) against
    ``plethystic_log(f_homology)``.  ``f_homology`` ends in
    ``TruncatedSeries.exp``, and ``plethystic_log`` takes ``log``.  Both
    run one graded recurrence (``TruncatedSeries._exp_log``), so this
    pins the double sum against the plethystic transforms, not the
    recurrence, which a fault would reach on both sides.
  - "plethystic exp back to F^H": ``plethystic_exp(f_homotopy_direct)``
    against ``f_homology``.  Both sides end in ``TruncatedSeries.exp``, so
    this comparison alone cannot catch a fault inside ``exp``.

* ``tables-second-route`` (odd/odd, r = 2, the published t = 23):
  ``plethystic_log(f_homology)`` against ``f_homotopy_direct``, the
  series behind the published grids that ``tables`` compares with.
  With ``--t-max 30`` both run past the published rows, where ``tables``
  checks palindromy alone.

* ``tables`` (odd/odd, r = 2, t = 23): besides the published grids,
  "genus-g layer alone vs full F^pi" for g = 0..3, the layer that
  ``linkchi table --genus g`` computes alone
  (``f_homotopy_direct(..., genus=g)``) against that layer of the full
  double sum regraded by genus.  Both take their final products as
  offset runs from one function, ``special._final_terms``, so this pins
  only the genus grouping in it and the k the genus path skips; the
  shared runs are pinned by the published grids, ``oracle`` and the
  plethystic route.

* ``genus-split`` (four parities, r = 2, t = 12): "hbar^0/hbar^1 vs
  genus-0/1 closed form", the genus layers of the double sum against
  ``genus0_closed`` and ``genus1_closed`` (direct log sums); "genus-0/1
  dims at z=-1", which pins only the sign (-1)^e of ``genus{0,1}_dims``,
  the closed forms regraded to degree e.

* ``cycle-index``:

  - "Euler specialization vs F^pi": ``specialize_colors`` of
    ``z_graph_supercharacter`` against ``f_homotopy_direct``.  Both sides
    run the Moebius double sum (``special._mobius_double_sum``), at the
    power sums -p_n and sum_i (-1)^(m_i-1) x_i^n, so this pins only
    ``specialize_colors`` and ``substitute``, not the double sum.
  - "modular envelope two routes": ``mod_envelope_supercharacter``
    (``z_graph_supercharacter`` regraded by genus) against
    ``mod_envelope_supercharacter_direct`` (the double sum in hbar).  Both
    sides run the double sum, so this pins the genus regrading and the
    hbar windows only.  Sharing the engine with F^pi lost nothing here:
    the two routes already shared one copy of the double sum before.
  - "tree-level Euler specialization vs genus-0 closed form", and "tree
    (hedgehog) dims vs genus-0 (genus-1) dims": ``z_lie_cyclic`` (the
    dihedral ``_z_dihedral_induced``) regraded and specialized, against
    the closed forms.  Both sides place terms by the same degree map.

* ``oracle`` (r = 2, genus 0-3; the four parity classes at t <= 5, and
  the mixed colour parities m = (1, 2) at d = 3 and d = 4 at t <= 4):
  ``euler_char_oracle``, a signed count of hairy-graph classes that runs
  no series code, against ``f_homotopy_direct``.  All configurations
  share one graph enumeration per (s, t) (``graphs._class_shapes``) and
  differ only in degrees and orientation signs.  The four parity classes
  were never four independent routes: they always shared the
  enumeration code.  Both colours of each parity class have one parity,
  so a mirror cell (s2, s1) reads back the count of (s1, s2), which
  ``euler_char_oracle`` would compute again from the same sorted cell,
  and is still compared with its own coefficient of F^pi.  With mixed
  parities a cell and its mirror are different counts, and each is
  enumerated.

The double sum itself is pinned against routes that do not run it: the
plethystic route in "direct vs plethystic" (``route-equivalence``) and
in ``tables-second-route``; the published grids in ``tables``; and the
graph enumeration in ``oracle``.  Besides the series kernel (``*``,
``+``, ``-``, ``scaled``, ``inverse``, ``log``, and the
``_LinearSum`` that ``*``, ``+`` and ``-`` settle in) and
:mod:`linkchi.rationals`, the plethystic route shares with the double
sum these functions, which a fault would reach on both of its sides:

- the builders of X_{l,1} and F_l(u): ``_mobius_x`` (over
  ``color_power_sum`` and ``_eps_power_sum``) and ``_f_series`` (over
  ``f_poly``), pinned by ``special-polynomials`` (E_l and F_l), by
  ``tables`` and ``oracle``, which run no plethystic transform, and by
  ``homology-specializations``, whose ``f_homology(x_values=...)`` runs
  ``_mobius_x`` over constant power sums, at odd m (eps_i = 1) and even m
  (eps_i = -1), against closed forms built from ``inverse`` and products;
- the Faulhaber polynomials ``s_poly`` with ``UniPolynomial.at_series``:
  S_j(X_l) in ``log_gamma_series``, and the double sum's column
  polynomials Q_n (``special._column_polys``, built from the S_j).  They
  are pinned by ``special-polynomials`` (S_j against brute-force power
  sums for every j <= t_max) and by ``tables`` and ``oracle``.

``series._raise_exponents`` is no longer shared: it raises x_i^l, u^l in
``plethystic_log`` and ``plethystic_exp`` only, and the double sum places
its factors at v^k against X_{l,k}^n by key offsets of its own
(``special._final_terms``, settled by ``series._LinearSum.add_runs``).
The double sum's factors in v alone, Q_n(V_l) and log F_l, come from one
cache, ``special._v_factors``, built once per (l, sigma_d, top) in a
one-variable layout from the sigma-free ``special._w_factors`` (F_l^-1,
log F_l and the powers of W_l, once per (l, top)).  Both are shared by
F^pi direct, ``z_graph_supercharacter`` and both modular-envelope routes,
which already shared the double sum.  ``f_homology`` builds V_l and log
F_l itself and deliberately reads neither, nor do the plethystic
transforms, so a fault in the caches reaches one side of "direct vs
plethystic" and ``tables-second-route`` only; a test
(``tests/test_special.py``) breaks both caches and sees those routes
still run, then corrupts one coefficient and sees ``route-equivalence``
and ``tables`` fail.

Every change of grading is ``TruncatedSeries.regrade``, whose compiler
``substitute`` shares.  It runs on both sides of the same checks as before
it took maps by name: "hbar^0 vs genus-0 closed form", "genus-0 dims at
z=-1" (``genus0_closed`` lowers u), "modular envelope two routes", the
Feynman involution and the tree and hedgehog checks; ``naive_regrade``
pins it alone.

Two routes that share no formula pin each genus-0/1 quantity:
``genus0_closed`` by hbar^0 of the double sum and by the tree
specialization; ``genus1_closed`` by hbar^1 and by "hedgehog dims vs
genus-1 dims"; the p-content of the tree and hedgehog cycle indices by
the cyclic-Lie test and the brute-force dihedral sum
``induced_cycle_index``, a reference that lives in
``tests/test_cycleindex.py`` and not in the package.  The degree map
(``genfun._homological_degree``) is pinned only by the hand-derived
degree tests in ``tests/test_genfun.py`` and the dimension EGA checks in
``cycle-index``, until graph-homology ranks give it a second route.

``exp`` and ``log`` share one recurrence, ``TruncatedSeries._exp_log``,
so no check that runs it on both sides can pin it.  Routes that run it on
one side only do: the ``gamma`` and ``homology-specializations`` closed
forms, which compare ``exp``-built series with products of ``inverse``
(the geometric series, not the recurrence); ``tables`` and ``oracle``,
which pin ``log`` through the double sum against the published grids and
the graph enumeration; and the property tests comparing ``exp`` and
``log`` with the repeated-product references (``tests/naive_series.py``).
Those references, and the ones for ``*``, ``substitute`` and the linear
sums (``+``, ``-``, ``scaled``, ``_LinearSum``), sum coefficient by
coefficient in ``QQ`` and build each result through the constructor, so
they run none of the arithmetic they check.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

from .cycleindex import (
    feynman_regrade,
    mod_envelope_supercharacter,
    mod_envelope_supercharacter_direct,
    specialize_colors,
    z_graph_supercharacter,
    z_hedgehog_homology,
    z_lie_cyclic,
    z_tree_homology,
)
from .genfun import (
    LinkConfig,
    euler_table,
    f_homology,
    f_homotopy_direct,
    f_homotopy_graded,
    genus0_closed,
    genus0_dims,
    genus1_closed,
    genus1_dims,
)
from .graphs import EnumerationBudget, euler_char_oracle
from .rationals import QQ, qq_str
from .reference_tables import RECONCILIATION_CELLS, TABLES
from .reference_tables import T_MAX as TABLE_T_MAX
from .series import TruncatedSeries, TruncationSpec, VariableSet
from .special import e_poly, f_poly, gamma_series, plethystic_exp, plethystic_log, s_poly

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass
class CheckResult:
    name: str
    ok: bool = True
    details: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str):
        self.ok = False
        self.details.append(message)

    def note(self, message: str):
        self.notes.append(message)


def _first_difference(a: TruncatedSeries, b: TruncatedSeries) -> str:
    spec = a.spec.meet(b.spec)
    at, bt = a.truncate(spec), b.truncate(spec)
    for mono in sorted(set(at.coeffs) | set(bt.coeffs)):
        ca = at.coeffs.get(mono, QQ(0))
        cb = bt.coeffs.get(mono, QQ(0))
        if ca != cb:
            names = dict(zip(a.vars.names, mono))
            named = {k: v for k, v in names.items() if v}
            return f"at {named or '1'}: {qq_str(ca)} vs {qq_str(cb)}"
    return "(no differing coefficient found)"


def _series_equal(res: CheckResult, label: str, a: TruncatedSeries, b: TruncatedSeries):
    spec = a.spec.meet(b.spec)
    if a.truncate(spec) != b.truncate(spec):
        res.fail(f"{label}: {_first_difference(a, b)}")


_PARITY_CONFIGS = {
    "odd-odd": ((1, 1), 3),
    "odd-even": ((1, 1), 4),
    "even-odd": ((2, 2), 5),
    "even-even": ((2, 2), 4),
}


def _cfg(parity_key: str, r: int) -> LinkConfig:
    (m0, _m1), d = _PARITY_CONFIGS[parity_key]
    return LinkConfig.create((m0,) * r, d)


def check_special_polynomials(res: CheckResult, t_max: int = TABLE_T_MAX) -> None:
    """E_l, F_l and their rescaling, and S_j against brute-force power sums
    for every j the double sum reaches at truncation t_max (j <= t_max)."""
    if e_poly(1)(1) != 1:
        res.fail("e-poly: E_1(1) != 1")
    for l in range(2, 51):
        if e_poly(l)(1) != 0:
            res.fail(f"e-poly: E_{l}(1) = {qq_str(e_poly(l)(1))}, want 0")
            break
    for l in range(1, 51):
        if f_poly(l)(0) != 1:
            res.fail(f"f-poly: F_{l}(0) = {qq_str(f_poly(l)(0))}, want 1")
            break
    if tuple(f_poly(2).coeffs) != (QQ(1), QQ(-1)):
        res.fail(f"f-poly: F_2 = {list(f_poly(2).coeffs)}, want 1 - u")
    for l in range(1, 31):
        e, f = e_poly(l), f_poly(l)
        for k, c in enumerate(e.coeffs):
            want = f.coeffs[l - k] if l - k <= f.degree else QQ(0)
            if l * c != want:
                res.fail(f"f-poly vs e-poly rescaling fails at l={l}, power {k}")
                break
    for j in range(1, max(6, t_max) + 1):
        for n in range(21):
            if s_poly(j)(n) != sum(i**j for i in range(1, n + 1)):
                res.fail(f"s-poly: S_{j}({n}) is not the power sum")


def check_gamma(res: CheckResult, t_max: int = 12) -> None:
    uv = VariableSet(has_u=True)
    spec = TruncationSpec(u_max=t_max)
    one = TruncatedSeries.one(uv, spec)
    u = TruncatedSeries.term(uv, spec, {"u": 1})
    if gamma_series(TruncatedSeries.zero(uv, spec), u) != one:
        res.fail("Gamma(0, u) != 1")
    if gamma_series(TruncatedSeries.constant(uv, spec, -1), u) != one:
        res.fail("Gamma(-1, u) != 1")
    for n in range(1, 9):
        closed = one
        for k in range(1, n + 1):
            closed = closed * (one - u.scaled(k)).inverse()
        got = gamma_series(TruncatedSeries.constant(uv, spec, n), u)
        if got != closed:
            res.fail(f"Gamma({n}, u): {_first_difference(got, closed)}")
    for n in range(2, 9):
        closed = one
        for k in range(1, n):
            closed = closed * (one + u.scaled(k))
        got = gamma_series(TruncatedSeries.constant(uv, spec, -n), u)
        if got != closed:
            res.fail(f"Gamma({-n}, u): {_first_difference(got, closed)}")


def check_homology_specializations(res: CheckResult, t_max: int = 12) -> None:
    uv = VariableSet(has_u=True)
    spec = TruncationSpec(u_max=t_max)
    one = TruncatedSeries.one(uv, spec)
    u = TruncatedSeries.term(uv, spec, {"u": 1})
    for r in range(1, 6):
        # all x = 1, all m = 1: 1/prod(1 - ku) for odd d, 1/prod(1 + ku) even
        for d, sgn in ((3, 1), (4, -1)):
            cfg = LinkConfig.create((1,) * r, d)
            got = f_homology(cfg, t_max, x_values=[1] * r)
            closed = one
            for k in range(1, r + 1):
                closed = closed * (one - u.scaled(sgn * k)).inverse()
            if got != closed:
                res.fail(f"x=1 r={r} d={'odd' if sgn>0 else 'even'}: "
                         f"{_first_difference(got, closed)}")
        # all x = 1, all m = 2 (eps = -1): prod_{k<r}(1 + ku) odd d, (1 - ku) even
        for d, sgn in ((5, 1), (4, -1)):
            got = f_homology(LinkConfig.create((2,) * r, d), t_max, x_values=[1] * r)
            closed = one
            for k in range(1, r):
                closed = closed * (one + u.scaled(sgn * k))
            if got != closed:
                res.fail(f"x=1 m=2 r={r} d={d}: {_first_difference(got, closed)}")
    r = 2
    # all x = -1: rational closed forms with denominators 1 - u -+ 2ku^2
    cfg_odd = LinkConfig.create((1,) * r, 3)
    got = f_homology(cfg_odd, t_max, x_values=[-1] * r)
    closed = one
    for k in range(1, r):
        closed = closed * (one + u.scaled(k))
    for k in range(1, r + 1):
        closed = closed * (one - u - (u * u).scaled(2 * k)).inverse()
    if got != closed:
        res.fail(f"x=-1 r={r} d=odd: {_first_difference(got, closed)}")
    cfg_even = LinkConfig.create((1,) * r, 4)
    got = f_homology(cfg_even, t_max, x_values=[-1] * r)
    closed = one
    for k in range(1, r):
        closed = closed * (one - u.scaled(k))
    for k in range(1, r + 1):
        closed = closed * (one - u + (u * u).scaled(2 * k)).inverse()
    if got != closed:
        res.fail(f"x=-1 r={r} d=even: {_first_difference(got, closed)}")


def check_route_equivalence(res: CheckResult, t_max: int = 10) -> None:
    for parity_key in _PARITY_CONFIGS:
        for r in range(1, 4):
            cfg = _cfg(parity_key, r)
            fh = f_homology(cfg, t_max)
            direct = f_homotopy_direct(cfg, t_max)
            pleth = plethystic_log(fh)
            _series_equal(res, f"direct vs plethystic ({parity_key}, r={r})", direct, pleth)
            back = plethystic_exp(direct)
            _series_equal(res, f"plethystic exp back to F^H ({parity_key}, r={r})", back, fh)


def check_tables_second_route(res: CheckResult, t_max: int = TABLE_T_MAX) -> None:
    """F^pi behind the published grids, by the plethystic route as well."""
    cfg = LinkConfig.create((1, 1), 3)
    pleth = plethystic_log(f_homology(cfg, t_max))
    direct = f_homotopy_direct(cfg, t_max)
    _series_equal(res, f"plethystic vs direct (odd-odd, r=2, t={t_max})", pleth, direct)


def check_genus_split(res: CheckResult, t_max: int = 12) -> None:
    for parity_key in _PARITY_CONFIGS:
        cfg = _cfg(parity_key, 2)
        f_pi = f_homotopy_direct(cfg, t_max)
        # a negative genus (|s| > t + 1) raises SeriesError inside the regrade
        graded = f_homotopy_graded(f_pi)
        h0 = _drop_hbar(graded.grade_extract("hbar", 0), cfg)
        h1 = _drop_hbar(graded.grade_extract("hbar", 1), cfg)
        g0 = genus0_closed(cfg, t_max)
        g1 = genus1_closed(cfg, t_max)
        _series_equal(res, f"hbar^0 vs genus-0 closed form ({parity_key})", h0, g0)
        _series_equal(res, f"hbar^1 vs genus-1 closed form ({parity_key})", h1, g1)
    # dimension series collapse to the closed forms at z = -1
    for m, d in ((1, 5), (2, 7)):
        cfg = LinkConfig.create((m, m), d)
        for dims_fn, closed_fn, label in (
            (genus0_dims, genus0_closed, "genus-0"),
            (genus1_dims, genus1_closed, "genus-1"),
        ):
            dims = dims_fn(cfg, 6)
            closed = closed_fn(cfg, 6)
            at_m1 = _z_to_minus_one(dims, cfg)
            _series_equal(res, f"{label} dims at z=-1 (m={m}, d={d})", at_m1, closed)


def _drop_hbar(series: TruncatedSeries, cfg: LinkConfig) -> TruncatedSeries:
    spec = TruncationSpec(u_max=series.spec.u_max, x_total_max=series.spec.x_total_max)
    return series.regrade(cfg.xu_vars(), spec)  # a nonzero hbar exponent raises


def _z_to_minus_one(series: TruncatedSeries, cfg: LinkConfig) -> TruncatedSeries:
    vars_ = cfg.xu_vars()
    spec = TruncationSpec(u_max=series.spec.u_max, x_total_max=series.spec.x_total_max)
    return series.substitute({"z": TruncatedSeries.constant(vars_, spec, -1)})


def check_cycle_index(res: CheckResult, t_max: int = 8) -> None:
    for parity_key in _PARITY_CONFIGS:
        for r in range(1, 4):
            cfg = _cfg(parity_key, r)
            z = z_graph_supercharacter("odd" if cfg.d_parity else "even", t_max + 1, t_max)
            spec = specialize_colors(z, cfg, "euler")
            direct = f_homotopy_direct(cfg, t_max, x_total_max=t_max + 1)
            _series_equal(res, f"Euler specialization vs F^pi ({parity_key}, r={r})", spec, direct)
    for twist in ("plain", "det"):
        # both routes raise SeriesError on a negative genus (their regrade)
        a = mod_envelope_supercharacter(twist, 6, 4)  # arity <= 6, genus <= 4
        b = mod_envelope_supercharacter_direct(twist, 6, 4)
        _series_equal(res, f"modular envelope two routes ({twist})", a, b)
        if 0 in a.exponents_of("pw"):
            res.fail(f"modular envelope ({twist}): arity-zero part is not empty")
        regraded = feynman_regrade(feynman_regrade(a))
        if regraded != a:
            res.fail(f"feynman regrade is not an involution ({twist})")
    # dimension EGAs: dim Lie((k)) = (k-2)!, dim of induced dihedral = n!/(2n)
    zl = z_lie_cyclic(8)
    for k in range(2, 9):
        got = zl.coefficient({"p1": k})
        if got != QQ(1, k * (k - 1)):
            res.fail(f"cyclic-lie dims: p1^{k} coefficient {qq_str(got)}, "
                     f"want 1/{k * (k - 1)}")
    for d in (2, 3):
        zh = z_hedgehog_homology(d, 7)
        for n in range(3, 8):
            got = zh.coefficient({"p1": n, "z": (d - 2) * n, "u": n})
            if got != QQ(1, 2 * n):
                res.fail(f"hedgehog dims (d={d}): p1^{n} coefficient {qq_str(got)}, "
                         f"want 1/{2 * n}")
    # tree-level cycle index reproduces the genus-0 closed form
    cfg = LinkConfig.create((1, 1), 3)
    zt = z_tree_homology(3, t_max)
    sp = specialize_colors(zt, cfg, "euler")
    g0 = genus0_closed(cfg, t_max - 1)
    _series_equal(res, "tree-level Euler specialization vs genus-0 closed form", sp, g0)
    # dimension-mode specializations against the direct z-graded series
    for m, d in ((1, 5), (2, 6)):
        cfg = LinkConfig.create((m, m), d)
        w = min(t_max, 6)
        left0 = specialize_colors(z_tree_homology(d, w), cfg, "dims")
        right0 = genus0_dims(cfg, w - 1)
        _series_equal(res, f"tree dims vs genus-0 dims (m={m}, d={d})", left0, right0)
        left1 = specialize_colors(z_hedgehog_homology(d, w), cfg, "dims")
        right1 = genus1_dims(cfg, w - 1)
        _series_equal(res, f"hedgehog dims vs genus-1 dims (m={m}, d={d})", left1, right1)


def check_tables(res: CheckResult, t_max: int = TABLE_T_MAX) -> None:
    """The direct route against the published grids (rows t <= 23), and
    palindromy of every computed row, past the published ones too; then
    each genus layer as ``linkchi table`` computes it, alone
    (``f_homotopy_direct(..., genus=g)``), against that layer of the full
    series."""
    cfg = LinkConfig.create((1, 1), 3)
    f_pi = f_homotopy_direct(cfg, t_max)
    recon = set(RECONCILIATION_CELLS)
    for g in range(4):
        table = euler_table(cfg, g, t_max, f_pi=f_pi)
        for t in range(1, min(t_max, TABLE_T_MAX) + 1):
            row = table.rows[t]
            for s2, (got, want) in enumerate(zip(row, TABLES[g][t])):
                if got == want:
                    continue
                if (g, t, s2) in recon:
                    mirror_s2 = (t + 1 - g) - s2
                    mirror = row[mirror_s2] if 0 <= mirror_s2 < len(row) else None
                    res.note(
                        f"candidate misprint: genus {g}, t={t}, s2={s2}: "
                        f"printed {want}, computed {got}; mirror cell "
                        f"s2={mirror_s2} computed {mirror}"
                    )
                    if mirror != got:
                        res.fail(
                            f"genus {g} t={t}: computed row breaks palindromy "
                            f"at s2={s2}"
                        )
                    continue
                res.fail(
                    f"table genus {g}, t={t}, s2={s2}: computed {got}, "
                    f"published {want}"
                )
                if len(res.details) > 5:
                    return
        # palindromy of computed rows (equal parities)
        for t in range(1, t_max + 1):
            s_total = t + 1 - g
            for s2 in range(max(s_total + 1, 0)):
                mirror = s_total - s2
                if 0 <= mirror <= t_max and s2 <= t_max:
                    if table.rows[t][s2] != table.rows[t][mirror]:
                        res.fail(f"genus {g} t={t}: row not palindromic at s2={s2}")
    graded = f_homotopy_graded(f_pi)
    for g in range(4):
        layer = graded.truncate(TruncationSpec(hbar_window=(g, g)))
        alone = f_homotopy_direct(cfg, t_max, genus=g)
        _series_equal(res, f"genus-{g} layer alone vs full F^pi (t={t_max})", alone, layer)


# Colours of both parities in one configuration, for the oracle.
_MIXED_ORACLE_CONFIGS = {
    "mixed-odd": ((1, 2), 3),
    "mixed-even": ((1, 2), 4),
}


def check_oracle(res: CheckResult, t_max: int = 5) -> None:
    """Graph enumeration against F^pi (r = 2), genus 0-3: at every
    t <= t_max in all four parity classes, and at every t <= min(t_max, 4)
    with mixed colour parities, m = (1, 2) at d = 3 and d = 4.

    At t_max = 5 it takes 1.11-1.40 s (median 1.15 s) from a cold process
    on a shared 2-vCPU Xeon (Python 3.11, imports excluded, seven runs),
    against 1.18-1.44 s (median 1.35 s) in alternating runs of the code
    before each multigraph was kept as its symmetric matrix alone (see
    ``linkchi.graphs``)."""
    runs = [(key, _cfg(key, 2), t_max) for key in _PARITY_CONFIGS]
    runs += [
        (key, LinkConfig.create(m, d), min(t_max, 4))
        for key, (m, d) in _MIXED_ORACLE_CONFIGS.items()
    ]
    for parity_key, cfg, top in runs:
        budget = EnumerationBudget(t_max=top, hairs_max=top + 1)
        # colours of one parity are interchangeable: a cell and its mirror
        # have one count, so the mirror reads it back instead of rebuilding
        # every class
        mirrored = len(set(cfg.m_parities)) == 1
        counts: dict[tuple[int, int, int], int] = {}
        f_pi = f_homotopy_direct(cfg, top)
        for t, g in [(t, g) for t in range(1, top + 1) for g in range(4)]:
            s_total = t + 1 - g
            if s_total < 1:
                continue
            for s2 in range(s_total + 1):
                s1 = s_total - s2
                got = counts.get((s2, s1, t)) if mirrored else None
                if got is None:
                    got = counts[s1, s2, t] = euler_char_oracle(cfg, (s1, s2), t, budget)
                want = int(f_pi.coefficient({"x1": s1, "x2": s2, "u": t}))
                if got != want:
                    res.fail(
                        f"oracle ({parity_key}) genus {g} t={t} s=({s1},{s2}): "
                        f"enumeration {got}, series {want}"
                    )


def check_stability(res: CheckResult, t_max: int = 8) -> None:
    cfg = LinkConfig.create((1, 1), 3)
    base = f_homology(cfg, t_max)
    more = f_homology(cfg, t_max, l_max=2 * t_max + 4)
    _series_equal(res, "factor bound l <= 2T is stable under l_max + 4", base, more)


CHECK_NAMES = {
    "special-polynomials": check_special_polynomials,
    "gamma": check_gamma,
    "homology-specializations": check_homology_specializations,
    "route-equivalence": check_route_equivalence,
    "genus-split": check_genus_split,
    "cycle-index": check_cycle_index,
    "stability": check_stability,
    "tables": check_tables,
    "tables-second-route": check_tables_second_route,
    "oracle": check_oracle,
}


def run_checks(only=None, t_max: int | None = None) -> list[CheckResult]:
    """Run the named checks (all by default), optionally scaling the
    truncation order down for a quick pass."""
    names = list(CHECK_NAMES)
    if only:
        unknown = [n for n in only if n not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}; known: {names}")
        names = [n for n in names if n in set(only)]
    results = []
    for name in names:
        fn = CHECK_NAMES[name]
        if t_max is None:
            kwargs = {}
        elif name == "oracle":
            kwargs = {"t_max": min(t_max, 5)}
        else:
            kwargs = {"t_max": t_max}
        res = CheckResult(name)
        try:
            fn(res, **kwargs)
        except Exception as exc:  # a check that raises has failed; keep its report
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            res.fail(
                f"raised {type(exc).__name__}: {exc} "
                f"(at {os.path.basename(frame.filename)}:{frame.lineno})"
            )
        results.append(res)
    return results
