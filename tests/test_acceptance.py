"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single ``PASS criterion-N`` line (with its runtime)
when it holds; any failure surfaces through pytest with the first
differing value.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete.
"""

from __future__ import annotations

import time

import pytest

from linkchi.cycleindex import (
    mod_envelope_supercharacter,
    mod_envelope_supercharacter_direct,
    specialize_colors,
    z_graph_supercharacter,
    z_hedgehog_homology,
    z_lie_cyclic,
)
from linkchi.genfun import (
    LinkConfig,
    euler_table,
    f_homology,
    f_homotopy_direct,
    f_homotopy_graded,
    genus0_closed,
    genus1_closed,
)
from linkchi.graphs import EnumerationBudget, euler_char_oracle
from linkchi.reference_tables import RECONCILIATION_CELLS, TABLES
from linkchi.series import TruncatedSeries, TruncationSpec, VariableSet
from linkchi.special import gamma_series, plethystic_exp, plethystic_log

ODD2 = LinkConfig.create((1, 1), 3)

_f_pi_cache: dict[int, object] = {}


def f_pi_odd2(t_max: int):
    if t_max not in _f_pi_cache:
        _f_pi_cache[t_max] = f_homotopy_direct(ODD2, t_max)
    return _f_pi_cache[t_max]


def report(name: str, started: float):
    print(f"PASS {name} ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_published_tables():
    started = time.perf_counter()
    f_pi = f_pi_odd2(23)
    recon = set(RECONCILIATION_CELLS)
    candidate_lines = []
    tables = {}
    for g in range(4):
        tables[g] = euler_table(ODD2, g, 23, f_pi=f_pi)
        for t in range(1, 24):
            for s2 in range(24):
                got = tables[g].rows[t][s2]
                want = TABLES[g][t][s2]
                if got == want:
                    continue
                assert (g, t, s2) in recon, (
                    f"table genus {g}, t={t}, s2={s2}: computed {got}, "
                    f"published {want}"
                )
                mirror_s2 = (t + 1 - g) - s2
                mirror = tables[g].rows[t][mirror_s2]
                assert got == mirror, "computed row must stay palindromic"
                candidate_lines.append(
                    f"  candidate misprint at genus {g}, t={t}, s2={s2}: "
                    f"published {want}, computed {got}, mirror cell "
                    f"s2={mirror_s2} computed {mirror}"
                )
    # spot anchors
    assert tables[0].cell(7, 4) == 2
    assert tables[0].cell(23, 12) == 4940
    assert tables[1].cell(12, 6) == 50
    assert tables[1].cell(23, 11) == 29162
    assert tables[2].cell(9, 4) == 18
    assert tables[2].cell(23, 11) == 60172
    assert tables[3].cell(23, 10) == -8778
    report("criterion-1 published tables t<=23 exact", started)
    for line in candidate_lines:
        print(line)


def test_criterion_2_gamma_closed_forms():
    started = time.perf_counter()
    uv = VariableSet(has_u=True)
    spec = TruncationSpec(u_max=12)
    one = TruncatedSeries.one(uv, spec)
    u = TruncatedSeries.term(uv, spec, {"u": 1})
    for n in range(1, 9):
        closed = one
        for k in range(1, n + 1):
            closed = closed * (one - u.scaled(k)).inverse()
        assert gamma_series(TruncatedSeries.constant(uv, spec, n), u) == closed, n
    for n in range(1, 9):
        closed = one
        for k in range(1, n):
            closed = closed * (one + u.scaled(k))
        assert gamma_series(TruncatedSeries.constant(uv, spec, -n), u) == closed, -n
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 2 must run in under 1s, took {elapsed:.2f}s"
    report("criterion-2 gamma closed forms n<=8 T=12", started)


def test_criterion_3_unit_specializations():
    started = time.perf_counter()
    t_max = 12
    uv = VariableSet(has_u=True)
    spec = TruncationSpec(u_max=t_max)
    one = TruncatedSeries.one(uv, spec)
    u = TruncatedSeries.term(uv, spec, {"u": 1})
    for r in range(1, 6):
        cfg_odd = LinkConfig.create((1,) * r, 3)
        got = f_homology(cfg_odd, t_max, x_values=[1] * r)
        gamma_r = gamma_series(TruncatedSeries.constant(uv, spec, r), u)
        assert got == gamma_r, f"x=1, d odd, r={r}"
        cfg_even = LinkConfig.create((1,) * r, 4)
        got = f_homology(cfg_even, t_max, x_values=[1] * r)
        closed = one
        for k in range(1, r + 1):
            closed = closed * (one + u.scaled(k)).inverse()
        assert got == closed, f"x=1, d even, r={r}"
    # x = -1 at r = 2
    got = f_homology(LinkConfig.create((1, 1), 3), t_max, x_values=[-1, -1])
    closed = (one + u)
    for k in (1, 2):
        closed = closed * (one - u - (u * u).scaled(2 * k)).inverse()
    assert got == closed, "x=-1, d odd, r=2"
    got = f_homology(LinkConfig.create((1, 1), 4), t_max, x_values=[-1, -1])
    closed = (one - u)
    for k in (1, 2):
        closed = closed * (one - u + (u * u).scaled(2 * k)).inverse()
    assert got == closed, "x=-1, d even, r=2"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 3 must run in under 10s, took {elapsed:.2f}s"
    report("criterion-3 unit specializations T=12", started)


@pytest.mark.parametrize("m,d", [(1, 3), (1, 4), (2, 5), (2, 4)])
def test_criterion_4_route_equivalence(m, d):
    started = time.perf_counter()
    t_max = 10
    for r in (1, 2, 3):
        cfg = LinkConfig.create((m,) * r, d)
        fh = f_homology(cfg, t_max)
        direct = f_homotopy_direct(cfg, t_max)
        assert plethystic_log(fh) == direct, (m, d, r)
        assert plethystic_exp(direct) == fh, (m, d, r)
    parity = f"m={'odd' if m % 2 else 'even'}, d={'odd' if d % 2 else 'even'}"
    report(f"criterion-4 route equivalence T=10 ({parity})", started)


def test_criterion_5_genus_coherence():
    started = time.perf_counter()
    t_max = 12
    for m, d in ((1, 3), (1, 4), (2, 5), (2, 4)):
        cfg = LinkConfig.create((m, m), d)
        f_pi = f_homotopy_direct(cfg, t_max)
        graded = f_homotopy_graded(f_pi)  # raises on hbar < 0
        assert all(e >= 0 for e in graded.exponents_of("hbar"))

        def strip(g):
            part = graded.grade_extract("hbar", g)
            return {(mo[0], mo[1], mo[2]): c for mo, c in part.coeffs.items()}

        assert strip(0) == dict(genus0_closed(cfg, t_max).coeffs), (m, d, 0)
        assert strip(1) == dict(genus1_closed(cfg, t_max).coeffs), (m, d, 1)
    report("criterion-5 genus coherence T=12", started)


def test_criterion_6_cycle_index_coherence():
    started = time.perf_counter()
    # Euler-mode specialization reproduces F^pi at T=8 for r <= 3
    t_max = 8
    for d_parity, d in (("odd", 3), ("even", 4)):
        z = z_graph_supercharacter(d_parity, t_max + 1, t_max)
        for r in (1, 2, 3):
            for m in (1, 2):
                cfg = LinkConfig.create((m,) * r, d)
                left = specialize_colors(z, cfg, "euler")
                right = f_homotopy_direct(cfg, t_max, x_total_max=t_max + 1)
                assert left == right, (d_parity, r, m)
    # modular envelope: substitution route vs direct formulas
    for twist in ("plain", "det"):
        a = mod_envelope_supercharacter(twist, 6, 4)
        b = mod_envelope_supercharacter_direct(twist, 6, 4)
        assert a == b, twist
    # dimension checks
    zl = z_lie_cyclic(8)
    fact = 1
    for k in range(2, 9):
        fact *= k
        dim = zl.coefficient({"p1": k}) * fact
        assert dim == fact // (k * (k - 1)), k  # (k-2)!
    zh = z_hedgehog_homology(3, 7)
    fact = 2
    for n in range(3, 8):
        fact *= n
        dim = zh.coefficient({"p1": n, "z": n, "u": n}) * fact
        assert dim == fact // (2 * n), n  # n!/(2n)
    report("criterion-6 cycle index coherence", started)


def test_criterion_7_independent_oracle():
    started = time.perf_counter()
    budget = EnumerationBudget(t_max=5, hairs_max=7)
    f_pi = f_pi_odd2(23)
    cells = 0
    # genus 0-3 at t <= 4, and genus 0 and 3 at t = 5
    for t, g in [(t, g) for t in range(1, 5) for g in range(4)] + [(5, 0), (5, 3)]:
        s_total = t + 1 - g
        if s_total < 1:
            continue
        for s2 in range(s_total + 1):
            s1 = s_total - s2
            got = euler_char_oracle(ODD2, (s1, s2), t, budget)
            want = int(f_pi.coefficient({"x1": s1, "x2": s2, "u": t}))
            assert got == want, f"t={t} s=({s1},{s2}): oracle {got}, series {want}"
            assert got == TABLES[g][t][s2], f"t={t} s=({s1},{s2}) vs published"
            cells += 1
    report(f"criterion-7 independent oracle ({cells} cells)", started)
