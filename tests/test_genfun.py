from __future__ import annotations

import pytest

from linkchi.genfun import (
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
from linkchi.rationals import QQ
from linkchi.reference_tables import TABLES
from linkchi.series import (
    OutOfBoundsError,
    SeriesError,
    TruncatedSeries,
    TruncationSpec,
    VariableSet,
)
from linkchi.special import plethystic_exp, plethystic_log

ODD2 = LinkConfig.create((1, 1), 3)
UV = VariableSet(has_u=True)


def u_series(t_max):
    spec = TruncationSpec(u_max=t_max)
    return (
        TruncatedSeries.one(UV, spec),
        TruncatedSeries.term(UV, spec, {"u": 1}),
    )


def test_link_config_parities():
    cfg = LinkConfig.create(("odd", "even"), "odd")
    assert cfg.m_parities == (1, 0)
    assert cfg.d_parity == 1
    assert not cfg.has_values
    with pytest.raises(ValueError):
        cfg.require_values()
    assert cfg.in_validity_range is None


def test_link_config_validity_flag():
    assert LinkConfig.create((1, 1), 5).in_validity_range is True
    assert LinkConfig.create((1, 1), 3).in_validity_range is False
    with pytest.raises(ValueError):
        LinkConfig.create((0, 1), 3)
    with pytest.raises(ValueError):
        LinkConfig.create((1,), 1)


def test_f_homology_unit_at_order_zero():
    assert f_homology(ODD2, 0).to_text() == "1"


def test_f_homology_constant_layer_is_one():
    fh = f_homology(LinkConfig.create((1, 2), 4), 5)
    assert fh.grade_extract("u", 0) == TruncatedSeries.one(fh.vars, fh.spec)


def test_f_homology_at_all_ones_odd():
    # two odd strands, odd ambient: 1/((1-u)(1-2u)), coefficients 2^(t+1)-1
    fh = f_homology(ODD2, 10, x_values=[1, 1])
    for t in range(11):
        assert fh.coefficient({"u": t}) == 2 ** (t + 1) - 1


def test_f_homology_at_minus_ones_odd():
    fh = f_homology(ODD2, 12, x_values=[-1, -1])
    one, u = u_series(12)
    closed = (
        (one + u)
        * (one - u - (u * u).scaled(2)).inverse()
        * (one - u - (u * u).scaled(4)).inverse()
    )
    assert fh == closed


def test_f_homology_at_ones_even():
    cfg = LinkConfig.create((1, 1, 1), 4)
    fh = f_homology(cfg, 8, x_values=[1, 1, 1])
    one, u = u_series(8)
    closed = one
    for k in (1, 2, 3):
        closed = closed * (one + u.scaled(k)).inverse()
    assert fh == closed


@pytest.mark.parametrize("m, d", [((1, 1), 3), ((1, 2), 4), ((2, 2), 5)])
def test_f_homology_at_rational_x_matches_substitution(m, d):
    # x_values go through _mobius_x over constant power sums; the full F^H,
    # exact to x-degree 2t, with the constants substituted must agree
    cfg, t, x = LinkConfig.create(m, d), 6, (QQ(2), QQ(-1, 3))
    got = f_homology(cfg, t, x_values=x)
    full = f_homology(cfg, t, x_total_max=2 * t)
    spec = TruncationSpec(u_max=t)
    consts = {f"x{i + 1}": TruncatedSeries.constant(UV, spec, v) for i, v in enumerate(x)}
    assert got == full.substitute(consts)


def test_f_homology_stable_under_more_factors():
    assert f_homology(ODD2, 8) == f_homology(ODD2, 8, l_max=20)


def test_f_homotopy_direct_first_row():
    f_pi = f_homotopy_direct(ODD2, 4)
    assert f_pi.coefficient({"x1": 2, "u": 1}) == 1
    assert f_pi.coefficient({"x1": 1, "x2": 1, "u": 1}) == 1
    assert f_pi.coefficient({"x2": 2, "u": 1}) == 1
    assert f_pi.coefficient({"x1": 1, "u": 1}) == 0
    # no u^0 terms at all
    assert f_pi.grade_extract("u", 0).is_zero()


def test_f_homotopy_anchor_coefficients():
    f_pi = f_homotopy_direct(ODD2, 7)
    assert f_pi.coefficient({"x1": 4, "x2": 4, "u": 7}) == 2
    assert f_pi.coefficient({"x1": 2, "u": 2}) == 1


def test_route_equivalence_small():
    for m, d, r in ((1, 3, 1), (1, 4, 2), (2, 5, 2)):
        cfg = LinkConfig.create((m,) * r, d)
        assert f_homotopy_direct(cfg, 8) == plethystic_log(f_homology(cfg, 8)), (m, d, r)


def test_plethystic_exp_recovers_homology():
    f_pi = f_homotopy_direct(ODD2, 8)
    assert plethystic_exp(f_pi) == f_homology(ODD2, 8)


def test_hodge_bound():
    # every monomial of F^pi has |s| <= t + 1
    f_pi = f_homotopy_direct(ODD2, 8)
    r = 2
    for mono in f_pi.coeffs:
        assert sum(mono[:r]) <= mono[r] + 1


def test_permutation_symmetry():
    f_pi = f_homotopy_direct(ODD2, 8)
    swapped = {(m[1], m[0], m[2]): c for m, c in f_pi.coeffs.items()}
    assert swapped == f_pi.coeffs


def test_graded_split_has_no_negative_genus():
    graded = f_homotopy_graded(f_homotopy_direct(ODD2, 8))
    assert all(e >= 0 for e in graded.exponents_of("hbar"))


def test_graded_parts_match_closed_forms():
    t_max = 10
    graded = f_homotopy_graded(f_homotopy_direct(ODD2, t_max))
    g0 = genus0_closed(ODD2, t_max)
    g1 = genus1_closed(ODD2, t_max)

    def strip(series, g):
        part = series.grade_extract("hbar", g)
        return {(m[0], m[1], m[2]): c for m, c in part.coeffs.items()}

    assert strip(graded, 0) == dict(g0.coeffs)
    assert strip(graded, 1) == dict(g1.coeffs)


def test_genus0_closed_values():
    g0 = genus0_closed(ODD2, 13)
    assert g0.grade_extract("u", 0).is_zero()
    assert g0.coefficient({"x1": 2, "u": 1}) == 1
    assert g0.coefficient({"x1": 8, "x2": 6, "u": 13}) == 19
    assert g0.coefficient({"x1": 1, "u": 1}) == 0


def test_genus0_closed_raises_on_a_surviving_inverse_u(monkeypatch):
    # a constant in the log bracket leaves -(-1)^d/u uncancelled: an error, not a drop
    import linkchi.genfun as genfun

    real = genfun._mu_log_sum

    def with_constant(cfg, vars_, spec, t_max, weight):
        out = real(cfg, vars_, spec, t_max, weight)
        return out + TruncatedSeries.one(vars_, spec)

    monkeypatch.setattr(genfun, "_mu_log_sum", with_constant)
    with pytest.raises(SeriesError):
        genus0_closed(ODD2, 4)


def test_genus1_closed_values():
    g1 = genus1_closed(ODD2, 12)
    assert g1.coefficient({"x1": 2, "u": 2}) == 1
    assert g1.coefficient({"x1": 6, "x2": 6, "u": 12}) == 50


def test_dims_specialize_to_euler_forms():
    cfg = LinkConfig.create((1, 1), 5)
    for dims_fn, closed_fn in ((genus0_dims, genus0_closed), (genus1_dims, genus1_closed)):
        dims = dims_fn(cfg, 5)
        closed = closed_fn(cfg, 5)
        target_vars = cfg.xu_vars()
        target_spec = TruncationSpec(u_max=5, x_total_max=6)
        # z stores e + sum_i m_i s_i, so x_i <- (-1)^(m_i) x_i leaves (-1)^e
        at = dims.substitute({
            "z": TruncatedSeries.constant(target_vars, target_spec, -1),
            "x1": TruncatedSeries.term(target_vars, target_spec, {"x1": 1}, -1),
            "x2": TruncatedSeries.term(target_vars, target_spec, {"x2": 1}, -1),
        })
        assert at == closed.truncate(target_spec)


def test_dims_require_integer_dimensions():
    cfg = LinkConfig.create(("odd", "odd"), "odd")
    with pytest.raises(ValueError):
        genus0_dims(cfg, 4)


def test_genus0_dims_degree_bookkeeping():
    # z stores the homological degree plus the hair terms sum_i m_i s_i
    # single odd strand: a Moebius collapse leaves only the two-hair tree,
    # one generator in homological degree (d-1) - 2m at complexity 1
    cfg = LinkConfig.create((1,), 5)
    dims = genus0_dims(cfg, 4)
    assert dims.coeffs == {(2, 1, (5 - 1) - 2 + 2): QQ(1)}

    # two odd strands: at t=1 each two-hair tree survives with dimension 1
    cfg2 = LinkConfig.create((1, 1), 5)
    dims2 = genus0_dims(cfg2, 3)
    deg = (5 - 1) - 1 - 1
    assert dims2.coefficient({"x1": 1, "x2": 1, "u": 1, "z": deg + 2}) == 1
    assert dims2.coefficient({"x1": 2, "u": 1, "z": deg + 2}) == 1

    # mixed dimensions m = (1, 2), d = 6: a trivalent tree with k hairs has
    # k - 2 vertices (degree -d each) and 2k - 3 edges (d - 1 each), so
    # degree (d - 2) k - d + 3 - sum m_i s_i at complexity k - 1, stored
    # at z^((d - 2) k - d + 3)
    mixed = LinkConfig.create((1, 2), 6)
    dims3 = genus0_dims(mixed, 2)
    assert dims3.coeffs == {
        (1, 1, 1, 4 * 2 - 3 - 3 + 3): QQ(1),
        (0, 2, 1, 4 * 2 - 3 - 4 + 4): QQ(1),
        (3, 0, 2, 4 * 3 - 3 - 3 + 3): QQ(1),
        (2, 1, 2, 4 * 3 - 3 - 4 + 4): QQ(1),
    }


def test_genus1_dims_degree_bookkeeping():
    # an n-hair hedgehog has n vertices and 2n edges (n in the cycle, n
    # hairs), so degree 2n(d - 1) - n d - sum m_i s_i = n(d - 2) - sum m_i s_i
    # at complexity n, stored at z^(n(d - 2)) (the degree plus sum m_i s_i)
    single = genus1_dims(LinkConfig.create((2,), 5), 6)
    assert single.coeffs == {(3, 3, 3 * 3 - 2 * 3 + 2 * 3): QQ(1)}

    two = genus1_dims(LinkConfig.create((1, 1), 5), 4)
    assert two.coefficient({"x1": 1, "x2": 1, "u": 2, "z": 2 * 3 - 2 + 2}) == 1
    assert two.coefficient({"x1": 2, "x2": 2, "u": 4, "z": 4 * 3 - 4 + 4}) == 2
    assert set(two.exponents_of("z")) == {2 * 3, 4 * 3}

    mixed = genus1_dims(LinkConfig.create((1, 2), 6), 3)
    assert mixed.coeffs == {
        (1, 0, 1, 4 - 1 + 1): QQ(1),
        (0, 1, 1, 4 - 2 + 2): QQ(1),
        (0, 3, 3, 3 * 4 - 6 + 6): QQ(1),
        (1, 2, 3, 3 * 4 - 1 - 4 + 5): QQ(1),
    }


def test_euler_table_anchors_and_layout():
    f_pi = f_homotopy_direct(ODD2, 9)
    tab0 = euler_table(ODD2, 0, 9, f_pi=f_pi)
    assert tab0.convention == "s1 = t - s2 + 1"
    assert tab0.cell(1, 0) == 1 and tab0.cell(1, 1) == 1 and tab0.cell(1, 2) == 1
    assert tab0.rows[2] == [0] * 10
    tab2 = euler_table(ODD2, 2, 9, f_pi=f_pi)
    assert tab2.convention == "s1 = t - s2 - 1"
    assert tab2.cell(9, 4) == 18
    with pytest.raises(ValueError):
        euler_table(ODD2, -1, 4)


def test_euler_table_matches_reference_to_t12():
    f_pi = f_homotopy_direct(ODD2, 12)
    for g in range(4):
        tab = euler_table(ODD2, g, 12, f_pi=f_pi)
        for t in range(1, 13):
            assert tab.rows[t] == TABLES[g][t][:13], (g, t)


@pytest.mark.parametrize("r", [1, 2])
def test_euler_table_cells_are_the_coefficients(r):
    # each cell is the coefficient of x^s u^t (times hbar^g when f_pi has
    # hbar), read from the integer form, in every layout the table reads
    cfg = LinkConfig.create((2,) * r, 5)
    f_pi = f_homotopy_direct(cfg, 7)
    for source in (f_pi, f_homotopy_graded(f_pi)):
        for g in range(4):
            tab = euler_table(cfg, g, 7, f_pi=source)
            for t, row in tab.rows.items():
                for s2, chi in enumerate(row):
                    s1 = t + 1 - g - s2
                    expo = {"x1": s1, "u": t} | ({"x2": s2} if r == 2 else {})
                    want = f_pi.coefficient(expo) if s1 >= 0 else 0
                    assert type(chi) is int and chi == want, (g, t, s2)


def test_euler_table_cell_outside_the_supplied_spec_raises():
    # a grid cell outside the truncation of f_pi is undefined, never 0
    narrow = f_homotopy_direct(ODD2, 6, x_total_max=3)
    assert euler_table(ODD2, 4, 6, f_pi=narrow) == euler_table(ODD2, 4, 6)  # |s| <= 3
    with pytest.raises(OutOfBoundsError, match="'x1': 4, 'u': 3, 'x2': 0"):
        euler_table(ODD2, 0, 6, f_pi=narrow)
    layer = f_homotopy_direct(ODD2, 6, genus=1)  # hbar window (1, 1)
    with pytest.raises(OutOfBoundsError, match="'hbar': 2"):
        euler_table(ODD2, 2, 6, f_pi=layer)


def test_euler_table_names_a_non_integer_cell():
    spec = TruncationSpec(u_max=3, x_total_max=4)
    f_pi = TruncatedSeries(ODD2.xu_vars(), spec, {(2, 0, 1): 2, (0, 1, 1): QQ(1, 2)})
    assert euler_table(ODD2, 0, 3, f_pi=f_pi).cell(1, 0) == 2  # the genus-0 layer is integral
    with pytest.raises(
        SeriesError, match=r"non-integer Euler characteristic at \{'x1': 0, 'u': 1, 'x2': 1\}: 1/2"
    ):
        euler_table(ODD2, 1, 3, f_pi=f_pi)


def test_euler_table_r1():
    cfg = LinkConfig.create((1,), 3)
    tab = euler_table(cfg, 1, 4)
    # single strand, genus one: one column with s1 = t
    assert tab.convention == "s1 = t"
    assert all(len(row) == 1 for row in tab.rows.values())


PARITY_CONFIGS = {"odd-odd": (1, 3), "odd-even": (1, 4), "even-odd": (2, 5), "even-even": (2, 4)}


@pytest.mark.parametrize("parity", sorted(PARITY_CONFIGS))
@pytest.mark.parametrize("r", [1, 2])
def test_genus_layer_alone_matches_the_full_layer(parity, r):
    m, d = PARITY_CONFIGS[parity]
    cfg = LinkConfig.create((m,) * r, d)
    for t in (0, 1, 2, 5, 12):
        graded = f_homotopy_graded(f_homotopy_direct(cfg, t))
        for g in range(t + 3):
            alone = f_homotopy_direct(cfg, t, genus=g)
            assert alone.spec == TruncationSpec(
                u_max=t, x_total_max=max(t + 1 - g, 0), hbar_window=(g, g)
            )
            full = graded.truncate(TruncationSpec(hbar_window=(g, g)))
            assert alone == full, (t, g)


def test_genus_layer_alone_is_undefined_off_its_genus():
    layer = f_homotopy_direct(ODD2, 6, genus=1)
    assert layer.coefficient({"x1": 3, "x2": 3, "u": 6, "hbar": 1}) == 3
    for genus in (0, 2):
        with pytest.raises(OutOfBoundsError):
            layer.coefficient({"x1": 3, "x2": 3, "u": 6, "hbar": genus})
    genus0 = f_homotopy_direct(ODD2, 6, genus=0)
    assert genus0.grade_extract("hbar", 0).coefficient({"x1": 1, "x2": 1, "u": 1}) == 1
    with pytest.raises(OutOfBoundsError):
        genus0.grade_extract("hbar", 1)
    with pytest.raises(ValueError):
        f_homotopy_direct(ODD2, 6, genus=-1)
    with pytest.raises(ValueError):
        f_homotopy_direct(ODD2, 6, x_total_max=7, genus=1)


def test_euler_table_rejects_r3():
    cfg = LinkConfig.create((1, 1, 1), 3)
    with pytest.raises(ValueError):
        euler_table(cfg, 0, 3)
