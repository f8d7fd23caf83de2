from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import linkchi.cycleindex as cycleindex
import linkchi.genfun as genfun
import linkchi.special as special
from linkchi.genfun import LinkConfig
from linkchi.rationals import QQ
from linkchi.series import (
    SeriesError,
    TruncatedSeries,
    TruncationSpec,
    VariableSet,
    _LinearSum,
    _raise_exponents,
)
from linkchi.special import (
    UniPolynomial,
    _column_polys,
    e_poly,
    f_poly,
    gamma_series,
    log_gamma_series,
    plethystic_exp,
    plethystic_log,
    s_poly,
)

from naive_series import naive_mobius_double_sum, naive_plethystic_exp

UV = VariableSet(has_u=True)


def uspec(t):
    return TruncationSpec(u_max=t)


def u_term(spec, e=1, c=1):
    return TruncatedSeries.term(UV, spec, {"u": e}, c)


def const(spec, c):
    return TruncatedSeries.constant(UV, spec, c)


def test_e_poly_small():
    assert e_poly(1) == UniPolynomial([0, 1])
    # mu(1) = 1, mu(2) = -1:  (x^2 - x) / 2
    assert e_poly(2) == UniPolynomial([0, QQ(-1, 2), QQ(1, 2)])
    with pytest.raises(ValueError):
        e_poly(0)


def test_e_poly_at_one_vanishes():
    assert e_poly(1)(1) == 1
    for l in range(2, 51):
        assert e_poly(l)(1) == 0, l


def test_e_poly_at_minus_one():
    assert e_poly(1)(-1) == -1
    assert e_poly(2)(-1) == 1
    for l in range(3, 30):
        assert e_poly(l)(-1) == 0, l


def test_f_poly_small():
    assert f_poly(1) == UniPolynomial([1])
    assert f_poly(2) == UniPolynomial([1, -1])
    assert f_poly(6) == UniPolynomial([1, 0, 0, -1, -1, 1])
    with pytest.raises(ValueError):
        f_poly(0)


def test_f_poly_at_zero_is_one():
    for l in range(1, 51):
        assert f_poly(l)(0) == 1, l


def test_f_poly_is_laurent_rescaling_of_e_poly():
    # l * u^l * E_l(1/u) = F_l(u): match coefficients u^(l-k) <- x^k
    for l in range(1, 31):
        e = e_poly(l)
        f = f_poly(l)
        for k, c in enumerate(e.coeffs):
            want = f.coeffs[l - k] if l - k <= f.degree else QQ(0)
            assert l * c == want, (l, k)


def test_s_poly_small():
    assert s_poly(1) == UniPolynomial([0, QQ(1, 2), QQ(1, 2)])
    assert s_poly(2)(2) == 5  # 1^2 + 2^2
    with pytest.raises(ValueError):
        s_poly(0)


def test_s_poly_power_sums():
    for j in range(1, 7):
        for n in range(0, 21):
            assert s_poly(j)(n) == sum(i**j for i in range(1, n + 1)), (j, n)


def test_gamma_at_zero_and_minus_one():
    spec = uspec(8)
    u = u_term(spec)
    one = TruncatedSeries.one(UV, spec)
    assert gamma_series(TruncatedSeries.zero(UV, spec), u) == one
    assert gamma_series(const(spec, -1), u) == one


def gamma_positive_closed_form(n, spec):
    one = TruncatedSeries.one(UV, spec)
    out = one
    for k in range(1, n + 1):
        out = out * (one - u_term(spec, 1, k)).inverse()
    return out


def gamma_negative_closed_form(n, spec):
    one = TruncatedSeries.one(UV, spec)
    out = one
    for k in range(1, n):
        out = out * (one + u_term(spec, 1, k))
    return out


def test_gamma_closed_forms():
    spec = uspec(12)
    for n in range(1, 9):
        assert gamma_series(const(spec, n), u_term(spec)) == gamma_positive_closed_form(
            n, spec
        ), n
    for n in range(2, 9):
        assert gamma_series(const(spec, -n), u_term(spec)) == gamma_negative_closed_form(
            n, spec
        ), n


def test_gamma_functional_identity():
    # Gamma(n, u) * prod_{k=1}^{n} (1 - k u) = 1
    spec = uspec(10)
    one = TruncatedSeries.one(UV, spec)
    for n in range(0, 7):
        prod = one
        for k in range(1, n + 1):
            prod = prod * (one - u_term(spec, 1, k))
        assert gamma_series(const(spec, n), u_term(spec)) * prod == one, n


def test_gamma_rejects_constant_u_argument():
    spec = uspec(6)
    with pytest.raises(SeriesError):
        gamma_series(const(spec, 1), TruncatedSeries.one(UV, spec))


XUV = VariableSet(hodge_count=1, has_u=True)


def test_plethystic_log_examples():
    spec = TruncationSpec(u_max=5, x_total_max=6)
    one = TruncatedSeries.one(XUV, spec)
    assert plethystic_log(one).is_zero()

    x1u = TruncatedSeries.term(XUV, spec, {"x1": 1, "u": 1})
    f = (one - x1u).inverse()
    assert plethystic_log(f) == x1u

    u = TruncatedSeries.term(XUV, spec, {"u": 1})
    g = ((one - u).inverse()) * f
    assert plethystic_log(g) == u + x1u


def test_plethystic_exp_examples():
    spec = TruncationSpec(u_max=5, x_total_max=6)
    one = TruncatedSeries.one(XUV, spec)
    x1u = TruncatedSeries.term(XUV, spec, {"x1": 1, "u": 1})
    assert plethystic_exp(x1u) == (one - x1u).inverse()
    assert plethystic_exp(TruncatedSeries.zero(XUV, spec)) == one


def test_plethystic_exp_rejects_fractional():
    spec = TruncationSpec(u_max=4, x_total_max=4)
    with pytest.raises(SeriesError):
        plethystic_exp(TruncatedSeries.term(XUV, spec, {"u": 1}, QQ(1, 2)))


def test_plethystic_exp_rejects_constant_term():
    spec = TruncationSpec(u_max=4, x_total_max=4)
    with pytest.raises(SeriesError, match="constant term"):
        plethystic_exp(TruncatedSeries.constant(XUV, spec, 2))


def test_plethystic_exp_rejects_monomial_without_truncated_weight():
    # x is unbounded here, so (1 - x1)^(-1) never terminates
    spec = TruncationSpec(u_max=4)
    with pytest.raises(SeriesError, match="plethystically"):
        plethystic_exp(TruncatedSeries.term(XUV, spec, {"x1": 1}))


def test_plethystic_exp_counts_a_bounded_z_window():
    # the series climbs in z, so 1/(1 - z) is sum_k z^k up to the window
    zv = VariableSet(has_u=True, has_z=True)
    zspec = TruncationSpec(u_max=4, z_window=(0, 4))
    got = plethystic_exp(TruncatedSeries.term(zv, zspec, {"z": 1}))
    assert got == TruncatedSeries(zv, zspec, {(0, k): 1 for k in range(5)})
    # with z unbounded, z does not count
    with pytest.raises(SeriesError, match="plethystically"):
        plethystic_exp(TruncatedSeries.term(zv, TruncationSpec(u_max=4), {"z": 1}))


SPEC6 = TruncationSpec(u_max=6, x_total_max=6)
chi_values = st.integers(-3, 3)
monos = st.tuples(st.integers(0, 2), st.integers(1, 3))


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(monos, chi_values, max_size=4))
def test_plethystic_inverse_pair(d):
    g = TruncatedSeries(XUV, SPEC6, {(x, u): c for (x, u), c in d.items()})
    assert plethystic_log(plethystic_exp(g)) == g


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(monos, chi_values, max_size=4))
def test_plethystic_exp_of_log(d):
    g = TruncatedSeries(XUV, SPEC6, {(x, u): c for (x, u), c in d.items()})
    f = plethystic_exp(g)
    assert plethystic_exp(plethystic_log(f)) == f


PV = VariableSet(hodge_count=1, has_u=True, pcount=2)
PSPEC = TruncationSpec(u_max=4, x_total_max=4, p_weight_max=4)
p_monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)).filter(any)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(monos, chi_values, max_size=5))
def test_plethystic_exp_matches_product_of_geometric_powers(d):
    g = TruncatedSeries(XUV, SPEC6, {(x, u): c for (x, u), c in d.items()})
    assert plethystic_exp(g) == naive_plethystic_exp(g)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(p_monos, chi_values, max_size=5))
def test_plethystic_exp_matches_product_with_p_weight(d):
    g = TruncatedSeries(PV, PSPEC, d)
    assert plethystic_exp(g) == naive_plethystic_exp(g)


LV = VariableSet(hodge_count=1, has_u=True, has_z=True, has_hbar=True)
LSPEC = TruncationSpec(u_max=4, x_total_max=4, z_window=(0, 6), hbar_window=(0, 5))
l_monos = st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(0, 2), st.integers(0, 1))


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(l_monos, chi_values, max_size=4))
def test_plethystic_exp_matches_product_with_z_and_hbar_windows(d):
    # raising runs on packed keys, whose z and hbar fields sit at the top
    g = TruncatedSeries(LV, LSPEC, d)
    assert plethystic_exp(g) == naive_plethystic_exp(g)


ZV = VariableSet(has_u=True, has_z=True)
HV = VariableSet(hodge_count=1, has_hbar=True)
# u (x) unbounded, so each series climbs in z (hbar) alone
ONE_CLIMBING = [(ZV, TruncationSpec(z_window=(0, 5))), (HV, TruncationSpec(hbar_window=(0, 5)))]
climbing_monos = st.tuples(st.integers(0, 2), st.integers(1, 3))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ONE_CLIMBING), st.dictionaries(climbing_monos, chi_values, max_size=4))
def test_plethystic_exp_matches_product_climbing_in_z_or_hbar_alone(layout, d):
    vars_, spec = layout
    g = TruncatedSeries(vars_, spec, d)
    assert plethystic_exp(g) == naive_plethystic_exp(g)


# ------------------------------------------- the Moebius double sum


def assert_sums_match_naive(monkeypatch, module, call):
    """Run ``call`` with ``module._mobius_double_sum`` recording its
    arguments, and check every result against the (k, l, j) loop of
    ``naive_mobius_double_sum`` on the same arguments: equal spec and
    equal integer form.  ``call`` runs twice, first with the cache of
    ``special._v_factors`` and ``special._w_factors`` cleared (cold), then
    again (warm), which must read every factor from the cache and give the
    same results."""
    seen = []
    real = special._mobius_double_sum

    def record(*args):
        out = real(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(module, "_mobius_double_sum", record)
    special._v_factors.cache_clear()
    special._w_factors.cache_clear()
    call()
    cold = list(seen)
    assert cold
    misses = special._v_factors.cache_info().misses
    seen.clear()
    call()
    assert special._v_factors.cache_info().misses == misses
    assert [out._ints for _args, out in seen] == [out._ints for _args, out in cold]
    for args, got in cold:
        want = naive_mobius_double_sum(*args)
        assert got.spec == want.spec
        assert got._ints == want._ints


PARITY_CONFIGS = {"odd-odd": (1, 3), "odd-even": (1, 4), "even-odd": (2, 5), "even-even": (2, 4)}


@pytest.mark.parametrize("parity", sorted(PARITY_CONFIGS))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_double_sum_matches_naive_for_f_homotopy(monkeypatch, parity, r):
    m, d = PARITY_CONFIGS[parity]
    cfg = LinkConfig.create((m,) * r, d)
    for t in range(1, 9):
        assert_sums_match_naive(monkeypatch, genfun, lambda: genfun.f_homotopy_direct(cfg, t))


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_double_sum_matches_naive_for_graph_supercharacter(monkeypatch, parity):
    assert_sums_match_naive(
        monkeypatch, cycleindex, lambda: cycleindex.z_graph_supercharacter(parity, 6, 6)
    )


@pytest.mark.parametrize("twist", ["plain", "det"])
def test_double_sum_matches_naive_in_the_hbar_plus_p_weight_grade(monkeypatch, twist):
    # the body before the final regrade: P_n = +-p_n, var = hbar counting
    # hbar + p-weight
    assert_sums_match_naive(
        monkeypatch,
        cycleindex,
        lambda: cycleindex.mod_envelope_supercharacter_direct(twist, 5, 3),
    )


def test_double_sum_builds_u_factors_once_per_l(monkeypatch):
    t = 16
    calls = {"inverse": 0, "log": 0}
    for name in calls:
        real = getattr(TruncatedSeries, name)

        def counted(self, _real=real, _name=name):
            calls[_name] += 1
            return _real(self)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    sums: dict = {}
    real_sum = genfun.color_power_sum

    def counted_sum(cfg, vars_, spec, n, mode):
        sums[n] = sums.get(n, 0) + 1
        return real_sum(cfg, vars_, spec, n, mode)

    monkeypatch.setattr(genfun, "color_power_sum", counted_sum)
    special._v_factors.cache_clear()
    special._w_factors.cache_clear()
    genfun.f_homotopy_direct(LinkConfig.create((1, 1), 3), t)
    # V_l for l <= t, log F_l for 2 <= l <= 2t, one power sum P_n per n
    assert calls["inverse"] <= t
    assert calls["log"] <= 2 * t - 1
    assert sums and set(sums.values()) == {1}
    # the factors in u depend on (l, sigma_d, t) alone: another link with
    # the same sigma_d (d odd) at the same t builds none of them again
    calls.update(inverse=0, log=0)
    genfun.f_homotopy_direct(LinkConfig.create((1, 1, 1), 5), t)
    assert calls == {"inverse": 0, "log": 0}
    # and F_l^-1, log F_l and the powers of W_l not on sigma_d at all: a
    # link with the other sigma_d (d even) at the same t builds none again
    genfun.f_homotopy_direct(LinkConfig.create((1, 1), 4), t)
    assert calls == {"inverse": 0, "log": 0}


PLACEMENT_LAYOUTS = {
    "xu": (VariableSet(hodge_count=2, has_u=True), TruncationSpec(u_max=8, x_total_max=9), "u"),
    "p": (VariableSet(has_u=True, pcount=4), TruncationSpec(u_max=8, p_weight_max=4), "u"),
    # the hbar + p-weight window of mod_envelope_supercharacter_direct at W=4, G=5
    "hbar": (
        VariableSet(has_hbar=True, pcount=4),
        TruncationSpec(p_weight_max=4, hbar_window=(0, 8)),
        "hbar",
    ),
}

# a nonconstant X free of v, as the callers' X_{l,k}^n
PLACEMENT_X = {
    "xu": {(0, 0, 0): 1, (1, 0, 0): 2, (0, 2, 0): QQ(-1, 3), (3, 4, 0): 5},
    "p": {(0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): -1, (0, 0, 1, 0, 0): QQ(1, 2), (0, 2, 1, 0, 0): 7},
    "hbar": {(0, 0, 0, 0, 0): 3, (0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0): QQ(-1, 2), (0, 0, 0, 0, 1): 2},
}


def _summed(vars_, spec, den, runs):
    out = _LinearSum(vars_, spec)
    out.add_runs(1, den, runs)
    return out.series()


@pytest.mark.parametrize("sigma_d", [1, -1])
@pytest.mark.parametrize("layout", sorted(PLACEMENT_LAYOUTS))
def test_placed_factors_match_raising_in_the_callers_layout(layout, sigma_d):
    # X times each cached factor paired at v^k equals X times the factor
    # built in the caller's layout and raised there, for every k the double
    # sum reaches; a genus layer is that product's terms of one genus
    vars_, spec, var = PLACEMENT_LAYOUTS[layout]
    x = TruncatedSeries(vars_, spec, PLACEMENT_X[layout])
    top = 8
    step = vars_.layout.pack(vars_.monomial({var: 1}))
    for l in range(1, 2 * top + 1):
        cols, log_fl = special._v_factors(l, sigma_d, top)
        fl = special._f_series(vars_, spec, var, l)
        want_cols = []
        if l <= top:
            v_l = TruncatedSeries.term(vars_, spec, {var: l}, sigma_d * l) * fl.inverse()
            want_cols = [q.at_series(v_l) for q in _column_polys(top // l)]
        pairs = list(zip(cols, want_cols))
        assert len(pairs) == len(cols) == len(want_cols)
        if l > 1:
            pairs.append((log_fl, fl.log()))
        else:
            assert log_fl is None
        for k in range(1, 2 * top // l + 1):
            for got, want in pairs:
                product = x * _raise_exponents(want, k)
                full = _summed(vars_, spec, *special._final_terms(x, got, k, top, step))
                assert full._ints == product._ints, (l, k)
                for g in range(4) if layout == "xu" else ():
                    layer = special._final_terms(x, got, k, top, step, genus=g)
                    terms = {
                        m: c for m, c in product.coeffs.items() if m[2] - m[0] - m[1] + 1 == g
                    }
                    assert _summed(vars_, spec, *layer) == TruncatedSeries(vars_, spec, terms)


def test_v_factors_are_immutable():
    cols, log_fl = special._v_factors(3, 1, 6)
    w_pows, w_log = special._w_factors(3, 6)
    assert w_log is log_fl
    for factors in (cols, w_pows):
        assert isinstance(factors, tuple) and all(isinstance(c, tuple) for c in factors)
    for den, exps, nums in cols + w_pows + (log_fl,):
        assert isinstance(den, int) and isinstance(exps, tuple) and isinstance(nums, tuple)
        assert len(exps) == len(nums) and list(exps) == sorted(set(exps))


@pytest.mark.parametrize(
    "spec",
    [
        TruncationSpec(p_weight_max=2, hbar_window=(1, 5)),  # no hbar^0
        TruncationSpec(p_weight_max=2),  # hbar unbounded
    ],
)
def test_double_sum_needs_a_bounded_window_holding_zero(spec):
    # a placed v^0 term would be stored outside the spec
    vars_ = VariableSet(has_hbar=True, pcount=2)

    def power_sum(n):
        return TruncatedSeries.term(vars_, spec, {"p1": 1}) if n == 1 else TruncatedSeries.zero(vars_, spec)

    with pytest.raises(SeriesError):
        special._mobius_double_sum(vars_, spec, "hbar", 1, 2, power_sum)


@pytest.mark.parametrize("layout", sorted(PLACEMENT_LAYOUTS))
def test_double_sum_rejects_a_power_sum_with_a_positive_v_exponent(layout):
    # its pairs could then leave the spec past the bound on v
    vars_, spec, var = PLACEMENT_LAYOUTS[layout]
    climbing = TruncatedSeries.term(vars_, spec, {var: 1})

    def power_sum(n):
        return climbing if n == 3 else TruncatedSeries.zero(vars_, spec)

    with pytest.raises(SeriesError, match=f"P_3 = .* has a positive exponent in {var}"):
        special._mobius_double_sum(vars_, spec, var, 1, 2, power_sum)


def test_second_routes_never_read_the_factor_cache(monkeypatch):
    # f_homology and the plethystic transforms build V_l and log F_l on
    # their own: with both caches broken they still run
    def broken(*args):
        raise AssertionError("the factor cache was read")

    cfg = LinkConfig.create((1, 1), 3)
    special._v_factors.cache_clear()
    for name in ("_w_factors", "_v_factors"):  # the sign-free cache, then both
        monkeypatch.setattr(special, name, broken)
        with pytest.raises(AssertionError, match="factor cache"):
            genfun.f_homotopy_direct(cfg, 4)
    fh = genfun.f_homology(cfg, 6)
    assert plethystic_exp(plethystic_log(fh)) == fh


def test_a_fault_in_the_factor_cache_fails_the_route_checks(monkeypatch):
    # the top coefficient of Q_5(V_1) off by 1: its numerator bumped by den,
    # at a v-exponent e with 2e > top, so that only k = 1 places it and F^pi
    # keeps integer coefficients.  Times X^5, it lands at x-degree 5 and
    # u^6, genus 2 of the grids.  The checks against the second route and
    # against the published grids both report a mismatch
    from linkchi import verify

    real = special._v_factors

    def bumped(l, sigma_d, top):
        cols, log_fl = real(l, sigma_d, top)
        if l == 1:
            den, exps, (*rest, n) = cols[4]
            assert 2 * exps[-1] > top
            cols = cols[:4] + ((den, exps, (*rest, n + den)),) + cols[5:]
        return cols, log_fl

    monkeypatch.setattr(special, "_v_factors", bumped)
    route, tables = verify.run_checks(only=["route-equivalence", "tables"], t_max=6)
    assert not route.ok and route.details[0].startswith("direct vs plethystic")
    assert not tables.ok and tables.details[0].startswith("table genus")


def _failing(names, t_max=6):
    from linkchi import verify

    return {r.name for r in verify.run_checks(only=names, t_max=t_max) if not r.ok}


def test_a_fault_in_log_gamma_fails_the_exp_checks(monkeypatch):
    # x_arg * u added to log Gamma(x_arg, u_arg), in both bindings: gamma
    # (through gamma_series) and both uses in f_homology see it
    real = special.log_gamma_series

    def shifted(x_arg, u_arg):
        u = TruncatedSeries.term(x_arg.vars, x_arg.spec, {"u": 1})
        return real(x_arg, u_arg) + x_arg * u

    monkeypatch.setattr(special, "log_gamma_series", shifted)
    monkeypatch.setattr(genfun, "log_gamma_series", shifted)
    names = ["gamma", "homology-specializations", "route-equivalence"]
    assert _failing(names) == set(names)


def test_a_constant_term_in_the_power_sums_fails_gamma_at_zero(monkeypatch):
    # S_j(x) + 1 in place of S_j(x): log Gamma(0, u) becomes sum_j u^j / j,
    # so Gamma(0, u) = 1 / (1 - u)
    from linkchi import verify

    real = special.s_poly

    def shifted(j):
        poly = real(j)
        return special.UniPolynomial([poly.coeffs[0] + 1, *poly.coeffs[1:]])

    monkeypatch.setattr(special, "s_poly", shifted)
    (gamma,) = verify.run_checks(only=["gamma"], t_max=6)
    assert "Gamma(0, u) != 1" in gamma.details


def test_a_fault_in_the_grading_fails_the_exp_checks(monkeypatch):
    # one grade short of the top: exp and log lose their last grade, which
    # the closed forms built from inverse and products still hold
    real = TruncatedSeries._grades

    def short(self):
        grades, top = real(self)
        return grades, top - 1

    monkeypatch.setattr(TruncatedSeries, "_grades", short)
    names = ["gamma", "homology-specializations"]
    assert _failing(names) == set(names)


def test_a_fault_in_f_homologys_f3_fails_the_second_route_checks(monkeypatch):
    # u^3 added to F_3 where f_homology builds it.  homology-specializations
    # still passes, and must: it evaluates at x = 1 and x = -1, where E_l(1)
    # = 0 for l >= 2 and E_l(-1) = 0 for l >= 3, so X_l = 0 past l = 2 and
    # F_3 never enters.  F_l for l >= 3 is pinned by the second-route checks
    real = genfun._f_series

    def bumped(vars_, spec, var, l):
        out = real(vars_, spec, var, l)
        return out + TruncatedSeries.term(vars_, spec, {var: 3}) if l == 3 else out

    monkeypatch.setattr(genfun, "_f_series", bumped)
    names = ["homology-specializations", "route-equivalence", "tables-second-route"]
    assert _failing(names) == {"route-equivalence", "tables-second-route"}


XV = VariableSet(hodge_count=2, has_u=True)
x_monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0))
v_monos = st.tuples(st.just(0), st.just(0), st.integers(1, 5))
small_rationals = st.builds(QQ, st.integers(-4, 4), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(x_monos, small_rationals, max_size=4),
    st.dictionaries(v_monos, small_rationals, min_size=1, max_size=3),
    st.integers(1, 6),
)
def test_column_sum_is_log_gamma(x_coeffs, v_coeffs, t):
    # sum_n X^n Q_n(V) = sum_j S_j(X) V^j / j for x-only X and u-only V of
    # positive u-order
    spec = TruncationSpec(u_max=t, x_total_max=t + 1)
    x = TruncatedSeries(XV, spec, x_coeffs)
    v = TruncatedSeries(XV, spec, v_coeffs)
    total = TruncatedSeries.zero(XV, spec)
    x_pow = TruncatedSeries.one(XV, spec)
    for q in _column_polys(t):
        x_pow = x_pow * x
        total = total + x_pow * q.at_series(v)
    assert total == log_gamma_series(x, v)
