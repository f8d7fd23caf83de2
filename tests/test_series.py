from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from linkchi.rationals import QQ
from linkchi.series import (
    OutOfBoundsError,
    SeriesError,
    TruncatedSeries,
    TruncationSpec,
    VariableSet,
    _LinearSum,
    _bucket_field,
    _bucketed,
    _masks,
    _outside,
    _passes,
    _raise_exponents,
)

from naive_series import (
    naive_exp,
    naive_linear_sum,
    naive_log,
    naive_mul,
    naive_regrade,
    naive_substitute,
    naive_sum,
    naive_to_text,
)

XU = VariableSet(hodge_count=2, has_u=True)
SPEC = TruncationSpec(u_max=6, x_total_max=7)


def s(exponents, coeff=1, vars_=XU, spec=SPEC):
    return TruncatedSeries.term(vars_, spec, exponents, coeff)


def one(vars_=XU, spec=SPEC):
    return TruncatedSeries.one(vars_, spec)


def test_add_basic():
    a = one() + s({"u": 1})
    b = one() - s({"u": 1})
    assert (a + b) == one().scaled(2)
    zero = TruncatedSeries.zero(XU, SPEC)
    assert a + zero == a
    assert s({"x1": 1, "u": 1}) + s({"x2": 1, "u": 1}) == TruncatedSeries(
        XU, SPEC, {(1, 0, 1): 1, (0, 1, 1): 1}
    )


def test_add_rejects_mismatched_vars():
    other = VariableSet(hodge_count=1, has_u=True)
    with pytest.raises(SeriesError):
        one() + TruncatedSeries.one(other, SPEC)


FULL = VariableSet(hodge_count=2, has_u=True, has_z=True, has_hbar=True, pcount=3)


def test_variable_set_positions_index_names_and_monomial_agree():
    names = ("x1", "x2", "u", "z", "hbar", "p1", "p2", "p3")
    assert FULL.names == names and FULL.nvars == len(names)
    assert dict(FULL.positions) == {name: i for i, name in enumerate(names)}
    for i, name in enumerate(names):
        assert FULL.index(name) == i
        assert FULL.monomial({name: 7}) == tuple(7 if j == i else 0 for j in range(len(names)))
    assert FULL.monomial({}) == (0,) * len(names)
    assert FULL.monomial({"p3": 1, "x1": 2, "hbar": -1}) == (2, 0, 0, 0, -1, 0, 0, 1)
    with pytest.raises(TypeError):
        FULL.positions["y"] = 8  # read-only


@pytest.mark.parametrize(
    "vars_, name",
    [(FULL, name) for name in ("x0", "x3", "p0", "y")]
    + [(VariableSet(hodge_count=2, pcount=3), "u")],
)
def test_variable_set_rejects_missing_names(vars_, name):
    with pytest.raises(KeyError) as err:
        vars_.index(name)
    assert err.value.args == (name,)
    with pytest.raises(KeyError):
        vars_.monomial({name: 1})
    with pytest.raises(KeyError):
        TruncatedSeries.term(vars_, TruncationSpec(), {name: 1})


def test_packed_key_layout_is_pinned():
    # fields of 24 bits from the low end: x1, x2, u, p1, p2, p3, x-total,
    # p-weight, then z and hbar, each holding its exponent
    mono = FULL.monomial({"x1": 1, "x2": 2, "u": 3, "z": 4, "hbar": 2, "p2": 1})
    key = 0x000002_000004_000002_000003_000000_000001_000000_000003_000002_000001
    assert FULL.layout.pack(mono) == key
    assert FULL.layout.unpack(key) == mono
    assert FULL.layout.pack(FULL.monomial({})) == 0


def test_mul_geometric_inverse():
    geo = TruncatedSeries(XU, SPEC, {(0, 0, t): 1 for t in range(7)})
    assert (one() - s({"u": 1})) * geo == one()


def test_mul_identity_and_square():
    a = s({"x1": 2}) + s({"u": 3}, QQ(1, 2))
    assert a * one() == a
    sq = (s({"x1": 1}) + s({"x2": 1})) ** 2
    expected = (
        s({"x1": 2}) + s({"x1": 1, "x2": 1}, 2) + s({"x2": 2})
    )
    assert sq == expected


def test_mul_truncates_to_meet_of_specs():
    tight = TruncationSpec(u_max=2, x_total_max=7)
    a = TruncatedSeries.term(XU, tight, {"u": 1})
    b = s({"u": 2})
    assert (a * b).is_zero()
    assert (a * b).spec.u_max == 2


def test_exp_of_zero_is_one():
    assert TruncatedSeries.zero(XU, SPEC).exp() == one()


def test_exp_stores_no_monomial_one_outside_the_spec():
    # a z window without the exponent 0 excludes the monomial 1: there exp(0)
    # and one() are both the zero series, and reading their constant raises
    zv = VariableSet(has_u=True, has_z=True)
    spec = TruncationSpec(u_max=3, z_window=(1, 3))
    got, want = TruncatedSeries.zero(zv, spec).exp(), TruncatedSeries.one(zv, spec)
    assert got == want and got.is_zero()
    for series in (got, want):
        with pytest.raises(OutOfBoundsError):
            series.coefficient({})
    # the terms that do lie in the window are unchanged: exp(z) = z + z^2/2 + z^3/6
    z = TruncatedSeries.term(zv, spec, {"z": 1})
    assert z.exp() == TruncatedSeries(zv, spec, {(0, 1): 1, (0, 2): QQ(1, 2), (0, 3): QQ(1, 6)})


def test_exp_of_u():
    spec3 = TruncationSpec(u_max=3, x_total_max=4)
    e = TruncatedSeries.term(XU, spec3, {"u": 1}).exp()
    assert e.coefficient({}) == 1
    assert e.coefficient({"u": 1}) == 1
    assert e.coefficient({"u": 2}) == QQ(1, 2)
    assert e.coefficient({"u": 3}) == QQ(1, 6)


def test_exp_rejects_constant_term():
    with pytest.raises(SeriesError):
        one().exp()


def test_exp_rejects_non_nilpotent():
    # z is unbounded, so the powers of z never leave the spec
    zvars = VariableSet(has_u=True, has_z=True)
    spec = TruncationSpec(u_max=3)
    mixed = TruncatedSeries.term(zvars, spec, {"z": 1}) + TruncatedSeries.term(
        zvars, spec, {"u": 1}
    )
    not_nilpotent = r"^monomial \(0, 1\) is not nilpotent under the truncation spec$"
    with pytest.raises(SeriesError, match=not_nilpotent):
        mixed.exp()
    # under a z window, powers do leave the spec
    pure_z = TruncatedSeries.term(zvars, TruncationSpec(u_max=3, z_window=(0, 2)), {"z": 1})
    assert pure_z.exp().coefficient({"z": 2}) == QQ(1, 2)


def test_log_of_one_and_geometric():
    assert one().log().is_zero()
    spec4 = TruncationSpec(u_max=4, x_total_max=4)
    lg = (
        TruncatedSeries.one(XU, spec4) - TruncatedSeries.term(XU, spec4, {"u": 1})
    ).log()
    for t, c in [(1, QQ(-1)), (2, QQ(-1, 2)), (3, QQ(-1, 3)), (4, QQ(-1, 4))]:
        assert lg.coefficient({"u": t}) == c


def test_log_exp_roundtrip():
    a = s({"u": 1}) + s({"x1": 1, "u": 2}, QQ(3, 5))
    assert a.exp().log() == a
    g = one() + s({"u": 1}) + s({"x2": 2}, QQ(-2, 7))
    assert g.log().exp() == g


def test_log_of_product_of_inverses():
    geo = (one() - s({"u": 1})).inverse()
    assert (geo * (one() - s({"u": 1}))).log().is_zero()


GAPPED = [({"x1": 1, "u": 2}, QQ(1, 2)), ({"u": 5}, 3)]


@pytest.mark.parametrize(
    "spec, terms",
    [
        (TruncationSpec(u_max=11), GAPPED),
        (TruncationSpec(u_max=11, x_total_max=11), GAPPED),
        (TruncationSpec(u_max=11), GAPPED[1:]),
    ],
    ids=["u-graded", "u-and-x-graded", "one-grade"],
)
def test_exp_log_with_gaps_between_grades(spec, terms):
    # weights 2 and 5 (3 and 5 when x is bounded, 5 alone for one grade):
    # most grades of the operand are empty, and with one grade the first
    # kmax - 1 grades of the result are empty too
    f = TruncatedSeries.zero(XU, spec)
    for exponents, coeff in terms:
        f = f + s(exponents, coeff, spec=spec)
    assert f.exp() == naive_exp(f)
    assert (one(spec=spec) + f).log() == naive_log(one(spec=spec) + f)
    assert f.exp().log() == f
    # (3 u^5)^2 / 2!, by hand
    assert f.exp().coefficient({"u": 10}) == QQ(9, 2)


def test_substitute_monomials():
    a = s({"x1": 1, "u": 1})
    out = a.substitute({"x1": s({"x1": 2}), "u": s({"u": 2})})
    assert out == s({"x1": 2, "u": 2})


def test_substitute_identity():
    a = s({"x1": 2, "u": 1}, QQ(5, 3)) + s({"x2": 1})
    assert a.substitute({"x1": s({"x1": 1})}) == a


def test_substitute_p_to_zero_keeps_p_free_part():
    pv = VariableSet(has_u=True, pcount=2)
    spec = TruncationSpec(u_max=3, p_weight_max=4)
    f = TruncatedSeries.term(pv, spec, {"p1": 2}) + TruncatedSeries.term(
        pv, spec, {"u": 1}, 7
    )
    out = f.substitute(
        {
            "p1": TruncatedSeries.zero(pv, spec),
            "p2": TruncatedSeries.zero(pv, spec),
        }
    )
    assert out == TruncatedSeries.term(pv, spec, {"u": 1}, 7)


def test_substitute_geometric_weight_bound():
    pv = VariableSet(hodge_count=1, has_u=True, has_z=True, pcount=1)
    spec = TruncationSpec(u_max=3, x_total_max=3, z_window=(0, 3), p_weight_max=3)
    geo = TruncatedSeries(
        pv, spec, {(0, 0, 0, k): 1 for k in range(4)}
    )  # 1/(1-p1) to weight 3
    zux = TruncatedSeries.term(pv, spec, {"z": 1, "u": 1, "x1": 1})
    out = geo.substitute({"p1": zux})
    expected = sum(
        (TruncatedSeries.term(pv, spec, {"z": k, "u": k, "x1": k}) for k in range(1, 4)),
        TruncatedSeries.one(pv, spec),
    )
    assert out == expected


def test_substitute_u_by_constant_rejected():
    with pytest.raises(SeriesError):
        s({"u": 1}).substitute({"u": one()})


def test_substitute_multiplies_each_pattern_once(monkeypatch):
    # x1^a x2^b u^k for (a, b) in {(1, 1), (1, 2), (2, 1)} and k < n: three
    # patterns, whatever n.  Walked in lex order with a stack of prefix
    # products, they cost A*B, A*B^2 and A^2*B (A alone is taken as it is)
    # and the squarings A^2 and B^2: five products, none per carried u^k.
    muls = []
    real = TruncatedSeries._mul_series

    def counted(self, other):
        muls.append((self, other))
        return real(self, other)

    a = s({"x1": 1}) + s({"u": 1}, QQ(1, 3))
    b = s({"x2": 1}, QQ(2, 5)) + s({"x1": 1, "u": 1})
    repls = {"x1": a, "x2": b}
    for n in (2, 5):
        f = TruncatedSeries(
            XU,
            SPEC,
            {(e1, e2, k): QQ(k + 1, 7) for e1, e2 in ((1, 1), (1, 2), (2, 1)) for k in range(n)},
        )
        monkeypatch.setattr(TruncatedSeries, "_mul_series", counted)
        out = f.substitute(repls)
        monkeypatch.undo()
        assert len(muls) == 5, n
        muls.clear()
        assert out == naive_substitute(f, repls)


def test_substitute_carried_z_factor_starts_the_chain():
    # the target z window starts at 2: a carried z^e is the root of its
    # pattern's chain, so 3 z^3, with no substituted variable, is kept,
    # where a chain from 1 (below the window) times z^3 last would drop it
    src_vars = VariableSet(has_u=True, has_z=True, pcount=1)
    src_spec = TruncationSpec(u_max=4, z_window=(0, 6), p_weight_max=4)
    f = TruncatedSeries(src_vars, src_spec, {(0, 3, 0): 3, (0, 2, 1): 1, (1, 2, 2): 2})
    spec = TruncationSpec(u_max=4, x_total_max=4, z_window=(2, 6))
    repls = {"p1": TruncatedSeries(XZ, spec, {(1, 0, 2): 1, (1, 1, 3): QQ(1, 3)})}
    out = f.substitute(repls)
    assert out == naive_substitute(f, repls)
    assert out.coefficient({"z": 3}) == 3
    assert out.coefficient({"x1": 1, "z": 4}) == 1


@pytest.mark.parametrize("name", ["z", "hbar"])
def test_substitute_keeps_a_carried_factor_below_the_window(name):
    # 2 p1 carries name^0, below the window (2, 6), and its product with
    # x1 name^2 lies inside it; 5 name lies below the window, and
    # name p1^3 goes to x1^3 name^7, past it
    has = {f"has_{name}": True}
    src = VariableSet(pcount=1, **has)
    terms = {src.monomial({"p1": 1}): 2, src.monomial({name: 1}): 5, src.monomial({name: 1, "p1": 3}): 1}
    f = TruncatedSeries(src, TruncationSpec(p_weight_max=4), terms)
    target = VariableSet(hodge_count=1, **has)
    spec = TruncationSpec(x_total_max=4, **{f"{name}_window": (2, 6)})
    repls = {"p1": TruncatedSeries.term(target, spec, {"x1": 1, name: 2})}
    out = f.substitute(repls)
    assert out == TruncatedSeries.term(target, spec, {"x1": 1, name: 2}, 2)
    assert out.spec == spec
    assert out == naive_substitute(f, repls)


def test_coefficient_out_of_bounds_is_error():
    a = one() + s({"u": 1}, 3)
    assert a.coefficient({"u": 1}) == 3
    assert a.coefficient({"u": 6}) == 0
    with pytest.raises(OutOfBoundsError):
        a.coefficient({"u": 7})
    with pytest.raises(OutOfBoundsError):
        a.coefficient({"x1": 5, "x2": 3})


def test_grade_extract():
    hv = VariableSet(has_u=True, has_hbar=True)
    spec = TruncationSpec(u_max=4, hbar_window=(0, 3))
    a = TruncatedSeries.term(hv, spec, {"u": 1}) + TruncatedSeries.term(
        hv, spec, {"u": 2, "hbar": 1}, 5
    )
    assert a.grade_extract("hbar", 0) == TruncatedSeries.term(hv, spec, {"u": 1})
    assert a.grade_extract("hbar", 1) == TruncatedSeries.term(hv, spec, {"u": 2}, 5)
    assert a.grade_extract("hbar", 2).is_zero()
    geo = (
        TruncatedSeries.one(hv, spec) - TruncatedSeries.term(hv, spec, {"u": 1})
    ).inverse()
    assert geo.grade_extract("u", 3) == TruncatedSeries.one(hv, spec)


def test_grade_extract_raises_where_the_window_excludes_zero():
    hv = VariableSet(has_u=True, has_hbar=True)
    spec = TruncationSpec(u_max=3, hbar_window=(1, 3))
    a = TruncatedSeries.term(hv, spec, {"u": 1, "hbar": 2}, 5)
    # the extracted 5*u would sit at hbar^0, outside the window it keeps
    with pytest.raises(SeriesError, match=r"hbar\^0, outside the window"):
        a.grade_extract("hbar", 2)
    with pytest.raises(SeriesError, match=r"hbar\^0, outside the window"):
        a.grade_extract("hbar", 1)
    assert a.grade_extract("u", 1) == TruncatedSeries.term(hv, spec, {"hbar": 2}, 5)


def test_grade_extract_outside_the_window_raises():
    hv = VariableSet(has_u=True, has_hbar=True)
    spec = TruncationSpec(u_max=3, hbar_window=(0, 2))
    a = TruncatedSeries.term(hv, spec, {"u": 1, "hbar": 2}, 5)
    # undefined, as the coefficients there are: never the zero series
    for name, degree in (("hbar", 3), ("hbar", -1), ("u", 4)):
        with pytest.raises(OutOfBoundsError, match=rf"{name}\^{degree} lies outside"):
            a.grade_extract(name, degree)
    assert a.grade_extract("hbar", 1).is_zero()
    assert a.grade_extract("u", 3).is_zero()


@pytest.mark.parametrize("window", ["z_window", "hbar_window"])
def test_a_window_without_zero_on_a_missing_direction_raises(window):
    # every monomial of the set sits at exponent 0 there, below or past the window
    u_only = VariableSet(has_u=True)
    spec = TruncationSpec(u_max=3, **{window: (1, 3)})
    name = window.split("_")[0]
    source = TruncatedSeries.term(u_only, TruncationSpec(u_max=3), {"u": 1}, 5)
    with pytest.raises(SeriesError, match=f"which has no {name}"):
        source.regrade(u_only, spec)
    with pytest.raises(SeriesError, match=f"which has no {name}"):
        TruncatedSeries.term(u_only, spec, {"u": 1}, 5)
    with pytest.raises(SeriesError, match=f"which has no {name}"):
        TruncatedSeries(u_only, TruncationSpec(**{window: (4, 6)}))
    with pytest.raises(SeriesError, match=f"which has no {name}"):
        source.truncate(TruncationSpec(**{window: (1, 3)}))
    with pytest.raises(SeriesError, match=f"which has no {name}"):
        TruncatedSeries.zero(u_only, spec)
    # a window holding 0 on the missing direction keeps every monomial
    wide = TruncationSpec(u_max=3, **{window: (0, 3)})
    assert source.regrade(u_only, wide)._ints == source._ints
    assert source.truncate(wide)._ints == source._ints


def test_equal_variable_sets_share_one_layout(monkeypatch):
    import linkchi.series as series_mod
    from linkchi.genfun import LinkConfig, f_homotopy_direct

    assert VariableSet(hodge_count=2, has_u=True).layout is VariableSet(hodge_count=2, has_u=True).layout
    assert VariableSet(hodge_count=2, has_u=True).layout is not VariableSet(hodge_count=2).layout
    cfg = LinkConfig.create((1, 1), 3)
    first = f_homotopy_direct(cfg, 5, genus=1)
    built = []

    class Counted(series_mod._Layout):
        def __init__(self, vars_):
            built.append(vars_.names)
            super().__init__(vars_)

    # every set the second call builds is equal to one the first call built
    monkeypatch.setattr(series_mod, "_Layout", Counted)
    assert f_homotopy_direct(cfg, 5, genus=1) == first
    assert built == []


def test_to_text_graded_lex():
    a = s({"u": 2}, QQ(-1, 2)) + s({"x1": 1}) + one().scaled(3)
    assert a.to_text() == "3 + x1 + -1/2*u^2"
    assert TruncatedSeries.zero(XU, SPEC).to_text() == "0"


def test_regrade_drops_above_and_raises_below():
    hv = VariableSet(has_u=True, has_hbar=True)
    spec = TruncationSpec(u_max=3, hbar_window=(0, 2))
    a = TruncatedSeries(hv, spec, {(1, 0): 2, (2, 1): QQ(1, 3), (3, 2): -1})

    def shift(k):
        return {"hbar": {"hbar": 1, 1: k}}

    # hbar -> hbar + 1: u^3 hbar^3 is past the window's top and drops
    assert a.regrade(hv, spec, shift(1), sign=-1) == TruncatedSeries(
        hv, spec, {(1, 1): -2, (2, 2): QQ(-1, 3)}
    )
    # hbar -> hbar - 1: u hbar^(-1) is below the window's bottom and raises
    with pytest.raises(SeriesError, match="below"):
        a.regrade(hv, spec, shift(-1), sign=-1)
    # past an upper bound wins over below a lower bound: plain truncation
    high = TruncatedSeries.term(hv, spec, {"u": 3})
    assert high.regrade(hv, spec, {"u": {"u": 1, 1: 1}, "hbar": {1: -1}}).is_zero()
    # below u^0 raises too
    with pytest.raises(SeriesError, match="below"):
        high.regrade(hv, spec, {"u": {"u": 1, 1: -4}, "hbar": {}})


def test_regrade_rejects_two_monomials_on_one():
    a = s({"x1": 1}) + s({"x2": 1})
    with pytest.raises(SeriesError, match="two monomials"):
        a.regrade(XU, SPEC, {"x1": {"xt": 1}, "x2": {}})


REGRADE_VARS = st.builds(
    VariableSet,
    hodge_count=st.integers(0, 2),
    has_u=st.booleans(),
    has_z=st.booleans(),
    has_hbar=st.booleans(),
    pcount=st.integers(0, 2),
)


def affine_form(sources):
    return st.dictionaries(st.sampled_from([1, *sources]), st.integers(-2, 2), max_size=3)


@st.composite
def regrade_case(draw):
    """A series, a target set and spec, and a map between them, drawn so
    that carried, dropped, read and constant names all occur."""
    source = draw(REGRADE_VARS)
    target = draw(st.just(source) | REGRADE_VARS)
    monos = st.tuples(*(st.integers(0, 2) for _n in source.names))
    terms = draw(st.dictionaries(monos, st.integers(-3, 3), min_size=1, max_size=4))
    series = TruncatedSeries(source, TruncationSpec(), terms)
    sources = [*source.names, "xt", "pw"]
    names = st.sampled_from(target.names) if target.names else st.nothing()
    images = draw(st.dictionaries(names, affine_form(sources)))
    parity = draw(affine_form(sources))
    cap = st.none() | st.integers(1, 8)
    window = st.none() | st.tuples(st.integers(0, 2), st.integers(0, 5))
    # windows only on directions the target has: a window excluding 0 on a
    # missing direction holds no monomial at all
    spec = TruncationSpec(
        u_max=draw(cap),
        x_total_max=draw(cap),
        z_window=draw(window) if target.has_z else None,
        hbar_window=draw(window) if target.has_hbar else None,
        p_weight_max=draw(cap),
    )
    return series, target, spec, images, parity, draw(st.sampled_from([1, -1]))


def _regrade_outcome(fn, *args, **kwargs):
    """The result, or the case of the SeriesError raised."""
    try:
        return fn(*args, **kwargs)
    except SeriesError as err:
        cases = ("drops", "may go below 0", "lies below", "two monomials")
        return next(case for case in cases if case in str(err))


@settings(max_examples=400, deadline=None)
@given(regrade_case())
def test_regrade_matches_naive(case):
    series, target, spec, images, parity, sign = case
    got = _regrade_outcome(series.regrade, target, spec, images, parity, sign)
    want = _regrade_outcome(naive_regrade, series, target, spec, images, parity, sign)
    assert got == want


def test_exponents_of_reads_x_total_and_p_weight():
    terms = {(1, 1, 0, 0, 3, 2, 0, 0): 1, (0, 0, 2, 1, 0, 0, 0, 1): 2}
    a = TruncatedSeries(FULL, TruncationSpec(), terms)
    assert a.exponents_of("xt") == {2, 0} and a.exponents_of("pw") == {2, 3}
    assert a.exponents_of("hbar") == {3, 0} and a.exponents_of("u") == {0, 2}
    with pytest.raises(KeyError):
        a.exponents_of("p4")


def test_regrade_by_name_covers_each_case():
    src = VariableSet(hodge_count=2, has_u=True, has_hbar=True, pcount=2)
    tgt = VariableSet(hodge_count=2, has_u=True, has_z=True, pcount=2)
    spec = TruncationSpec(u_max=4, z_window=(0, 6))
    terms = {(1, 0, 1, 0, 1, 0): 3, (0, 2, 2, 0, 0, 1): QQ(1, 2)}
    a = TruncatedSeries(src, TruncationSpec(), terms)
    # z = 2u - pw + 1 (read), x carried, hbar dropped (0), sign (-1)^(xt) * -1
    got = a.regrade(tgt, spec, {"z": {"u": 2, "pw": -1, 1: 1}}, {"xt": 1}, -1)
    assert got == TruncatedSeries(tgt, spec, {(1, 0, 1, 2, 1, 0): 3, (0, 2, 2, 3, 0, 1): QQ(-1, 2)})
    assert got == naive_regrade(a, tgt, spec, {"z": {"u": 2, "pw": -1, 1: 1}}, {"xt": 1}, -1)
    with pytest.raises(SeriesError, match="drops hbar"):
        (a + TruncatedSeries.term(src, TruncationSpec(), {"hbar": 1})).regrade(tgt, spec)
    # a variable that only the parity reads is not dropped: (-1)^hbar
    b = a + TruncatedSeries.term(src, TruncationSpec(), {"hbar": 1, "u": 3}, 5)
    flat = VariableSet(hodge_count=2, has_u=True, pcount=2)
    got = b.regrade(flat, TruncationSpec(), parity={"hbar": 1})
    want = {(1, 0, 1, 1, 0): 3, (0, 2, 2, 0, 1): QQ(1, 2), (0, 0, 3, 0, 0): -5}
    assert got == TruncatedSeries(flat, TruncationSpec(), want)
    assert b.regrade(src, TruncationSpec()) == b  # the identity
    with pytest.raises(KeyError):
        a.regrade(tgt, spec, {"y": {"u": 1}})
    with pytest.raises(KeyError):
        a.regrade(tgt, spec, {"z": {"y": 1}})
    with pytest.raises(SeriesError, match="sign"):
        a.regrade(tgt, spec, sign=2)


# ---------------------------------------------------------------- properties

characters = st.integers(-4, 4)


def small_series(vars_, spec, max_terms=4):
    monos = st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 3)
    )
    return st.dictionaries(monos, characters, max_size=max_terms).map(
        lambda d: TruncatedSeries(vars_, spec, d)
    )


SPEC8 = TruncationSpec(u_max=5, x_total_max=4)


@settings(max_examples=40, deadline=None)
@given(small_series(XU, SPEC8), small_series(XU, SPEC8), small_series(XU, SPEC8))
def test_mul_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=30, deadline=None)
@given(small_series(XU, SPEC8))
def test_exp_log_inverse_pair(a):
    a = a - TruncatedSeries.constant(XU, SPEC8, a.constant_term())
    assert a.exp().log() == a


@settings(max_examples=30, deadline=None)
@given(small_series(XU, SPEC8), small_series(XU, SPEC8))
def test_log_multiplicative(a, b):
    a = a - TruncatedSeries.constant(XU, SPEC8, a.constant_term()) + TruncatedSeries.one(XU, SPEC8)
    b = b - TruncatedSeries.constant(XU, SPEC8, b.constant_term()) + TruncatedSeries.one(XU, SPEC8)
    assert (a * b).log() == a.log() + b.log()


# ------------------------------------- graded exp/log vs repeated products

XZ = VariableSet(hodge_count=1, has_u=True, has_z=True)
UZ = VariableSet(has_u=True, has_z=True)
HB = VariableSet(has_u=True, has_hbar=True)
HP = VariableSet(has_hbar=True, pcount=3)
PV = VariableSet(has_u=True, pcount=3)
hbar_p_monos = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))

# (variables, spec, monomial strategy) per case; every strategy yields
# monomials of positive weight, so exp and log are defined.
GRADED_CASES = {
    "x/u": (XU, SPEC8, st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))),
    # z counts toward the weight: every z-exponent is nonnegative
    "z-window": (
        XZ,
        TruncationSpec(u_max=3, x_total_max=3, z_window=(0, 5)),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    ),
    # the layouts below take the cut at the top field: u the bucket and z
    # the top field, or the p-weight the bucket and hbar the top field, as
    # in the direct route to the modular envelope
    "u/z": (UZ, TruncationSpec(u_max=4, z_window=(0, 6)), st.tuples(st.integers(0, 2), st.integers(0, 3))),
    "hbar+p": (HP, TruncationSpec(p_weight_max=5, hbar_window=(0, 6)), hbar_p_monos),
    "hbar+p, hbar window (0, 0)": (HP, TruncationSpec(p_weight_max=5, hbar_window=(0, 0)), hbar_p_monos),
    "hbar window": (
        HB,
        TruncationSpec(u_max=4, hbar_window=(0, 3)),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    ),
    "p-weight": (
        PV,
        TruncationSpec(u_max=3, p_weight_max=5),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
    ),
}


@st.composite
def graded_operand(draw, constant, coeffs=st.fractions(-3, 3, max_denominator=4)):
    """(case name, series with the given constant term and random other terms)."""
    name = draw(st.sampled_from(sorted(GRADED_CASES)))
    vars_, spec, monos = GRADED_CASES[name]
    terms = draw(st.dictionaries(monos, coeffs, max_size=5))
    origin = (0,) * vars_.nvars
    terms[origin] = constant
    return name, TruncatedSeries(vars_, spec, terms)


@settings(max_examples=60, deadline=None)
@given(graded_operand(0))
def test_graded_exp_matches_repeated_products(case):
    name, a = case
    assert a.exp() == naive_exp(a), name


@settings(max_examples=60, deadline=None)
@given(graded_operand(1))
def test_graded_log_matches_repeated_products(case):
    name, a = case
    assert a.log() == naive_log(a), name


@pytest.mark.parametrize("name", ["u/z", "hbar+p"])
def test_graded_cases_take_the_cut(name):
    vars_, spec, _monos = GRADED_CASES[name]
    assert _masks(vars_.layout, spec)[-1][2]


# a window (g, g) with g >= 1, which holds no monomial 1: on the cut path
# (hbar+p) and where settle() filters (x/u/z); one operand of a product lies
# under the case's wider window, so the product takes the meet
WINDOW_G_CASES = {
    "hbar+p": (HP, lambda g: TruncationSpec(p_weight_max=5, hbar_window=(g, g)), hbar_p_monos),
    "x/u/z": (
        XZ,
        lambda g: TruncationSpec(u_max=3, x_total_max=3, z_window=(g, g)),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3)),
    ),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(WINDOW_G_CASES)), st.integers(1, 2), st.data())
def test_mul_and_exp_under_a_window_without_zero(name, g, data):
    vars_, narrow, monos = WINDOW_G_CASES[name]
    wide = GRADED_CASES["hbar+p" if name == "hbar+p" else "z-window"][1]
    a, b = (
        TruncatedSeries(vars_, spec, data.draw(st.dictionaries(monos, mixed_rationals, max_size=6)))
        for spec in (wide, narrow(g))
    )
    assert a * b == naive_mul(a, b) and b * a == naive_mul(b, a), name
    assert (a * b).spec == narrow(g)
    # every square lies past the window, and 1 outside it: exp(b) is b
    assert b.exp() == b == naive_exp(b), name


# ------------------------- one-direction grading vs the summed references

XZP = VariableSet(hodge_count=2, has_z=True, pcount=3)
SPEC_U = TruncationSpec(u_max=5, x_total_max=6)
SPEC_XZP = TruncationSpec(x_total_max=3, z_window=(0, 6), p_weight_max=3)
u_positive = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 3))
# x1..x2, z, p1..p3 with p-weight >= 1, as in the argument of z_colors
p_positive = st.tuples(*[st.integers(0, 2)] * 3, *[st.integers(0, 1)] * 3).filter(
    lambda m: m[3] + 2 * m[4] + 3 * m[5] >= 1
)


@st.composite
def one_direction_operand(draw, constant):
    """(kind, series with the given constant term): every other monomial
    has u >= 1 ("u"); or some have u = 0 ("fallback"); or only multiples
    of l, as ``_raise_exponents`` gives ("raised"); or an x/z/p series
    whose p-weight, and sometimes x-total, is >= 1 everywhere ("xzp")."""
    kind = draw(st.sampled_from(["u", "fallback", "raised", "xzp"]))
    coeffs = st.fractions(-3, 3, max_denominator=4).filter(bool)
    vars_, spec, monos = (XZP, SPEC_XZP, p_positive) if kind == "xzp" else (XU, SPEC_U, u_positive)
    terms = draw(st.dictionaries(monos, coeffs, min_size=1, max_size=4))
    if kind == "fallback":
        terms[(draw(st.integers(1, 2)), 0, 0)] = draw(coeffs)
    f = TruncatedSeries(vars_, spec, terms)
    if kind == "raised":
        f = _raise_exponents(f, draw(st.integers(2, 3)))
    return kind, f + TruncatedSeries.constant(vars_, spec, constant)


@settings(max_examples=60, deadline=None)
@given(one_direction_operand(0))
def test_one_direction_exp_matches_repeated_products(case):
    kind, a = case
    assert a.exp() == naive_exp(a), kind


@settings(max_examples=60, deadline=None)
@given(one_direction_operand(1))
def test_one_direction_log_and_inverse_match_repeated_products(case):
    kind, a = case
    assert a.log() == naive_log(a), kind
    assert a.inverse() == naive_exp(-naive_log(a)), kind


def test_grades_take_one_direction_where_every_monomial_is_positive():
    u_only = TruncatedSeries(XU, SPEC_U, {(1, 0, 1): 1, (0, 0, 2): 3})
    assert u_only._grades() == ({1: [(u_only.vars.layout.pack((1, 0, 1)), 1)],
                                 2: [(u_only.vars.layout.pack((0, 0, 2)), 3)]}, 5)
    # a u-free monomial: the sum x-total + u, to x_total_max + u_max
    mixed = u_only + s({"x1": 1}, spec=SPEC_U)
    assert mixed._grades()[1] == 6 + 5
    # both directions positive: the smaller bound, x-total on a tie
    for x_total_max, top in ((3, 3), (5, 5), (9, 5)):
        spec = TruncationSpec(u_max=5, x_total_max=x_total_max)
        both = TruncatedSeries(XU, spec, {(1, 0, 1): 1, (0, 1, 2): 1})
        assert both._grades()[1] == top
    # every monomial of the z_colors argument has x-total, z and p-weight >= 1
    colors = TruncatedSeries(XZP, SPEC_XZP, {(1, 0, 1, 1, 0, 0): 1, (0, 2, 2, 0, 1, 0): 1})
    assert colors._grades()[1] == 3
    assert colors.exp() == naive_exp(colors)


def test_truncate_returns_the_series_when_the_spec_does_not_shrink():
    a = s({"x1": 2, "u": 1}, QQ(5, 3)) + s({"u": 6}) + s({"x1": 3, "x2": 4, "u": 2})
    assert a.truncate(a.spec) is a
    assert a.truncate(TruncationSpec(u_max=9, x_total_max=9)) is a
    assert a.truncate(TruncationSpec()) is a
    narrow, met = a.truncate(TruncationSpec(u_max=5)), TruncationSpec(u_max=5, x_total_max=7)
    assert narrow is not a and narrow.spec == met
    assert narrow == naive_sum(XU, met, [(1, a)]) and narrow.coeffs == {(2, 0, 1): QQ(5, 3), (3, 4, 2): 1}
    with pytest.raises(SeriesError, match="which has no z"):
        a.truncate(TruncationSpec(z_window=(1, 3)))


# ------------------------- integer-numerator kernel vs pair-by-pair QQ

# mixed, coprime and large denominators, with negative numerators
mixed_rationals = st.builds(
    QQ, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 9, 11, 97, 10**9 + 7])
)


def assert_canonical(series):
    """No stored zeros, and every coefficient a QQ (never a bare int)."""
    for mono, c in series.coeffs.items():
        assert isinstance(c, QQ), (mono, c)
        assert c != 0, mono


@st.composite
def graded_pair(draw):
    """(case name, two series of one case) with mixed-denominator coefficients."""
    name = draw(st.sampled_from(sorted(GRADED_CASES)))
    vars_, spec, monos = GRADED_CASES[name]
    a, b = (
        TruncatedSeries(vars_, spec, draw(st.dictionaries(monos, mixed_rationals, max_size=6)))
        for _ in range(2)
    )
    return name, a, b


@settings(max_examples=80, deadline=None)
@given(graded_pair())
def test_mul_mixed_denominators_matches_pairwise(case):
    name, a, b = case
    product = a * b
    assert product == naive_mul(a, b), name
    assert_canonical(product)


@settings(max_examples=60, deadline=None)
@given(graded_operand(0, mixed_rationals))
def test_exp_mixed_denominators_matches_repeated_products(case):
    name, a = case
    e = a.exp()
    assert e == naive_exp(a), name
    assert_canonical(e)


@settings(max_examples=60, deadline=None)
@given(graded_operand(1, mixed_rationals))
def test_log_mixed_denominators_matches_repeated_products(case):
    name, a = case
    lg = a.log()
    assert lg == naive_log(a), name
    assert_canonical(lg)


def test_kernel_stores_no_cancelled_terms():
    third, seventh = QQ(1, 3), QQ(1, 7)
    # one product: (1 + u/3)(1 - u/3) = 1 - u^2/9
    sq = (one() + s({"u": 1}, third)) * (one() - s({"u": 1}, third))
    assert sq == one() - s({"u": 2}, QQ(1, 9))
    # exp: g_2 = f_1 g_1 / 2 + f_2 (two products, over different
    # denominators) cancels for f = u/3 - u^2/18
    e = (s({"u": 1}, third) - s({"u": 2}, QQ(1, 18))).exp()
    assert (0, 0, 2) not in e.coeffs
    assert e == naive_exp(s({"u": 1}, third) - s({"u": 2}, QQ(1, 18)))
    # log of (1 + u/3)(1 + x1/7): every mixed monomial cancels across the
    # products of its grade
    lg = ((one() + s({"u": 1}, third)) * (one() + s({"x1": 1}, seventh))).log()
    assert all(m[0] == 0 or m[2] == 0 for m in lg.coeffs)
    assert lg == (one() + s({"u": 1}, third)).log() + (one() + s({"x1": 1}, seventh)).log()
    for series in (sq, e, lg):
        assert_canonical(series)


# ----------------------------- fraction-free linear sums vs scaled and +


def respec(spec, delta):
    """``spec`` with every bound moved outward by delta (inward when
    negative), no window end below 0."""
    def bound(b):
        return None if b is None else b + delta

    def window(w):
        return None if w is None else (max(w[0] - delta, 0), max(w[1] + delta, 0))

    return TruncationSpec(
        u_max=bound(spec.u_max),
        x_total_max=bound(spec.x_total_max),
        z_window=window(spec.z_window),
        hbar_window=window(spec.hbar_window),
        p_weight_max=bound(spec.p_weight_max),
    )


@st.composite
def linear_terms(draw):
    """(case name, variables, start spec, terms ``(c, a)`` or ``(c, a, b)``):
    mixed-denominator coefficients and operands over narrower, equal and
    wider specs than the start."""
    name = draw(st.sampled_from(sorted(GRADED_CASES)))
    vars_, spec, monos = GRADED_CASES[name]
    specs = [respec(spec, delta) for delta in (-1, 0, 1)]

    def operand():
        return TruncatedSeries(
            vars_,
            draw(st.sampled_from(specs)),
            draw(st.dictionaries(monos, mixed_rationals, max_size=5)),
        )

    terms = []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(mixed_rationals)
        terms.append((c, operand()) if draw(st.booleans()) else (c, operand(), operand()))
    return name, vars_, spec, terms


def linear_sum(vars_, spec, terms):
    acc = _LinearSum(vars_, spec)
    for c, *operands in terms:
        if len(operands) == 1:
            acc.add(c, *operands)
        else:
            acc.add_product(c, *operands)
    return acc.series()


def meet_of(spec, terms):
    for _c, *operands in terms:
        for a in operands:
            spec = spec.meet(a.spec)
    return spec


@settings(max_examples=80, deadline=None)
@given(linear_terms())
def test_linear_sum_matches_scaled_and_add(case):
    name, vars_, spec, terms = case
    total = linear_sum(vars_, spec, terms)
    assert total == naive_linear_sum(vars_, spec, terms), name
    assert total.spec == meet_of(spec, terms), name
    assert_canonical(total)


@settings(max_examples=60, deadline=None)
@given(linear_terms(), st.randoms(use_true_random=False))
def test_linear_sum_any_term_order(case, rng):
    # the terms settle over the lcm of their denominators, whatever their
    # order
    name, vars_, spec, terms = case
    shuffled = list(terms)
    rng.shuffle(shuffled)
    assert linear_sum(vars_, spec, shuffled) == naive_linear_sum(vars_, spec, terms), name


@settings(max_examples=60, deadline=None)
@given(linear_terms(), st.lists(mixed_rationals, min_size=5, max_size=5))
def test_linear_sum_cancels_to_zero(case, splits):
    # each term is taken back in two pieces over other denominators, the
    # products with their operands swapped
    name, vars_, spec, terms = case
    back = []
    for (c, *operands), r in zip(terms, splits):
        operands = operands[::-1]
        back += [(-c * r, *operands), (c * r - c, *operands)]
    total = linear_sum(vars_, spec, terms + back)
    assert total.coeffs == {}, name
    assert total.spec == meet_of(spec, terms), name


def test_linear_sum_rescales_to_the_lcm():
    a = s({"u": 1}) + s({"x1": 1, "u": 1}, QQ(2, 9))
    b = s({"u": 1}, QQ(5, 11)) + s({"u": 2})
    terms = [
        (QQ(1, 2), a),
        (QQ(-4, 3), a, b),  # 3 does not divide 2 * 9 ...
        (QQ(7, 10**9 + 7), b),  # ... nor 10^9 + 7 the lcm so far
        (QQ(-1, 97), b, b),
    ]
    total = linear_sum(XU, SPEC, terms)
    assert total == naive_linear_sum(XU, SPEC, terms)
    assert total.coefficient({"u": 1}) == QQ(1, 2) + QQ(7 * 5, (10**9 + 7) * 11)
    assert_canonical(total)


@settings(max_examples=80, deadline=None)
@given(
    linear_terms(),
    st.integers(0, 5),
    st.none() | st.integers(0, 2),
    st.booleans(),
)
def test_deferred_linear_sum_matches_naive(case, cancelled, overflow_at, free_start):
    # each term's denominator gains a prime no earlier term has, so the
    # common denominator grows at every term, up to the last; the first
    # ``cancelled`` terms are taken back, operands swapped; a product past
    # the storage limit in u (hbar where there is no u) goes in at
    # ``overflow_at``
    name, vars_, spec, terms = case
    primes = (5, 13, 17, 19, 23)
    terms = [(c / p, *operands) for (c, *operands), p in zip(terms, primes)]
    all_cancelled = cancelled >= len(terms)
    terms += [(-c, *operands[::-1]) for c, *operands in terms[:cancelled]]
    start = TruncationSpec() if free_start else spec
    expected = naive_linear_sum(vars_, start, terms)
    if overflow_at is None:
        total = linear_sum(vars_, start, terms)
        assert total == expected, name
        assert total.spec == meet_of(start, terms), name
        assert_canonical(total)
        if all_cancelled:
            assert total.is_zero(), name
        return
    limit = 1 << 21
    free = TruncationSpec()
    v = "u" if vars_.has_u else "hbar"
    big = TruncatedSeries.term(vars_, free, {v: limit - 1}, QQ(1, 29))
    step = TruncatedSeries.term(vars_, free, {v: 1})
    at = min(overflow_at, len(terms))
    with_overflow = terms[:at] + [(QQ(3, 31), big, step)] + terms[at:]
    # the pair is tested against the spec in force when it was added: it
    # raises where v is still unbounded there, and drops past a bound on v
    in_force = meet_of(start, terms[:at])
    if (in_force.u_max if v == "u" else in_force.hbar_window) is None:
        with pytest.raises(SeriesError, match="does not fit"):
            linear_sum(vars_, start, with_overflow)
    else:
        assert linear_sum(vars_, start, with_overflow) == expected, name


def test_linear_sum_overflow_raises_under_the_spec_of_its_call():
    # settled after a later term has bounded u, a product past the storage
    # limit still raises: u was unbounded when it was added
    limit = 1 << 21
    free = TruncationSpec()
    big = TruncatedSeries.term(XU, free, {"u": limit - 1})
    step = TruncatedSeries.term(XU, free, {"u": 1})
    acc = _LinearSum(XU, free)
    acc.add_product(QQ(3, 31), big, step)
    acc.add(1, s({"u": 1}))
    assert acc.spec == SPEC
    with pytest.raises(SeriesError, match="does not fit"):
        acc.series()
    # added after the bound, it is only truncated
    acc = _LinearSum(XU, free)
    acc.add(1, s({"u": 1}))
    acc.add_product(QQ(3, 31), big, step)
    assert acc.series() == s({"u": 1})


def test_linear_sum_settles_one_denominator():
    # the numerators summed so far are never rescaled: settle() puts every
    # term over the lcm of the recorded denominators at once
    a = s({"u": 1}, QQ(1, 4)) + s({"x1": 1, "u": 1}, QQ(2, 9))
    b = s({"u": 1}, QQ(5, 11)) + s({"u": 2})
    acc = _LinearSum(XU, SPEC)
    acc.add(QQ(1, 2), a)
    acc.add_product(QQ(-4, 3), a, b)
    acc.add(QQ(7, 13), b)
    den, nums = acc.settle()
    # 1/2 over a's 36, -4/3 over 36 * 11 (reduced to 1/297), 7/13 over b's 11
    assert den == lcm(72, 297, 143) == 30888
    want = naive_linear_sum(XU, SPEC, [(QQ(1, 2), a), (QQ(-4, 3), a, b), (QQ(7, 13), b)])
    assert {XU.layout.unpack(k): QQ(n, den) for k, n in nums.items() if n} == want.coeffs
    assert acc.series() == want


# ----------------------------- +, -, negation and scaled vs sums in QQ

scalars = st.sampled_from([0, 1, -1]) | st.integers(-50, 50) | mixed_rationals.filter(
    lambda q: q.denominator > 1
)


@st.composite
def spec_pair(draw):
    """(case name, a, b): two series of one case with mixed-denominator
    coefficients, each over a narrower, equal or wider spec than the case's."""
    name = draw(st.sampled_from(sorted(GRADED_CASES)))
    vars_, spec, monos = GRADED_CASES[name]
    specs = [respec(spec, delta) for delta in (-1, 0, 1)]
    a, b = (
        TruncatedSeries(
            vars_,
            draw(st.sampled_from(specs)),
            draw(st.dictionaries(monos, mixed_rationals, max_size=5)),
        )
        for _ in range(2)
    )
    return name, a, b


@settings(max_examples=80, deadline=None)
@given(spec_pair(), scalars)
def test_linear_ops_match_qq_sums(case, c):
    name, a, b = case
    d = a._ints[0]
    cases = [
        (a + b, [(1, a), (1, b)]),
        (a - b, [(1, a), (-1, b)]),
        (-a, [(-1, a)]),
        (a.scaled(c), [(c, a)]),
        (a.scaled(d), [(d, a)]),  # every denominator cancels
        (a - a, []),
        (a + (-a), []),
        (a.scaled(0), []),
    ]
    for got, terms in cases:
        want = naive_sum(a.vars, a.spec, terms)  # over the meet of the operands' specs
        assert got == want and got.spec == want.spec, name
        # the integer form is reduced: D is the lcm of the denominators
        den, items = got._ints
        assert den == lcm(1, *(q.denominator for q in want.coeffs.values())), name
        assert all(items.values()), name
        if not terms:
            assert (den, items) == (1, {}), name


def test_coeffs_is_read_only():
    a = s({"u": 1}, QQ(1, 3))
    with pytest.raises(TypeError):
        a.coeffs[(0, 0, 1)] = 5
    with pytest.raises(TypeError):
        del a.coeffs[(0, 0, 1)]
    assert a.coeffs == {(0, 0, 1): QQ(1, 3)}


def test_naive_references_run_no_linear_sum(monkeypatch):
    # the references check +, -, scaled and _LinearSum, so they sum in QQ
    # and never settle a linear sum
    narrow = respec(SPEC, -1)
    a = TruncatedSeries(XU, SPEC, {(1, 0, 1): QQ(1, 3), (0, 0, 2): -2, (0, 0, 6): 4})
    b = TruncatedSeries(XU, narrow, {(0, 0, 2): 2, (0, 1, 0): QQ(5, 7)})
    terms = [(QQ(1, 2), a), (3, b), (-1, a)]
    g = TruncatedSeries(XU, narrow, {(0, 0, 0): 1, (0, 0, 2): 2, (0, 1, 0): QQ(5, 7)})

    def refuse(self):
        raise AssertionError("a reference settled a _LinearSum")

    monkeypatch.setattr(_LinearSum, "settle", refuse)
    total = naive_linear_sum(XU, SPEC, terms)
    e = naive_exp(a)
    lg = naive_log(g)
    monkeypatch.undo()
    # -a/2 + 3b over the meet, where u^6 lies past u_max = 5
    assert total == TruncatedSeries(
        XU, narrow, {(1, 0, 1): QQ(-1, 6), (0, 0, 2): 7, (0, 1, 0): QQ(15, 7)}
    )
    assert total == linear_sum(XU, SPEC, terms)
    assert e == a.exp() and lg == g.log()


# ------------------------- results kept as integer numerators until read


def assert_lazy_matches(result, reference):
    """``result`` has not folded its coefficients, and neither its constant
    term nor its zero test folds them; both agree with the eagerly built
    ``reference``, as do ``==``, ``hash`` and the coefficients once read,
    every one a reduced, nonzero ``QQ``."""
    assert result._coeffs is None
    assert result.constant_term() == reference.constant_term()
    assert result.is_zero() == reference.is_zero()
    assert result._coeffs is None
    assert result == reference
    assert hash(result) == hash(reference)
    for mono, c in result.coeffs.items():
        assert isinstance(c, QQ) and c != 0, (mono, c)
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1, (mono, c)


@settings(max_examples=60, deadline=None)
@given(graded_pair())
def test_lazy_mul(case):
    _name, a, b = case
    assert_lazy_matches(a * b, naive_mul(a, b))


@settings(max_examples=40, deadline=None)
@given(graded_operand(0, mixed_rationals))
def test_lazy_exp(case):
    _name, a = case
    assert_lazy_matches(a.exp(), naive_exp(a))


@settings(max_examples=40, deadline=None)
@given(graded_operand(1, mixed_rationals))
def test_lazy_log(case):
    _name, a = case
    assert_lazy_matches(a.log(), naive_log(a))


@settings(max_examples=40, deadline=None)
@given(graded_operand(1, mixed_rationals))
def test_lazy_inverse(case):
    # 1/a = exp(-log a) in the truncated ring
    _name, a = case
    assert_lazy_matches(a.inverse(), naive_exp(-naive_log(a)))


def test_lazy_substitute():
    f = (
        s({"x1": 2, "u": 1}, QQ(5, 3))
        + s({"x2": 1}, QQ(-2, 9))
        + s({"x1": 1, "u": 2}, 4)
        + one()
    )
    repls = {"x1": s({"x1": 1}) + s({"u": 1}, QQ(1, 3)), "u": s({"u": 1}) + s({"u": 2}, QQ(5, 7))}
    assert_lazy_matches(f.substitute(repls), naive_substitute(f, repls))
    # a replacement sent through the integer form (a product) is read back exactly
    repls["x1"] = repls["x1"] * repls["u"]
    assert_lazy_matches(f.substitute(repls), naive_substitute(f, repls))


@settings(max_examples=40, deadline=None)
@given(linear_terms())
def test_lazy_linear_sum_cancels_to_zero(case):
    name, vars_, spec, terms = case
    back = [(-c, *operands[::-1]) for c, *operands in terms]
    total = linear_sum(vars_, spec, terms + back)
    assert_lazy_matches(total, naive_linear_sum(vars_, spec, terms + back))
    assert total.is_zero() and total._ints == (1, {}), name


@settings(max_examples=60, deadline=None)
@given(linear_terms())
def test_lazy_linear_sum_mixed_specs(case):
    name, vars_, spec, terms = case
    total = linear_sum(vars_, spec, terms)
    assert_lazy_matches(total, naive_linear_sum(vars_, spec, terms))
    metric = total.vars.layout.metric
    assert not any(_outside(total.spec, metric(k)) for k in total._ints[1]), name


def test_lazy_linear_sum_drops_out_of_spec_monomials():
    wide = TruncationSpec(u_max=8, x_total_max=7)
    a = TruncatedSeries(XU, wide, {(0, 0, 7): QQ(1, 3), (0, 0, 5): 2, (1, 0, 8): 1})
    b = TruncatedSeries(XU, wide, {(0, 0, 1): QQ(1, 5)})
    acc = _LinearSum(XU, SPEC)
    acc.add(QQ(1, 2), a)
    acc.add_product(3, a, b)
    total = acc.series()
    # u^7, u^8 and x1 u^8 lie past SPEC's u_max = 6; u^5 and u^6 stay
    assert [XU.layout.unpack(k) for k in total._ints[1]] == [(0, 0, 5), (0, 0, 6)]
    assert total.spec == SPEC
    assert total.coeffs == {(0, 0, 5): 1, (0, 0, 6): QQ(6, 5)}


def test_mul_builds_no_qq_until_read(monkeypatch):
    a = s({"x1": 1}, QQ(1, 3)) + s({"u": 1}, QQ(2, 7)) + one()
    b = s({"x2": 1, "u": 1}, QQ(5, 11)) + s({"u": 2}, QQ(-1, 2)) + one()
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    product = a * b * a
    assert not product.is_zero()
    assert built == []
    coeffs = product.coeffs  # one QQ per monomial, folded once
    assert len(built) == len(coeffs)
    assert product.coeffs is coeffs and len(built) == len(coeffs)
    monkeypatch.undo()
    assert product == naive_mul(naive_mul(a, b), a)


def test_series_from_terms_build_no_qq(monkeypatch):
    from linkchi.genfun import LinkConfig, color_power_sum
    from linkchi.special import _f_series, f_poly

    f_poly(6)  # its QQ coefficients are built once, and cached
    spec4 = TruncationSpec(u_max=4, x_total_max=7)
    cfg = LinkConfig.create((1, 2), 4)
    dims_vars = VariableSet(hodge_count=2, has_u=True, has_z=True)
    dims_spec = TruncationSpec(u_max=4, x_total_max=5, z_window=(0, 9))
    hv = VariableSet(has_u=True, has_hbar=True)
    hv_spec = TruncationSpec(u_max=4, hbar_window=(0, 3))
    a = TruncatedSeries(hv, hv_spec, {(1, 0): QQ(1, 3), (2, 1): 5, (0, 2): QQ(-2, 7)})
    b = TruncatedSeries(hv, TruncationSpec(u_max=3), {(1, 0): QQ(2, 3), (3, 1): 1})
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    made = [
        one(),
        TruncatedSeries.constant(XU, SPEC, -3),
        s({"x1": 2, "u": 1}, 5),
        color_power_sum(cfg, XU, SPEC, 3, "euler"),
        color_power_sum(cfg, dims_vars, dims_spec, 2, "dims"),
        _f_series(XU, spec4, "u", 6),
    ]
    linear = [
        a + b,
        a - b,
        -a,
        a.scaled(3),
        TruncatedSeries.zero(hv, hv_spec),
        a.grade_extract("hbar", 1),
    ]
    hbars = a.exponents_of("hbar")
    assert built == [] and all(m._coeffs is None for m in made + linear + [a, b])
    monkeypatch.undo()
    assert hbars == {0, 1, 2}
    assert linear == [
        naive_sum(hv, hv_spec, [(1, a), (1, b)]),
        naive_sum(hv, hv_spec, [(1, a), (-1, b)]),
        naive_sum(hv, hv_spec, [(-1, a)]),
        naive_sum(hv, hv_spec, [(3, a)]),
        TruncatedSeries(hv, hv_spec),
        TruncatedSeries(hv, hv_spec, {(2, 0): 5}),
    ]
    assert made[0] == TruncatedSeries(XU, SPEC, {(0, 0, 0): 1})
    assert made[1] == TruncatedSeries(XU, SPEC, {(0, 0, 0): -3})
    assert made[2] == TruncatedSeries(XU, SPEC, {(2, 0, 1): 5})
    # sum_i (-1)^(m_i) x_i^3, and sum_i (-1)^(m_i) x_i^2, z^(-2 m_i) moved onto x_i
    assert made[3] == TruncatedSeries(XU, SPEC, {(3, 0, 0): -1, (0, 3, 0): 1})
    assert made[4] == TruncatedSeries(dims_vars, dims_spec, {(2, 0, 0, 0): -1, (0, 2, 0, 0): 1})
    # F_6(u) = 1 - u^3 - u^4 + u^5, cut at u^4
    assert made[5] == TruncatedSeries(XU, spec4, {(0, 0, 0): 1, (0, 0, 3): -1, (0, 0, 4): -1})
    # the constructor's checks hold: a negative x exponent raises
    with pytest.raises(SeriesError, match="no exponent may go below 0"):
        color_power_sum(cfg, dims_vars, dims_spec, -1, "euler")


def test_regrade_builds_no_qq(monkeypatch):
    a = s({"x1": 1}, QQ(1, 3)) + s({"u": 1}, QQ(2, 7)) + one()
    product = a * a
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    swapped = product.regrade(XU, SPEC, {"x1": {"x2": 1}, "x2": {"x1": 1}}, sign=-1)
    assert not swapped.is_zero()
    assert built == []
    monkeypatch.undo()
    assert swapped == TruncatedSeries(
        XU, SPEC, {(m[1], m[0], m[2]): -c for m, c in naive_mul(a, a).coeffs.items()}
    )


def test_buckets_built_once_per_right_operand(monkeypatch):
    from linkchi import series as series_mod

    calls = []
    real = series_mod._bucketed

    def counting(shift, items):
        calls.append(shift)
        return real(shift, items)

    monkeypatch.setattr(series_mod, "_bucketed", counting)
    a = s({"x1": 1}, QQ(1, 3)) + one()
    b = s({"x2": 1, "u": 1}, QQ(5, 11)) + s({"u": 2}, QQ(-1, 2)) + s({"x1": 2}) + one()
    acc = _LinearSum(XU, SPEC)
    for c in (1, QQ(2, 3), -5):
        acc.add_product(c, a, b)
    acc.add_product(1, b, a)  # the larger operand is bucketed, either side
    assert a * b == naive_mul(a, b)
    assert len(calls) == 1
    # a product that buckets on another field builds them anew
    calls.clear()
    pw_only = TruncationSpec(p_weight_max=4)
    wide = TruncatedSeries(
        PV, pw_only, {(k, p, q, 0): k + 1 for k in range(3) for p in range(3) for q in range(2)}
    )
    for left_spec in (pw_only, TruncationSpec(u_max=2, p_weight_max=4)):
        left = TruncatedSeries(PV, left_spec, {(1, 1, 0, 0): 1})
        assert left * wide == naive_mul(left, wide)
    assert calls == [PV.layout.shift["pw"], PV.layout.shift["u"]]
    monkeypatch.undo()
    assert acc.series() == naive_mul(a, b).scaled(QQ(-7, 3))


# ------------------------------- negative exponents and the packed key


BELOW_0 = "no exponent may go below 0"


def test_negative_exponent_raises():
    spec = TruncationSpec(u_max=3, x_total_max=3)
    with pytest.raises(SeriesError, match=BELOW_0):
        TruncatedSeries.term(XU, spec, {"u": -1}, 5)  # was the zero series
    with pytest.raises(SeriesError, match=BELOW_0):
        TruncatedSeries.term(XU, TruncationSpec(x_total_max=3), {"u": -1})  # was kept
    with pytest.raises(SeriesError, match=BELOW_0):
        TruncatedSeries(XU, spec, {(2, -1, 1): 1})
    with pytest.raises(SeriesError, match=BELOW_0):
        TruncatedSeries.term(PV, TruncationSpec(u_max=3), {"p2": -1})
    # z and hbar too, under a window or none
    for vars_, spec, exponents in [
        (HB, TruncationSpec(u_max=3, hbar_window=(0, 2)), {"u": 1, "hbar": -1}),
        (HB, TruncationSpec(u_max=3), {"hbar": -2}),
        (XZ, TruncationSpec(u_max=3, z_window=(0, 4)), {"x1": 1, "z": -1}),
    ]:
        with pytest.raises(SeriesError, match=BELOW_0):
            TruncatedSeries.term(vars_, spec, exponents)
    # a regraded negative exponent: below the lower bounds where the spec
    # bounds its direction, else below 0
    with pytest.raises(SeriesError, match=BELOW_0):
        s({"x1": 1}).regrade(XU, TruncationSpec(u_max=6), {"x1": {"x1": 1, 1: -2}})
    with pytest.raises(SeriesError, match="lies below the lower bounds"):
        s({"x1": 1}).regrade(XU, SPEC, {"x1": {"x1": 1, 1: -2}})
    u_term = TruncatedSeries.term(HB, TruncationSpec(u_max=3), {"u": 1})
    with pytest.raises(SeriesError, match=BELOW_0):
        u_term.regrade(HB, TruncationSpec(u_max=3), {"hbar": {1: -1}})
    with pytest.raises(SeriesError, match="lies below the lower bounds"):
        u_term.regrade(HB, TruncationSpec(u_max=3, hbar_window=(0, 2)), {"hbar": {1: -1}})
    with pytest.raises(OutOfBoundsError):
        one().coefficient({"u": -1})
    with pytest.raises(OutOfBoundsError):
        TruncatedSeries.term(HB, TruncationSpec(u_max=3), {"u": 1}).coefficient({"hbar": -1})


def test_negative_windows_and_exponents_raise_where_they_are_built():
    # a negative exponent let a truncated product depend on its grouping:
    # each case below raises where the exponent or window is built
    for window in ((-1, 1), (-3, -1), (0, -1)):
        for name in ("z_window", "hbar_window"):
            with pytest.raises(SeriesError, match="must lie in the exponents >= 0"):
                TruncationSpec(u_max=4, **{name: window})
    # exp(u/hbar + u^2*hbar), whose u^4/hbar coefficient hung on the grouping
    with pytest.raises(SeriesError, match=BELOW_0):
        TruncatedSeries(HB, TruncationSpec(u_max=4, hbar_window=(0, 1)), {(1, -1): 1, (2, 1): 1})
    # u/hbar under hbar_window=(0, 2), below the window
    with pytest.raises(SeriesError, match=BELOW_0):
        TruncatedSeries.term(HB, TruncationSpec(u_max=3, hbar_window=(0, 2)), {"u": 1, "hbar": -1})
    # p1 <- x1/z + x1*u/3, whose substitution hung on where a carried z^2 multiplied
    with pytest.raises(SeriesError, match=BELOW_0):
        TruncatedSeries(
            XZ,
            TruncationSpec(u_max=4, x_total_max=4, z_window=(0, 2)),
            {(1, 0, -1): 1, (1, 1, 0): QQ(1, 3)},
        )


def test_exponent_past_the_field_raises():
    limit = 1 << 21
    free = TruncationSpec()
    for vars_, name, e in [
        (XU, "u", limit),
        (XU, "x1", limit),
        (XZ, "z", limit),
        (HB, "hbar", limit),
        (PV, "p3", limit),
    ]:
        with pytest.raises(SeriesError, match="does not fit"):
            TruncatedSeries.term(vars_, free, {name: e})
        TruncatedSeries.term(vars_, free, {name: (limit - 1) // 3})
    # x-total and p-weight are fields too
    with pytest.raises(SeriesError, match="does not fit"):
        TruncatedSeries.term(XU, free, {"x1": limit // 2, "x2": limit // 2})
    with pytest.raises(SeriesError, match="does not fit"):
        TruncatedSeries.term(PV, free, {"p2": limit // 2})
    # a product past the field in an unbounded direction raises, never wraps
    big = TruncatedSeries.term(XU, free, {"u": limit - 1})
    with pytest.raises(SeriesError, match="does not fit"):
        big * TruncatedSeries.term(XU, free, {"u": 1})
    with pytest.raises(SeriesError, match="does not fit"):
        big.regrade(XU, free, {"u": {"u": 1, 1: 1}})
    # past a bound of the spec, the same product is only truncated
    bounded = TruncationSpec(u_max=limit - 1)
    assert (big * TruncatedSeries.term(XU, bounded, {"u": 1})).is_zero()


LAYOUT_VARS = st.builds(
    VariableSet,
    hodge_count=st.integers(0, 3),
    has_u=st.booleans(),
    has_z=st.booleans(),
    has_hbar=st.booleans(),
    pcount=st.integers(0, 3),
)


def monomial(vars_, high=6):
    return st.tuples(*(st.integers(0, high) for _name in vars_.names))


def random_spec():
    bound = st.none() | st.integers(0, 12)
    window = st.none() | st.tuples(st.integers(0, 4), st.integers(0, 12))
    return st.builds(
        TruncationSpec,
        u_max=bound,
        x_total_max=bound,
        z_window=window,
        hbar_window=window,
        p_weight_max=bound,
    )


def tuple_metric(vars_, mono):
    """(x_total, u, z, hbar, p_weight) of an exponent tuple, 0 where missing."""
    e = dict(zip(vars_.names, mono))
    x_total = sum(e[f"x{i + 1}"] for i in range(vars_.hodge_count))
    p_weight = sum((l + 1) * e[f"p{l + 1}"] for l in range(vars_.pcount))
    return x_total, e.get("u", 0), e.get("z", 0), e.get("hbar", 0), p_weight


@st.composite
def packed_case(draw):
    vars_ = draw(LAYOUT_VARS)
    a, b = draw(monomial(vars_)), draw(monomial(vars_))
    spec = draw(random_spec())
    if draw(st.booleans()):  # a mixed-spec meet
        spec = spec.meet(draw(random_spec()))
    return vars_, a, b, spec


@settings(max_examples=300, deadline=None)
@given(packed_case())
def test_packed_key_round_trip_and_products(case):
    vars_, a, b, _spec = case
    layout = vars_.layout
    ka, kb = layout.key(a), layout.key(b)
    assert layout.unpack(ka) == a
    total = tuple(x + y for x, y in zip(a, b))
    assert layout.unpack(ka + kb) == total
    assert ka + kb == layout.key(total)
    assert layout.metric(ka) == tuple_metric(vars_, a)
    assert layout.key((0,) * vars_.nvars) == 0


@settings(max_examples=400, deadline=None)
@given(packed_case(), st.integers(1, 4))
def test_guard_test_matches_outside(case, l):
    vars_, a, b, spec = case
    layout = vars_.layout
    key = layout.key(a) + layout.key(b)
    total = tuple(x + y for x, y in zip(a, b))
    # a product key passes the one guard-bit test exactly when its monomial
    # lies inside the spec
    assert _passes(_masks(layout, spec), key) == (_outside(spec, tuple_metric(vars_, total)) == 0)
    # and a stored key passes the test with the bounds divided by l exactly
    # when raising its monomial to the l-th power stays inside the spec
    raised = tuple(l * e for e in a)
    assert _passes(_masks(layout, spec, l), layout.key(a)) == (
        _outside(spec, tuple_metric(vars_, raised)) == 0
    )


# ------------------- the pair loop: cut at the top field, filter at settle

def takes_the_cut(vars_) -> bool:
    """Whether every direction of ``vars_`` is the bucket field (u, or the
    p-weight without u) or the top field (hbar, z, p-weight, x-total, u,
    the first present): the layouts where the cut is exact once every field
    is bounded."""
    present = [
        d
        for d, here in (
            ("u", vars_.has_u),
            ("xt", vars_.hodge_count),
            ("pw", vars_.pcount),
            ("z", vars_.has_z),
            ("hbar", vars_.has_hbar),
        )
        if here
    ]
    return not present or set(present) <= {"u" if vars_.has_u else "pw", present[-1]}


CUT_VARS = LAYOUT_VARS.filter(takes_the_cut)


def bounded_spec():
    cap = st.integers(0, 12)
    window = st.tuples(st.just(0), cap)
    return st.builds(
        TruncationSpec,
        u_max=cap,
        x_total_max=cap,
        z_window=window,
        hbar_window=window,
        p_weight_max=cap,
    )


def holds_monomials(vars_, spec) -> bool:
    """False when ``spec`` sets a z or hbar window without 0 on a direction
    ``vars_`` lacks, so that the constructor refuses it."""
    return all(
        w is None or w[0] <= 0 <= w[1] or name in vars_.names
        for name, w in (("z", spec.z_window), ("hbar", spec.hbar_window))
    )


@st.composite
def mul_case(draw):
    """Two series of one layout, each under its own spec, with ``LAYOUT_VARS
    x random_spec()`` or, half the time, a layout and specs of the cut."""
    cut = draw(st.booleans())
    vars_ = draw(CUT_VARS if cut else LAYOUT_VARS)
    series = []
    for _ in range(2):
        spec = draw(bounded_spec() if cut else random_spec())
        assume(holds_monomials(vars_, spec))
        terms = draw(st.dictionaries(monomial(vars_), mixed_rationals, max_size=6))
        series.append(TruncatedSeries(vars_, spec, terms))
    return series


@settings(max_examples=300, deadline=None)
@given(mul_case())
def test_mul_matches_pairwise_on_every_layout(case):
    # exact and filtered products, on layouts GRADED_CASES lacks: u only, p only,
    # x only, x with p, and the empty layout
    a, b = case
    product = a * b
    assert product == naive_mul(a, b)
    assert_canonical(product)


@pytest.mark.parametrize(
    "vars_, cut",
    [
        (VariableSet(), True),  # no field: the one key 0, at room 1
        (VariableSet(has_u=True), True),
        (VariableSet(pcount=2), True),
        (VariableSet(hodge_count=2), True),
        (VariableSet(hodge_count=2, has_u=True), True),
        (VariableSet(has_u=True, pcount=2), True),
        (VariableSet(hodge_count=2, pcount=2), False),  # x-total and p-weight
        (VariableSet(hodge_count=2, has_u=True, pcount=2), False),
        (VariableSet(hodge_count=2, has_u=True, has_hbar=True), False),
        (VariableSet(hodge_count=2, has_u=True, has_z=True), False),
        (VariableSet(has_z=True, has_hbar=True), False),
        (VariableSet(has_u=True, has_z=True), True),  # u the bucket, z the top field
        (VariableSet(has_hbar=True, pcount=2), True),  # p-weight the bucket, hbar the top
    ],
)
def test_cut_applies_where_two_fields_decide_the_bound(vars_, cut):
    caps = {"u_max": 5, "x_total_max": 5, "z_window": (0, 5), "hbar_window": (0, 5), "p_weight_max": 5}
    bounded = TruncationSpec(**caps)
    assert _masks(vars_.layout, bounded)[-1][2] == cut
    # a direction bounded only by storage leaves the cut inexact
    for free, name in (
        ("u_max", "u"),
        ("x_total_max", "x1"),
        ("p_weight_max", "p1"),
        ("z_window", "z"),
        ("hbar_window", "hbar"),
    ):
        if name in vars_.names:
            assert not _masks(vars_.layout, TruncationSpec(**{**caps, free: None}))[-1][2]


def pair_kept(vars_, spec, a, b) -> bool:
    """Whether the pair loop keeps the product of the monomials a and b."""
    layout = vars_.layout
    acc = _LinearSum(vars_, spec)
    right = _bucketed(_bucket_field(layout, spec)[0], [(layout.key(b), 1)])
    acc.add_pairs(1, 1, [(layout.key(a), 1)], right)
    return bool(acc.settle()[1])


@settings(max_examples=400, deadline=None)
@given(CUT_VARS.flatmap(lambda v: st.tuples(st.just(v), monomial(v), monomial(v))), bounded_spec())
def test_cut_keeps_a_pair_iff_it_lies_in_the_spec(case, spec):
    vars_, a, b = case
    # the cut alone decides: settle() filters nothing after an exact product
    assert _masks(vars_.layout, spec)[-1][2]
    total = tuple(x + y for x, y in zip(a, b))
    inside = _outside(spec, tuple_metric(vars_, total)) == 0
    assert pair_kept(vars_, spec, a, b) == inside


@pytest.mark.parametrize(
    "vars_, spec, name",
    [
        (XU, SPEC, "x1"),  # the x-total is the top field, u the bucket
        (VariableSet(hodge_count=2), TruncationSpec(x_total_max=7), "x2"),
        (VariableSet(has_u=True, pcount=2), TruncationSpec(u_max=6, p_weight_max=7), "p1"),
        (VariableSet(pcount=2), TruncationSpec(p_weight_max=7), "p1"),
        (VariableSet(has_u=True, has_z=True), TruncationSpec(u_max=6, z_window=(0, 7)), "z"),
        (VariableSet(has_hbar=True, pcount=2), TruncationSpec(p_weight_max=9, hbar_window=(0, 7)), "hbar"),
    ],
)
def test_cut_at_and_one_past_the_cap(vars_, spec, name):
    # a bucket of the right operand holds terms at, below and past the top
    # bound's room: a product exactly at the x-total or p-weight cap is
    # kept and one past it is dropped, for an off-by-one limit fails here
    layout = vars_.layout
    assert _masks(layout, spec)[-1][2]
    cap = 7
    a = TruncatedSeries(vars_, spec, {vars_.monomial({name: e}): e + 1 for e in range(4)})
    b = TruncatedSeries(vars_, spec, {vars_.monomial({name: e}): 2 * e - 3 for e in range(8)})
    product = a * b
    assert product == naive_mul(a, b)
    at_cap = {name: cap}
    assert product.coefficient(at_cap) == sum((e + 1) * (2 * (cap - e) - 3) for e in range(4))
    with pytest.raises(OutOfBoundsError):
        product.coefficient({name: cap + 1})
    assert pair_kept(vars_, spec, vars_.monomial({name: 3}), vars_.monomial({name: cap - 3}))
    assert not pair_kept(vars_, spec, vars_.monomial({name: 3}), vars_.monomial({name: cap - 2}))
    # a left key already past the cap (an operand of a wider spec) times 1
    assert not pair_kept(vars_, spec, vars_.monomial({name: cap + 1}), vars_.monomial({}))
    # the bucket field bounds the pair too
    if "u" in vars_.names:
        u_cap = spec.u_max
        x = vars_.monomial({name: 1, "u": 2})
        assert pair_kept(vars_, spec, x, vars_.monomial({"u": u_cap - 2}))
        assert not pair_kept(vars_, spec, x, vars_.monomial({"u": u_cap - 1}))


@settings(max_examples=300, deadline=None)
@given(
    LAYOUT_VARS.flatmap(
        lambda v: st.tuples(
            st.just(v), st.dictionaries(monomial(v), st.integers(-3, 3), max_size=4)
        )
    ),
    random_spec(),
    st.integers(1, 4),
)
def test_raise_exponents_matches_raising_each_monomial(case, spec, l):
    # the plethystic transforms raise whole series
    vars_, coeffs = case
    missing = [
        name
        for name, w in (("z", spec.z_window), ("hbar", spec.hbar_window))
        if w is not None and not w[0] <= 0 <= w[1] and name not in vars_.names
    ]
    if missing:  # the spec holds no monomial of vars_
        with pytest.raises(SeriesError, match=f"which has no {missing[0]}"):
            TruncatedSeries(vars_, spec, coeffs)
        return
    series = TruncatedSeries(vars_, spec, coeffs)
    kept = {}
    for mono, c in series.coeffs.items():
        raised = tuple(l * e for e in mono)
        where = _outside(spec, tuple_metric(vars_, raised))
        assert where >= 0  # l e >= e, so nothing lands below a window
        if where == 0:
            kept[raised] = c
    assert _raise_exponents(series, l) == TruncatedSeries(vars_, spec, kept)


# -------------------------- one reading of the spec: windows and climbing


def field_meet(a, b):
    """The meet of two specs, written field by field."""

    def cap(x, y):
        return y if x is None else x if y is None else min(x, y)

    def window(x, y):
        return y if x is None else x if y is None else (max(x[0], y[0]), min(x[1], y[1]))

    return TruncationSpec(
        u_max=cap(a.u_max, b.u_max),
        x_total_max=cap(a.x_total_max, b.x_total_max),
        z_window=window(a.z_window, b.z_window),
        hbar_window=window(a.hbar_window, b.hbar_window),
        p_weight_max=cap(a.p_weight_max, b.p_weight_max),
    )


@settings(max_examples=300, deadline=None)
@given(random_spec(), random_spec())
def test_meet_matches_field_by_field(a, b):
    assert a.meet(b) == field_meet(a, b)
    assert a.meet(TruncationSpec()) == TruncationSpec().meet(a) == a


def test_windows_follow_the_metric_order():
    vars_ = VariableSet(hodge_count=1, has_u=True, has_z=True, has_hbar=True, pcount=1)
    layout = vars_.layout
    for field, name in [
        ("x_total_max", "x1"),
        ("u_max", "u"),
        ("z_window", "z"),
        ("hbar_window", "hbar"),
        ("p_weight_max", "p1"),
    ]:
        windows = TruncationSpec(**{field: (0, 5) if "window" in field else 5}).windows
        metric = layout.metric(layout.key(vars_.monomial({name: 1})))
        assert [w is not None for w in windows] == [e == 1 for e in metric], field
        assert windows[metric.index(1)][1] == 5, field


def test_window_on_a_missing_direction_changes_no_exp_or_log():
    # XU has no z or hbar: a window there bounds nothing the series climbs in
    f = s({"u": 1}) + s({"x1": 1, "u": 1}, 3) + s({"x2": 2}, QQ(1, 2))
    wide = f.truncate(TruncationSpec(z_window=(0, 3), hbar_window=(0, 9)))
    assert wide.spec != f.spec and wide == f
    assert wide.exp() == f.exp()
    assert (wide + one()).log() == (f + one()).log()


# ------------------------------------ text form from the integer form


@settings(max_examples=150, deadline=None)
@given(
    LAYOUT_VARS.flatmap(
        lambda v: st.tuples(
            st.just(v),
            st.dictionaries(monomial(v, high=3), st.integers(-40, 40), max_size=6),
        )
    ),
    st.sampled_from([1, 2, 6, 9, 35]),
)
def test_to_text_matches_qq_renderer(case, den):
    # numerators over a common denominator, many not reduced against it:
    # den > 1, negative numerators, +-1 coefficients, the constant term,
    # p-variables, z and hbar
    vars_, numerators = case
    spec = TruncationSpec()
    layout = vars_.layout
    items = {layout.key(m): n for m, n in numerators.items() if n}
    series = TruncatedSeries._from_ints(vars_, spec, den, items)
    assert series.to_text() == naive_to_text(series)
    # a series built from coefficients renders the same
    assert TruncatedSeries(vars_, spec, series.coeffs).to_text() == naive_to_text(series)


def test_to_text_reduces_each_coefficient():
    pv = VariableSet(hodge_count=1, has_u=True, pcount=2)
    layout = pv.layout
    items = {
        layout.key((0, 0, 0, 0)): 6,  # the constant 1
        layout.key((1, 0, 0, 0)): -6,  # -x1
        layout.key((0, 1, 0, 0)): 3,  # 1/2
        layout.key((0, 0, 0, 1)): -4,  # -2/3, p2 at grade 2
        layout.key((0, 0, 2, 0)): 1,  # 1/6
        layout.key((1, 1, 0, 0)): 12,  # 2
    }
    series = TruncatedSeries._from_ints(pv, TruncationSpec(), 6, items)
    text = "1 + 1/2*u + -x1 + -2/3*p2 + 1/6*p1^2 + 2*x1*u"
    assert series.to_text() == naive_to_text(series) == text
