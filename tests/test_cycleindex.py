from __future__ import annotations

import pytest

from linkchi.cycleindex import (
    dihedral_permutation,
    feynman_regrade,
    hedgehog_symmetry_sign,
    induced_cycle_index,
    mod_envelope_supercharacter,
    mod_envelope_supercharacter_direct,
    specialize_colors,
    z_colors,
    z_com,
    z_graph_supercharacter,
    z_hedgehog_homology,
    z_lie_cyclic,
    z_tree_homology,
)
from linkchi.genfun import (
    LinkConfig,
    color_power_sum,
    f_homotopy_direct,
    genus0_closed,
    genus0_dims,
    genus1_dims,
)
from linkchi.rationals import QQ
from linkchi.series import OutOfBoundsError, TruncatedSeries

from naive_series import naive_substitute


def test_z_com_small_weights():
    z = z_com(3)
    assert z.coefficient({"p1": 1}) == 1
    assert z.coefficient({"p1": 2}) == QQ(1, 2)
    assert z.coefficient({"p2": 1}) == QQ(1, 2)
    assert z.coefficient({"p3": 1}) == QQ(1, 3)
    assert z.coefficient({"p1": 1, "p2": 1}) == QQ(1, 2)


def test_z_com_dimensions_all_one():
    # p1 <- x EGF of Com: sum x^k / k!
    z = z_com(6)
    fact = 1
    for k in range(1, 7):
        fact *= k
        assert z.coefficient({"p1": k}) == QQ(1, fact)


def test_z_lie_cyclic_dimensions():
    z = z_lie_cyclic(8)
    assert z.coefficient({"p1": 1}) == 0  # arity-one convention: zero
    for k in range(2, 9):
        assert z.coefficient({"p1": k}) == QQ(1, k * (k - 1)), k


def test_z_colors_weight_two_parts():
    odd = z_colors(LinkConfig.create((1,), 3), 2)
    assert odd.coefficient({"p1": 2, "x1": 2, "z": 2}) == QQ(1, 2)
    assert odd.coefficient({"p2": 1, "x1": 2, "z": 2}) == QQ(-1, 2)
    even = z_colors(LinkConfig.create((2,), 5), 2)
    assert even.coefficient({"p1": 2, "x1": 2, "z": 4}) == QQ(1, 2)
    assert even.coefficient({"p2": 1, "x1": 2, "z": 4}) == QQ(1, 2)


def test_z_colors_requires_values():
    with pytest.raises(ValueError):
        z_colors(LinkConfig.create(("odd",), "odd"), 2)


def test_specialize_z_com_all_ones():
    # one even strand at z = 1 is plain Com: the Euler specialization at
    # even m gives sum_k x^k with sign (+1)^k
    cfg = LinkConfig.create((2,), 4)
    z = z_com(5)
    out = specialize_colors(z, cfg, "euler")
    for k in range(1, 6):
        assert out.coefficient({"x1": k}) == 1, k


def test_euler_specialization_matches_homotopy():
    for m, d in ((1, 3), (1, 4), (2, 5), (2, 4)):
        cfg = LinkConfig.create((m, m), d)
        z = z_graph_supercharacter("odd" if d % 2 else "even", 7, 6)
        left = specialize_colors(z, cfg, "euler")
        right = f_homotopy_direct(cfg, 6, x_total_max=7)
        assert left == right, (m, d)


def test_supercharacter_has_no_arity_zero_and_no_u0():
    z = z_graph_supercharacter("odd", 6, 5)
    p_start = z.vars.index("p1")
    for mono in z.coeffs:
        assert sum(mono[p_start:]) >= 1
        assert mono[z.vars.index("u")] >= 1


def test_supercharacter_weight_bound_matches_genus():
    # p-weight never exceeds u-degree + 1 (the genus bound in disguise)
    z = z_graph_supercharacter("odd", 8, 6)
    iu = z.vars.index("u")
    p_start = z.vars.index("p1")
    for mono in z.coeffs:
        w = sum((l + 1) * e for l, e in enumerate(mono[p_start:]))
        assert w <= mono[iu] + 1


def test_supercharacter_parses_parity_as_link_config_does():
    odd, even = z_graph_supercharacter("odd", 4, 4), z_graph_supercharacter("even", 4, 4)
    assert odd != even
    assert z_graph_supercharacter(3, 4, 4) == z_graph_supercharacter("ODD", 4, 4) == odd
    assert z_graph_supercharacter(4, 4, 4) == even
    with pytest.raises(ValueError, match="banana"):
        z_graph_supercharacter("banana", 4, 4)


def test_tree_homology_euler_specialization():
    cfg = LinkConfig.create((1, 1), 3)
    zt = z_tree_homology(3, 7)
    left = specialize_colors(zt, cfg, "euler")
    right = genus0_closed(cfg, 6)
    spec = left.spec.meet(right.spec)
    assert left.truncate(spec) == right.truncate(spec)


def test_tree_homology_dims_specialization():
    cfg = LinkConfig.create((1, 1), 5)
    zt = z_tree_homology(5, 6)
    left = specialize_colors(zt, cfg, "dims")
    right = genus0_dims(cfg, 5)
    spec = left.spec.meet(right.spec)
    assert left.truncate(spec) == right.truncate(spec)


@pytest.mark.parametrize("m,d", [(1, 5), (2, 7), (1, 4), (2, 6)])
def test_hedgehog_dims_specialization(m, d):
    cfg = LinkConfig.create((m, m), d)
    zh = z_hedgehog_homology(d, 6)
    left = specialize_colors(zh, cfg, "dims")
    right = genus1_dims(cfg, 5)
    spec = left.spec.meet(right.spec)
    assert left.truncate(spec) == right.truncate(spec)


@pytest.mark.parametrize("m_values", [(1, 1), (2, 1), (1, 2, 3)])
def test_dims_specialization_with_negative_z_matches_naive(m_values):
    # the hedgehog cycle index at d = 1 sits at z^(-n): every source z
    # exponent is negative, so z <- z goes through the inverse term
    zh = z_hedgehog_homology(1, 6)
    assert max(zh.exponents_of("z")) < 0
    cfg = LinkConfig.create(m_values, 4)
    got = specialize_colors(zh, cfg, "dims")
    vars_, spec = got.vars, got.spec
    repls = {f"p{l}": color_power_sum(cfg, vars_, spec, l, "dims") for l in range(1, 7)}
    repls["z"] = TruncatedSeries.term(vars_, spec, {"z": 1})
    assert got == naive_substitute(zh, repls)
    assert not got.is_zero()


def test_hedgehog_dimensions():
    for d in (2, 3):
        z = z_hedgehog_homology(d, 7)
        for n in range(3, 8):
            got = z.coefficient({"p1": n, "z": (d - 2) * n, "u": n})
            assert got == QQ(1, 2 * n), (d, n)
        # the n = 2 case is parity-sensitive: for even d the two
        # reflections cancel the two rotations (checked against the raw
        # dihedral sum in test_hedgehog_cycle_index_brute_force)
        want2 = QQ(1, 2) if d % 2 else QQ(0)
        assert z.coefficient({"p1": 2, "z": (d - 2) * 2, "u": 2}) == want2


def test_hedgehog_rotation_sign():
    for n in range(2, 8):
        for d in (2, 3, 4, 5):
            want = -1 if (d * (n - 1)) % 2 else 1
            assert hedgehog_symmetry_sign(n, d, ("r", 1)) == want, (n, d)


def test_hedgehog_reflection_signs():
    for d in (2, 3, 4, 5):
        for n in (3, 5, 7):  # odd: axis fixes one marked point
            want = -1 if (((n + 1) // 2) * d) % 2 else 1
            assert hedgehog_symmetry_sign(n, d, ("s", 0)) == want, (n, d)
        for n in (4, 6, 8):  # even: axis through two marked points
            want = -1 if (n * d // 2 - 1) % 2 else 1
            assert hedgehog_symmetry_sign(n, d, ("s", 0)) == want, (n, d)


def test_hedgehog_cycle_index_brute_force():
    # rebuild the weight-n part of the hedgehog cycle index from the
    # dihedral group itself and compare with the closed form
    for d in (2, 3):
        z = z_hedgehog_homology(d, 6)
        for n in range(2, 7):
            pairs = []
            for kind in ("r", "s"):
                for k in range(n):
                    pairs.append(
                        (
                            dihedral_permutation(n, (kind, k)),
                            hedgehog_symmetry_sign(n, d, (kind, k)),
                        )
                    )
            brute = induced_cycle_index(pairs, 6)
            # compare the weight-n p-parts (strip the z, u the closed form carries)
            p_start_b = brute.vars.index("p1")
            p_start_z = z.vars.index("p1")

            def weight(p_part):
                return sum((l + 1) * e for l, e in enumerate(p_part))

            got = {
                mono[p_start_z:]: c
                for mono, c in z.coeffs.items()
                if weight(mono[p_start_z:]) == n
            }
            want = {
                mono[p_start_b:]: c
                for mono, c in brute.coeffs.items()
                if weight(mono[p_start_b:]) == n
            }
            assert got == want, (d, n)


def test_induced_cycle_index_drops_cancelled_traces():
    # two 3-cycles with opposite traces cancel; the identity keeps p1^3 / 3
    pairs = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), -1)]
    z = induced_cycle_index(pairs, 3)
    assert dict(z.coeffs) == {z.vars.monomial({"p1": 3}): QQ(1, 3)}


def test_induced_cycle_index_drops_permutations_past_the_weight_bound():
    # a 3-cycle on 3 points, and short cycles on 3 points: weight 3 > 2
    cyclic = [((1, 2, 0), 1), ((0, 1, 2), 1), ((2, 0, 1), 1)]
    swaps = [((1, 0, 2), 1), ((0, 1, 2), 1)]
    for pairs in (cyclic, swaps):
        assert induced_cycle_index(pairs, 2).is_zero()


def test_induced_dihedral_dimension():
    # dim of the induced character is the dihedral index n!/(2n) for n >= 3
    z = z_hedgehog_homology(3, 7)
    fact = 2
    for n in range(3, 8):
        fact *= n
        dim = z.coefficient({"p1": n, "z": n, "u": n}) * fact
        assert dim == fact // (2 * n), n


def test_mod_envelope_routes_agree():
    for twist in ("plain", "det"):
        a = mod_envelope_supercharacter(twist, 6, 4)
        b = mod_envelope_supercharacter_direct(twist, 6, 4)
        assert a == b, twist
        assert not a.is_zero()


def test_mod_envelope_nonnegative_genus():
    for twist in ("plain", "det"):
        z = mod_envelope_supercharacter(twist, 8, 6)
        assert all(e >= 0 for e in z.exponents_of("hbar")), twist
        with pytest.raises(OutOfBoundsError):  # genus -1 lies outside the window
            z.grade_extract("hbar", -1)


def test_mod_envelope_no_arity_zero():
    z = mod_envelope_supercharacter("plain", 5, 3)
    p_start = z.vars.index("p1")
    assert all(sum(m[p_start:]) >= 1 for m in z.coeffs)


def test_mod_envelope_genus_zero_part_is_cyclic_lie():
    # the genus-0 layer of the modular envelope is the cyclic Lie
    # sequence itself: all suspension and sign twists cancel there
    z = mod_envelope_supercharacter("plain", 6, 0)
    lie = z_lie_cyclic(6)
    p_start = z.vars.index("p1")
    got = {m[p_start:]: c for m, c in z.grade_extract("hbar", 0).coeffs.items()}
    assert got == dict(lie.coeffs)


def test_feynman_regrade_involution_and_signs():
    z = mod_envelope_supercharacter("plain", 5, 3)
    f = feynman_regrade(z)
    assert feynman_regrade(f) == z
    zero = TruncatedSeries.zero(z.vars, z.spec)
    assert feynman_regrade(zero).is_zero()
    # single generator check: -Z(-p): a p1^2 monomial keeps sign, p1 flips
    p_start = z.vars.index("p1")
    for mono, c in z.coeffs.items():
        n_p = sum(mono[p_start:])
        assert f.coeffs[mono] == (c if n_p % 2 else -c)


def test_twist_validation():
    with pytest.raises(ValueError):
        mod_envelope_supercharacter("nope", 4, 2)
