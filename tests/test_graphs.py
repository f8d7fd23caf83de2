from __future__ import annotations

import functools
import json
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from linkchi import graphs
from linkchi.genfun import LinkConfig
from linkchi.graphs import (
    BudgetExceeded,
    EnumerationBudget,
    canonical_form,
    enumerate_classes,
    euler_char_oracle,
)
from linkchi.reference_tables import TABLES
from linkchi.verify import _PARITY_CONFIGS, _cfg

ODD2 = LinkConfig.create((1, 1), 3)


def test_single_edge_between_two_hairs():
    classes = enumerate_classes(ODD2, (1, 1), 1)
    assert len(classes) == 1
    (c,) = classes
    assert c.n_internal == 0 and c.edge_count == 1
    assert not c.killed
    assert c.contribution == 1


def test_same_color_edge_survives_odd_parities():
    (c,) = enumerate_classes(ODD2, (2, 0), 1)
    # swapping the hairs reverses the edge: (-1)^(m + d) = +1 for odd m, d
    assert not c.killed and c.automorphism_count == 2


def test_same_color_edge_killed_mixed_parity():
    cfg = LinkConfig.create((1, 1), 4)  # d even, m odd
    (c,) = enumerate_classes(cfg, (2, 0), 1)
    assert c.killed


def test_tadpole_classes_at_one_hair():
    # one hair, complexity 1, genus 1: a tadpole on the hair's vertex
    classes = enumerate_classes(ODD2, (1, 0), 1)
    assert len(classes) == 1
    (c,) = classes
    assert c.n_internal == 1 and c.adjacency == ((1,),)
    assert c.killed  # tadpole flip gives (-1)^d = -1 for odd d
    cfg_even = LinkConfig.create((1, 1), 4)
    (c2,) = enumerate_classes(cfg_even, (1, 0), 1)
    assert not c2.killed  # tadpole flip is +1 for even d


def test_tripod_killed_by_hair_swap():
    classes = enumerate_classes(ODD2, (3, 0), 2)
    assert len(classes) == 1
    (c,) = classes
    assert c.n_internal == 1 and c.killed
    assert c.automorphism_count == 6  # the symmetric group on the hairs


def test_degree_parity_odd_case():
    for s_vec, t in (((2, 0), 2), ((1, 1), 2), ((2, 2), 3), ((1, 0), 2)):
        for cls in enumerate_classes(ODD2, s_vec, t):
            assert (cls.degree - (cls.n_internal + sum(s_vec))) % 2 == 0


def test_killed_consistency_same_color_doubling():
    # a killed class stays killed when hairs move to a same-parity color
    for t in (2, 3):
        killed_any = [c for c in enumerate_classes(ODD2, (t + 1, 0), t) if c.killed]
        assert killed_any, "expected at least one killed class"
    # recoloring between equal-parity colors preserves killed counts
    for s_vec, t in (((3, 0), 2), ((2, 1), 2), ((3, 1), 3)):
        a = enumerate_classes(ODD2, s_vec, t)
        b = enumerate_classes(ODD2, s_vec[::-1], t)
        assert sorted(c.killed for c in a) == sorted(c.killed for c in b)
        assert len(a) == len(b)


def test_canonical_form_tripod_relabelings():
    # a triangle with one doubled edge and three distinct hair rows: every
    # vertex is distinguishable, so each relabelling is a different pair of
    # matrix and hair rows, and all of them key alike
    adj = ((0, 2, 1), (2, 0, 1), (1, 1, 0))
    hairs = ((1, 0), (0, 1), (1, 1))
    key, autos = canonical_form(adj, hairs)
    assert autos == [(0, 1, 2)]
    seen = set()
    for p in permutations(range(3)):
        relabelled = tuple(tuple(adj[p[i]][p[j]] for j in range(3)) for i in range(3))
        moved = tuple(hairs[p[i]] for i in range(3))
        seen.add((relabelled, moved))
        assert canonical_form(relabelled, moved)[0] == key, p
    assert len(seen) == 6
    # the same matrix with two hair rows swapped, and no relabelling, is
    # another graph: its doubled edge joins the rows (1, 0) and (1, 1)
    assert canonical_form(adj, (hairs[0], hairs[2], hairs[1]))[0] != key


def test_canonical_form_distinguishes_path_and_triangle():
    path = ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    tri = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    hairs = ((1,), (1,), (1,))
    assert canonical_form(path, hairs)[0] != canonical_form(tri, hairs)[0]


def test_canonical_form_automorphism_count():
    # star with three same-color hairs at one internal vertex joined to
    # three others: the three leaves permute freely
    adj = (
        (0, 1, 1, 1),
        (1, 0, 0, 0),
        (1, 0, 0, 0),
        (1, 0, 0, 0),
    )
    hairs = ((0,), (2,), (2,), (2,))
    _, autos = canonical_form(adj, hairs)
    assert len(autos) == 6


def test_canonical_form_rejects_an_asymmetric_matrix():
    # the star above as its upper triangle alone: its rows miss the edges
    # below the diagonal, so refinement would read wrong degrees from them
    upper = ((0, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="symmetric"):
        canonical_form(upper, ((0,), (2,), (2,), (2,)))
    with pytest.raises(ValueError, match="symmetric"):
        canonical_form(((0, 1), (1,)), ((1,), (1,)))  # ragged


def test_hair_permutation_symmetry_of_oracle():
    assert euler_char_oracle(ODD2, (3, 1), 3) == euler_char_oracle(ODD2, (1, 3), 3)


def test_oracle_names_the_cell_it_was_given():
    # a one-parity cell is sorted only after it is checked, so the error
    # quotes the counts the caller passed, not their reordering
    with pytest.raises(ValueError, match=r"got \(-1, 2\)"):
        euler_char_oracle(ODD2, (-1, 2), 3)


def test_oracle_matches_reference_small():
    for g in range(3):
        for t in range(1, 4):
            s_total = t + 1 - g
            if s_total < 1:
                continue
            for s2 in range(s_total + 1):
                got = euler_char_oracle(ODD2, (s_total - s2, s2), t)
                assert got == TABLES[g][t][s2], (g, t, s2)


@pytest.mark.parametrize("m,d", [(1, 4), (2, 5), (2, 4)])
def test_oracle_matches_series_other_parities(m, d):
    # the enumeration signs (tadpole flips, parallel swaps, hair swaps,
    # Koszul reordering) must track the parity of m and d exactly
    from linkchi.genfun import f_homotopy_direct

    cfg = LinkConfig.create((m, m), d)
    f_pi = f_homotopy_direct(cfg, 3)
    for t in range(1, 4):
        for s_total in range(1, t + 2):
            for s2 in range(s_total + 1):
                s1 = s_total - s2
                got = euler_char_oracle(cfg, (s1, s2), t)
                want = int(f_pi.coefficient({"x1": s1, "x2": s2, "u": t}))
                assert got == want, (m, d, t, s1, s2)


def test_oracle_hedgehog_row():
    # genus-1 row t=2 is the double-edge hedgehog family
    assert euler_char_oracle(ODD2, (2, 0), 2) == 1
    assert euler_char_oracle(ODD2, (1, 1), 2) == 1


def test_budget_refusal():
    tight = EnumerationBudget(t_max=2, hairs_max=3)
    with pytest.raises(BudgetExceeded):
        enumerate_classes(ODD2, (2, 2), 3, tight)
    with pytest.raises(BudgetExceeded):
        euler_char_oracle(ODD2, (4, 0), 3, tight)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        enumerate_classes(ODD2, (0, 0), 1)
    with pytest.raises(ValueError):
        enumerate_classes(ODD2, (3, 0), 1)  # t < |s| - 1
    with pytest.raises(ValueError):
        enumerate_classes(ODD2, (1,), 1)  # wrong color count


def test_odd_sign_invariant_raises():
    from dataclasses import replace

    from linkchi.graphs import _check_odd_signs

    classes = enumerate_classes(ODD2, (2, 0), 2)
    _check_odd_signs(ODD2, classes, 2)
    broken = [replace(classes[0], degree=classes[0].degree + 1)]
    with pytest.raises(RuntimeError, match="odd/odd sign"):
        _check_odd_signs(ODD2, broken, 2)


@st.composite
def _hairy_graphs(draw):
    n = draw(st.integers(1, 5))
    upper = {(i, j): draw(st.integers(0, 2)) for i in range(n) for j in range(i, n)}
    adjacency = tuple(
        tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n)
    )
    hairs = tuple(
        (draw(st.integers(0, 2)), draw(st.integers(0, 1))) for _ in range(n)
    )
    return adjacency, hairs, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(_hairy_graphs())
def test_canonical_form_is_invariant_under_relabelling(graph):
    adjacency, hairs, perm = graph  # vertex v becomes perm[v]
    n = len(adjacency)
    moved = tuple(
        tuple(adjacency[perm.index(i)][perm.index(j)] for j in range(n))
        for i in range(n)
    )
    moved_hairs = tuple(hairs[perm.index(i)] for i in range(n))
    key, autos = canonical_form(adjacency, hairs)
    moved_key, moved_autos = canonical_form(moved, moved_hairs)
    assert moved_key == key
    assert len(moved_autos) == len(autos)
    assert len(set(autos)) == len(autos) and tuple(range(n)) in autos
    for sigma in autos:
        assert sorted(sigma) == list(range(n))
        assert all(hairs[sigma[v]] == hairs[v] for v in range(n))
        assert all(
            adjacency[sigma[i]][sigma[j]] == adjacency[i][j]
            for i in range(n)
            for j in range(n)
        )


@st.composite
def _labelled_degrees(draw):
    n = draw(st.integers(1, 4))
    # few distinct hair rows, so that vertices often tie
    rows = draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0)]), min_size=n, max_size=n))
    degrees = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return tuple(sorted(rows)), tuple(degrees)


def _connected(adj):
    n = len(adj)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if w not in seen and adj[v][w]:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _orderly(adj, hair_rows):
    return graphs._refine_partition(adj, hair_rows, ascending_only=True) is not None


@settings(max_examples=150, deadline=None)
@given(_labelled_degrees())
def test_orderly_multigraphs_cut_only_rejected_leaves(shape):
    # reference: every symmetric matrix on these labelled degrees (each
    # tadpole count is what the edges leave, halved), kept when connected
    # and accepted by the orderly test
    hair_rows, degrees = shape
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reference = set()
    for mults in product(*(range(min(degrees[i], degrees[j]) + 1) for i, j in pairs)):
        spare = list(degrees)
        for (i, j), k in zip(pairs, mults):
            spare[i] -= k
            spare[j] -= k
        if any(d < 0 or d % 2 for d in spare):
            continue
        adj = [[0] * n for _ in range(n)]
        for v in range(n):
            adj[v][v] = spare[v] // 2
        for (i, j), k in zip(pairs, mults):
            adj[i][j] = adj[j][i] = k
        adj = tuple(map(tuple, adj))
        if _connected(adj) and _orderly(adj, hair_rows):
            reference.add(adj)
    leaves = list(graphs._orderly_multigraphs(hair_rows, degrees))
    assert len(set(leaves)) == len(leaves)
    for adj in leaves:
        assert adj == tuple(zip(*adj))  # symmetric, a tuple of tuples
        valence = [sum(adj[v]) + adj[v][v] for v in range(n)]
        assert valence == list(degrees)
        assert _connected(adj)
    assert {adj for adj in leaves if _orderly(adj, hair_rows)} == reference


def _refined_to_the_end(mat, hair_counts, ascending_only=False):
    """Reference for ``graphs._refine_partition``: every round runs until
    the labels are stable, discrete or not."""
    nbrs = [[(w, k) for w, k in enumerate(row) if k and w != v] for v, row in enumerate(mat)]
    invariants = [
        (hair_counts[v], sum(k for _w, k in nv) + 2 * mat[v][v], mat[v][v])
        for v, nv in enumerate(nbrs)
    ]
    rank = {inv: i for i, inv in enumerate(sorted(set(invariants)))}
    labels = [rank[inv] for inv in invariants]
    while True:
        if ascending_only and any(a > b for a, b in zip(labels, labels[1:])):
            return None
        sigs = [
            (labels[v], tuple(sorted((labels[w], k) for w, k in nv)))
            for v, nv in enumerate(nbrs)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_labels = [rank[sig] for sig in sigs]
        if new_labels == labels:
            return labels
        labels = new_labels


def _searched_form(mat, hair_counts):
    """Reference for ``graphs.canonical_form``: the least matrix over every
    vertex order that respects the refined cells, singletons or not, and
    every order that reaches it as an automorphism."""
    n = len(mat)
    labels = _refined_to_the_end(mat, hair_counts)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(labels[v], []).append(v)
    cell_list = [cells[k] for k in sorted(cells)]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    best = None
    best_orders = []
    for arrangement in product(*(permutations(cell) for cell in cell_list)):
        order = [v for part in arrangement for v in part]
        enc = tuple(mat[order[i]][order[j]] for i, j in upper)
        if best is None or enc < best:
            best = enc
            best_orders = [order]
        elif enc == best:
            best_orders.append(order)
    first = best_orders[0]
    autos = []
    for order in best_orders:
        q = [0] * n
        for pos, v in enumerate(order):
            q[v] = pos
        autos.append(tuple(first[q[v]] for v in range(n)))
    hairs = tuple(hair_counts[v] for v in first)
    return repr((best, hairs)), autos


@settings(max_examples=150, deadline=None)
@given(_labelled_degrees())
@example((((0, 0), (0, 1), (1, 0)), (1, 2, 1)))  # a path of three hair rows: discrete
@example((((0, 0),) * 4, (3, 3, 3, 3)))  # K4 among others: one cell of four
def test_leaf_fast_paths_match_their_references(shape):
    # each leaf is a symmetric matrix, refinement that stops at a discrete
    # ranking returns what every round returns, and a discrete partition is
    # keyed as the permutation search keys it
    hair_rows, degrees = shape
    for mat in graphs._orderly_multigraphs(hair_rows, degrees):
        assert mat == tuple(zip(*mat))
        for ascending_only in (False, True):
            assert graphs._refine_partition(
                mat, hair_rows, ascending_only
            ) == _refined_to_the_end(mat, hair_rows, ascending_only)
        key, autos = canonical_form(mat, hair_rows)
        assert (key, autos) == _searched_form(mat, hair_rows)
        labels = graphs._refine_partition(mat, hair_rows)
        assert canonical_form(mat, hair_rows, labels) == (key, autos)


# Every mirror cell (s1 < s2) that check_cell accepts at t <= 4.
_MIRROR_CELLS = [
    ((s_total - s2, s2), t)
    for t in range(1, 5)
    for s_total in range(1, t + 2)
    for s2 in range(s_total // 2 + 1, s_total + 1)
]


@pytest.mark.parametrize("cell", _MIRROR_CELLS, ids=[f"s{s[0]},{s[1]}-t{t}" for s, t in _MIRROR_CELLS])
def test_mirror_cell_matches_a_fresh_enumeration(cell):
    # a mirror cell is the descending cell with its hair columns swapped
    # and keyed again; enumerating it gives the same classes in the same
    # order, with the same automorphism counts
    s_vec, t = cell
    bare, shapes = graphs._class_shapes(s_vec, t)
    fresh_bare, fresh = graphs._enumerated_shapes(s_vec, t)
    assert bare == fresh_bare
    assert [(n, key, len(autos)) for n, _adj, _hairs, key, autos in shapes] == [
        (n, key, len(autos)) for n, _adj, _hairs, key, autos in fresh
    ]
    for _n, adj, hairs, key, autos in shapes:
        assert adj == tuple(zip(*adj))  # stored symmetric
        assert tuple(map(sum, zip(*hairs))) == s_vec
        assert canonical_form(adj, hairs) == (key, list(autos))


def test_mixed_oracle_cells_enumerate_only_descending_cells(monkeypatch):
    # verify's mixed configurations ask for both (s1, s2) and (s2, s1); only
    # the descending one is generated, and its mirror is read from it
    from linkchi import verify

    generated = set()
    real = graphs._orderly_multigraphs

    def counted(hair_rows, degrees):
        generated.add(tuple(map(sum, zip(*hair_rows))))
        return real(hair_rows, degrees)

    monkeypatch.setattr(graphs, "_orderly_multigraphs", counted)
    asked = set()
    cached = functools.lru_cache(maxsize=None)(graphs._class_shapes.__wrapped__)

    def shapes(s_vec, t):
        asked.add(s_vec)
        return cached(s_vec, t)

    monkeypatch.setattr(graphs, "_class_shapes", shapes)
    res = verify.CheckResult("oracle")
    verify.check_oracle(res, t_max=3)
    assert res.ok
    assert any(s1 < s2 for s1, s2 in asked)
    assert generated == {tuple(sorted(s, reverse=True)) for s in asked}


# Every (s1, s2) with t <= 3, in both orders.
_SMALL_CELLS = [
    ((s_total - s2, s2), t)
    for t in range(1, 4)
    for s_total in range(1, t + 2)
    for s2 in range(s_total + 1)
]


@pytest.mark.parametrize("parity", sorted(_PARITY_CONFIGS))
def test_shape_cache_does_not_change_classes(parity):
    cfg = _cfg(parity, 2)
    graphs._class_shapes.cache_clear()
    cold = [enumerate_classes(cfg, s, t) for s, t in _SMALL_CELLS]
    graphs._class_shapes.cache_clear()
    for other in _PARITY_CONFIGS:
        if other != parity:
            for s, t in _SMALL_CELLS:
                enumerate_classes(_cfg(other, 2), s, t)
    misses = graphs._class_shapes.cache_info().misses
    warm = [enumerate_classes(cfg, s, t) for s, t in _SMALL_CELLS]
    assert graphs._class_shapes.cache_info().misses == misses  # all served warm
    assert warm == cold


def test_cached_cell_still_checks_the_budget():
    loose = EnumerationBudget(t_max=5, hairs_max=6)
    tight = EnumerationBudget(t_max=2, hairs_max=3)
    assert euler_char_oracle(ODD2, (2, 1), 3, loose) == euler_char_oracle(ODD2, (2, 1), 3)
    with pytest.raises(BudgetExceeded):
        enumerate_classes(ODD2, (2, 1), 3, tight)
    with pytest.raises(BudgetExceeded):
        euler_char_oracle(ODD2, (2, 1), 3, tight)


def test_oracle_cache_is_bounded(monkeypatch):
    # The oracle's only cache is the shape cache: at most maxsize cells are
    # held, and an evicted cell enumerates again to the same value.
    shapes = functools.lru_cache(maxsize=3)(graphs._class_shapes.__wrapped__)
    monkeypatch.setattr(graphs, "_class_shapes", shapes)
    cells = [((1, 1), 1), ((1, 0), 1), ((2, 0), 1), ((1, 0), 2), ((2, 1), 2)]
    first = [euler_char_oracle(ODD2, s, t) for s, t in cells]
    assert shapes.cache_info().currsize == 3
    assert shapes.cache_info().misses == len(cells)
    assert [euler_char_oracle(ODD2, s, t) for s, t in cells] == first
    assert shapes.cache_info().currsize == 3


def test_parity_classes_share_one_shape_enumeration(monkeypatch):
    calls = []
    real = graphs._orderly_multigraphs

    def counted(hair_rows, degrees):
        calls.append(degrees)
        return real(hair_rows, degrees)

    monkeypatch.setattr(graphs, "_orderly_multigraphs", counted)
    graphs._class_shapes.cache_clear()
    enumerate_classes(_cfg("odd-odd", 2), (2, 1), 3)
    once = len(calls)
    for parity in _PARITY_CONFIGS:
        enumerate_classes(_cfg(parity, 2), (2, 1), 3)
    assert once > 0 and len(calls) == once
    assert graphs._class_shapes.cache_info().misses == 1


def test_check_oracle_counts_each_mirror_pair_once(monkeypatch):
    # both colours of every parity class share a parity, so (s2, s1) reads
    # back the count of (s1, s2), and both still meet F^pi; the mixed
    # configurations m = (1, 2) count both orders
    from linkchi import verify

    calls = []
    real = verify.euler_char_oracle

    def counted(cfg, s_vec, t, budget=None):
        calls.append((cfg.m_parities, cfg.d_parity, tuple(s_vec), t))
        return real(cfg, s_vec, t, budget)

    monkeypatch.setattr(verify, "euler_char_oracle", counted)
    res = verify.CheckResult("oracle")
    verify.check_oracle(res, t_max=3)
    assert res.ok
    assert calls and len(calls) == len(set(calls))
    same = [c for c in calls if len(set(c[0])) == 1]
    assert all(s1 >= s2 for _m, _d, (s1, s2), _t in same)
    # cells (s1, s2) with s1 >= s2, four parities: t=1 has s in {(2,0),(1,1),
    # (1,0)}, t=2 {(3,0),(2,1),(2,0),(1,1),(1,0)}, t=3 {(4,0),(3,1),(2,2),
    # (3,0),(2,1),(2,0),(1,1),(1,0)}
    assert len(same) == 4 * (3 + 5 + 8)
    # mixed, d = 3 and 4: every (s1, s2) with |s| = t + 1 - g >= 1, g <= 3
    assert len(calls) - len(same) == 2 * (5 + 9 + 14)


def _explicit_sign_parity(adj, hairs, sigma, m, d) -> int:
    """Reference for ``graphs._vertex_automorphism_sign_parity``: the hair
    parity of each colour from the explicit permutation of its hair items,
    each vertex's block of hairs[v][c] items landing on sigma(v)'s block."""
    n = len(adj)
    parity = (graphs._perm_parity(sigma) * d) % 2
    slots = [(i, j) for i in range(n) for j in range(i, n) if adj[i][j] > 0]
    slot_index = {s: k for k, s in enumerate(slots)}
    slot_perm, flips = [], 0
    for i, j in slots:
        a, b = sigma[i], sigma[j]
        if i != j and a > b:
            flips += adj[i][j]
            a, b = b, a
        slot_perm.append(slot_index[(a, b)])
    edge_parity = 0
    for k, length in graphs._cycles(slot_perm):
        edge_parity ^= ((length - 1) * adj[slots[k][0]][slots[k][1]]) % 2
    hair_parities = []
    for c in range(len(m)):
        offsets = [0]
        for v in range(n):
            offsets.append(offsets[-1] + hairs[v][c])
        item_perm = [0] * offsets[-1]
        for v in range(n):
            for k in range(hairs[v][c]):
                item_perm[offsets[v] + k] = offsets[sigma[v]] + k
        hair_parities.append(graphs._perm_parity(item_perm))
    total_edge_parity = edge_parity
    for hp in hair_parities:
        total_edge_parity ^= hp
    parity ^= (total_edge_parity * (d - 1)) % 2
    for c in range(len(m)):
        parity ^= (hair_parities[c] * m[c]) % 2
    return parity ^ (d * flips) % 2


def test_block_parity_rule_matches_explicit_hair_permutation():
    # every automorphism of every class of several frozen cells, in the four
    # parity classes and with mixed colour parities, so that a hair term
    # read from the wrong colour shows
    moved = 0
    for s_vec, t in (((1, 1), 4), ((2, 0), 4), ((2, 1), 4), ((3, 0), 4), ((2, 2), 4), ((4, 0), 4)):
        for _n, adj, hairs, _key, autos in graphs._class_shapes(s_vec, t)[1]:
            moved += sum(sigma != tuple(range(len(adj))) for sigma in autos)
            for m in ((1, 1), (1, 2), (2, 1), (2, 2)):
                for d in (3, 4):
                    for sigma in autos:
                        want = _explicit_sign_parity(adj, hairs, sigma, m, d)
                        got = graphs._vertex_automorphism_sign_parity(adj, hairs, sigma, m, d)
                        assert got == want, (adj, hairs, sigma, m, d)
    assert moved == 133 + 187 + 35 + 37 + 12 + 13


# Class, killed and Euler-characteristic counts per cell, recorded from the
# enumeration before it was restricted to vertex-ordered labellings.
_FROZEN = json.loads((Path(__file__).parent / "golden" / "oracle-cells.json").read_text())


@pytest.mark.parametrize(
    "cell", _FROZEN, ids=[f"{c['parity']}-s{c['s'][0]},{c['s'][1]}-t{c['t']}" for c in _FROZEN]
)
def test_frozen_class_counts(cell):
    classes = enumerate_classes(_cfg(cell["parity"], 2), cell["s"], cell["t"])
    assert len(classes) == cell["classes"]
    assert sum(c.killed for c in classes) == cell["killed"]
    assert sum(c.contribution for c in classes) == cell["chi"]
