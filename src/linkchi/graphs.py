"""Brute-force enumeration of hairy graphs and their Euler characteristics.

A hairy graph is a connected graph with internal vertices of valence
>= 3 and univalent colored external legs (hairs); multiple edges and
tadpoles are allowed.  Writing |I| for the internal vertex count, |E|
for the edge count (hair edges and tadpoles each count once) and s_c
for the number of hairs of color c:

    complexity  t = |E| - |I|          (first Betti number after gluing
                                        all hairs to one point)
    genus       g = t - |s| + 1        (first Betti number of the graph)

so all graphs with given (s, t) share one genus.  Valence >= 3 forces
|I| <= 2t - |s| and hence |E| <= 3t - |s|.

Each isomorphism class spans one generator of a chain complex unless
some symmetry reverses its orientation, in which case it spans zero
("killed").  The orientation set consists of the internal vertices
(degree -d), the edges (degree d-1) and the hairs (degree -m_c for
color c); a symmetry contributes the Koszul sign of its permutation of
that set times (-1)^d for every edge whose direction it flips.  Summing
(-1)^degree over the surviving classes gives the Euler characteristic of
the (s, t) summand — computed here with no generating functions at all,
which is exactly what makes it an independent oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod

from .genfun import LinkConfig

__all__ = [
    "EnumerationBudget",
    "HairyGraphClass",
    "enumerate_classes",
    "euler_char_oracle",
    "canonical_form",
    "BudgetExceeded",
]


class BudgetExceeded(ValueError):
    """Requested size is beyond the configured enumeration budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard size limits; enumeration is exponential and the oracle's job
    ends at small sizes."""

    t_max: int = 5
    hairs_max: int = 6


@dataclass(frozen=True)
class HairyGraphClass:
    """Isomorphism class of a hairy graph.

    ``adjacency[i][j]`` (i <= j) is the edge multiplicity between
    internal vertices i and j, the diagonal counting tadpoles (one
    tadpole adds two to the valence).  ``hair_counts[i][c]`` is the
    number of color-c hairs at internal vertex i.  The degenerate
    zero-internal-vertex class (a single edge joining two hairs) uses
    empty adjacency and stores its hair colors in ``bare_hair_colors``.
    """

    n_internal: int
    adjacency: tuple[tuple[int, ...], ...]
    hair_counts: tuple[tuple[int, ...], ...]
    bare_hair_colors: tuple[int, int] | None
    key: str
    degree: int
    killed: bool
    automorphism_count: int

    @property
    def edge_count(self) -> int:
        if self.bare_hair_colors is not None:
            return 1
        internal = sum(
            self.adjacency[i][j]
            for i in range(self.n_internal)
            for j in range(i, self.n_internal)
        )
        return internal + sum(map(sum, self.hair_counts))

    @property
    def contribution(self) -> int:
        return 0 if self.killed else (-1) ** (self.degree % 2)


def _rep_dimensions(cfg: LinkConfig) -> tuple[tuple[int, ...], int]:
    """Actual (m, d) when known, else smallest representatives of the parities."""
    if cfg.has_values:
        return cfg.m_values, cfg.d_value
    m = tuple(1 if p else 2 for p in cfg.m_parities)
    d = 3 if cfg.d_parity else 2
    return m, d


# ------------------------------------------------------------ canonical form


def _refine_partition(n, adj, invariants):
    """Iterated neighbor refinement of the vertex partition."""
    classes = {}
    for v in range(n):
        classes.setdefault(invariants[v], []).append(v)
    labels = {v: i for i, (_k, vs) in enumerate(sorted(classes.items())) for v in vs}
    while True:
        sigs = {}
        for v in range(n):
            neigh = tuple(
                sorted((labels[w], adj[min(v, w)][max(v, w)]) for w in range(n) if w != v and adj[min(v, w)][max(v, w)])
            )
            sigs[v] = (labels[v], neigh)
        order = sorted(set(sigs.values()))
        new_labels = {v: order.index(sigs[v]) for v in range(n)}
        if new_labels == labels:
            return labels
        labels = new_labels


def canonical_form(adjacency, hair_counts):
    """Canonical key and full automorphism list of an internal multigraph
    with per-vertex hair-count colors.

    Isomorphisms permute internal vertices arbitrarily but must preserve
    adjacency multiplicities and the per-color hair counts at each
    vertex.  Two graphs are isomorphic iff their keys are equal.  The
    returned automorphisms are all such self-maps (as permutation
    tuples); for the graph sizes the oracle handles, refinement keeps
    the candidate set tiny.
    """
    n = len(adjacency)
    if n == 0:
        return "()", [()]
    degrees = [
        sum(adjacency[min(v, w)][max(v, w)] for w in range(n) if w != v)
        + 2 * adjacency[v][v]
        for v in range(n)
    ]
    invariants = [
        (hair_counts[v], degrees[v], adjacency[v][v]) for v in range(n)
    ]
    labels = _refine_partition(n, adjacency, invariants)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(labels[v], []).append(v)
    cell_list = [cells[k] for k in sorted(cells)]

    def encode(perm):
        # perm[v] = new position of vertex v
        inv = [0] * n
        for v, pos in enumerate(perm):
            inv[pos] = v
        mat = tuple(
            adjacency[min(inv[i], inv[j])][max(inv[i], inv[j])]
            for i in range(n)
            for j in range(i, n)
        )
        hairs = tuple(hair_counts[inv[i]] for i in range(n))
        return (mat, hairs)

    best = None
    best_perms = []
    positions = list(range(n))
    offsets = []
    start = 0
    for cell in cell_list:
        offsets.append(positions[start : start + len(cell)])
        start += len(cell)
    for arrangement in product(*(permutations(cell) for cell in cell_list)):
        perm = [0] * n
        for cell_positions, cell_vertices in zip(offsets, arrangement):
            for pos, v in zip(cell_positions, cell_vertices):
                perm[v] = pos
        enc = encode(perm)
        if best is None or enc < best:
            best = enc
            best_perms = [tuple(perm)]
        elif enc == best:
            best_perms.append(tuple(perm))
    # automorphisms: sigma = q^{-1} o p for canonical labelings p, q
    p0 = best_perms[0]
    p0_inv = [0] * n
    for v, pos in enumerate(p0):
        p0_inv[pos] = v
    autos = []
    for q in best_perms:
        autos.append(tuple(p0_inv[q[v]] for v in range(n)))
    key = repr(best)
    return key, autos


# -------------------------------------------------------------- enumeration


def _hair_distributions(n, s_vec):
    """All ways to place s_c hairs of each color on n vertices."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    per_color = [list(compositions(s, n)) for s in s_vec]
    for combo in product(*per_color):
        yield tuple(tuple(combo[c][v] for c in range(len(s_vec))) for v in range(n))


def _degree_sequences(n, total, minima):
    """All ordered internal degree sequences with the given total and
    per-vertex minima; labeled duplicates collapse at the canonical key."""

    def rec(i, remaining):
        if i == n - 1:
            if remaining >= minima[i]:
                yield (remaining,)
            return
        for d in range(minima[i], remaining + 1):
            for rest in rec(i + 1, remaining - d):
                yield (d,) + rest

    yield from rec(0, total)


def _multigraphs_with_degrees(degrees):
    """All multigraphs (with tadpoles) realizing the degree sequence.

    Backtracks over the upper-triangular multiplicity matrix; tadpoles
    consume two degree units.  Labeled duplicates are later collapsed by
    canonical keys, so only completeness matters here.
    """
    n = len(degrees)
    adj = [[0] * n for _ in range(n)]
    remaining = list(degrees)
    out = []

    def fill_vertex(v):
        if v == n:
            out.append(tuple(tuple(row) for row in adj))
            return
        rv = remaining[v]
        if rv == 0:
            fill_vertex(v + 1)
            return
        # distribute rv over tadpoles at v and edges to w > v
        def assign(w, left):
            if left == 0:
                fill_vertex(v + 1)
                return
            if w == n:
                return
            if w == v:
                for k in range(left // 2, -1, -1):
                    adj[v][v] += k
                    remaining[v] -= 2 * k
                    assign(v + 1, left - 2 * k)
                    adj[v][v] -= k
                    remaining[v] += 2 * k
                return
            cap = min(left, remaining[w])
            for k in range(cap, -1, -1):
                adj[v][w] += k
                remaining[v] -= k
                remaining[w] -= k
                assign(w + 1, left - k)
                adj[v][w] -= k
                remaining[v] += k
                remaining[w] += k

        assign(v, rv)

    fill_vertex(0)
    return out


def _is_connected(n, adj):
    if n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if w not in seen and adj[min(v, w)][max(v, w)] > 0 and w != v:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _cycles(perm):
    """(first point, length) of each cycle of the image tuple ``perm``."""
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        yield i, length


def _perm_parity(perm) -> int:
    return sum(length - 1 for _start, length in _cycles(perm)) % 2


def _vertex_automorphism_sign_parity(adj, hairs, sigma, m, d) -> int:
    """Parity bit of the orientation sign of a vertex automorphism.

    sign = sgn(pi_vertices)^d * sgn(pi_edges)^(d-1)
         * prod_c sgn(pi_hairs_c)^(m_c) * (-1)^(d * #flipped edges),
    where pi_edges covers internal edge instances and hair edges, and an
    internal edge (i, j), i < j, is flipped when sigma reverses its
    endpoints' order.  Parallel copies map in a fixed per-pair order;
    other pairings differ by parallel swaps, which are separate
    generators.
    """
    n = len(adj)
    parity = (_perm_parity(sigma) * d) % 2

    # internal edge instances, tracked as slots (i, j) with multiplicity
    slots = [
        (i, j)
        for i in range(n)
        for j in range(i, n)
        if adj[i][j] > 0
    ]
    slot_index = {s: k for k, s in enumerate(slots)}
    slot_perm = []
    flips = 0
    for (i, j) in slots:
        a, b = sigma[i], sigma[j]
        if i != j and a > b:
            flips += adj[i][j]
            a, b = b, a
        slot_perm.append(slot_index[(a, b)])
    # parity of the instance permutation: slots move as blocks of equal
    # multiplicity; a block of size mult contributes mult * (slot cycle sign)
    edge_parity = 0
    for k, length in _cycles(slot_perm):
        mult = adj[slots[k][0]][slots[k][1]]
        edge_parity ^= ((length - 1) * mult) % 2

    # hair blocks: per color, vertex blocks of size hairs[v][c] move intact
    r = len(m)
    hair_parities = []
    for c in range(r):
        sizes = [hairs[v][c] for v in range(n)]
        offsets = [0]
        for v in range(n):
            offsets.append(offsets[-1] + sizes[v])
        item_perm = [0] * offsets[-1]
        for v in range(n):
            tv = sigma[v]
            # block v (size sizes[v]) lands at block tv; sizes match
            src = offsets[v]
            dst = offsets[tv]
            for k in range(sizes[v]):
                item_perm[src + k] = dst + k
        hair_parities.append(_perm_parity(item_perm))

    total_edge_parity = edge_parity
    for hp in hair_parities:
        total_edge_parity ^= hp  # hair edges permute with the hairs

    parity ^= (total_edge_parity * (d - 1)) % 2
    for c in range(r):
        parity ^= (hair_parities[c] * m[c]) % 2
    parity ^= (d * flips) % 2
    return parity


def _class_killed(adj, hairs, autos, m, d) -> bool:
    n = len(adj)
    d_par, m_par = d % 2, [mc % 2 for mc in m]
    # tadpole flip: (-1)^d
    if d_par and any(adj[v][v] > 0 for v in range(n)):
        return True
    # parallel-edge (or parallel-tadpole) swap: (-1)^(d-1)
    if not d_par:
        if any(adj[i][j] > 1 for i in range(n) for j in range(i + 1, n)):
            return True
        if any(adj[v][v] > 1 for v in range(n)):
            return True
    # two same-color hairs at one vertex swap: (-1)^(m_c + d - 1)
    for v in range(n):
        for c, count in enumerate(hairs[v]):
            if count >= 2 and (m_par[c] + d_par + 1) % 2:
                return True
    for sigma in autos:
        if sigma == tuple(range(n)):
            continue
        if _vertex_automorphism_sign_parity(adj, hairs, sigma, m, d) % 2:
            return True
    return False


def enumerate_classes(
    cfg: LinkConfig,
    s_vec,
    t: int,
    budget: EnumerationBudget | None = None,
) -> list[HairyGraphClass]:
    """All isomorphism classes of hairy graphs with hair counts ``s_vec``
    and complexity ``t``, each labeled with degree and killed status."""
    budget = budget or EnumerationBudget()
    s_vec = tuple(s_vec)
    if len(s_vec) != cfg.r or any(s < 0 for s in s_vec):
        raise ValueError(f"need {cfg.r} nonnegative hair counts, got {s_vec}")
    s_total = sum(s_vec)
    if s_total < 1:
        raise ValueError("at least one hair is required")
    if t < s_total - 1:
        raise ValueError(f"t={t} < |s|-1={s_total - 1} would mean negative genus")
    if t > budget.t_max or s_total > budget.hairs_max:
        raise BudgetExceeded(
            f"(|s|={s_total}, t={t}) exceeds budget "
            f"(t_max={budget.t_max}, hairs_max={budget.hairs_max})"
        )
    m, d = _rep_dimensions(cfg)
    out: list[HairyGraphClass] = []

    # no internal vertices: a single edge joining two hairs
    if s_total == 2 and t == 1:
        colors = tuple(sorted(c for c, s in enumerate(s_vec) for _ in range(s)))
        degree = (d - 1) - m[colors[0]] - m[colors[1]]
        killed = False
        n_autos = 1
        if colors[0] == colors[1]:
            # swapping the hairs reverses the edge
            swap_parity = (m[colors[0]] + d) % 2
            killed = bool(swap_parity)
            n_autos = 2
        out.append(
            HairyGraphClass(
                n_internal=0,
                adjacency=(),
                hair_counts=(),
                bare_hair_colors=(colors[0], colors[1]),
                key=f"(bare, colors={colors})",
                degree=degree,
                killed=killed,
                automorphism_count=n_autos,
            )
        )

    seen: set[str] = set()
    for n_int in range(1, 2 * t - s_total + 1):
        m_int = n_int + t - s_total
        if m_int < max(n_int - 1, 0):
            continue
        min_internal_degree = 1 if n_int >= 2 else 0
        for hair_mat in _hair_distributions(n_int, s_vec):
            hair_tot = [sum(hair_mat[v]) for v in range(n_int)]
            minima = [
                max(min_internal_degree, 3 - hair_tot[v]) for v in range(n_int)
            ]
            if sum(minima) > 2 * m_int:
                continue
            for degs in _degree_sequences(n_int, 2 * m_int, minima):
                for adj in _multigraphs_with_degrees(degs):
                    if not _is_connected(n_int, adj):
                        continue
                    key, autos = canonical_form(adj, hair_mat)
                    if key in seen:
                        continue
                    seen.add(key)
                    edges = m_int + s_total
                    degree = (
                        (d - 1) * edges
                        - d * n_int
                        - sum(mc * sc for mc, sc in zip(m, s_vec))
                    )
                    killed = _class_killed(adj, hair_mat, autos, m, d)
                    # graph automorphisms: vertex maps times the free
                    # permutations of same-color hairs at each vertex
                    n_autos = len(autos) * prod(
                        factorial(h) for row in hair_mat for h in row
                    )
                    out.append(
                        HairyGraphClass(
                            n_internal=n_int,
                            adjacency=adj,
                            hair_counts=hair_mat,
                            bare_hair_colors=None,
                            key=key,
                            degree=degree,
                            killed=killed,
                            automorphism_count=n_autos,
                        )
                    )
    _check_odd_signs(cfg, out, s_total)
    return sorted(out, key=lambda c: (c.n_internal, c.key))


def _check_odd_signs(cfg: LinkConfig, classes, s_total: int) -> None:
    """For odd m and d the contribution sign is (-1)^(|I| + |s|); raise otherwise."""
    if all(p == 1 for p in cfg.m_parities) and cfg.d_parity == 1:
        for cls in classes:
            if (cls.degree - (cls.n_internal + s_total)) % 2:
                raise RuntimeError(
                    f"class {cls.key}: degree {cls.degree} breaks the odd/odd sign "
                    f"(-1)^(|I| + |s|) with |I|={cls.n_internal}, |s|={s_total}"
                )


_oracle_cache: dict = {}


def euler_char_oracle(
    cfg: LinkConfig, s_vec, t: int, budget: EnumerationBudget | None = None
) -> int:
    """Euler characteristic of the (s, t) summand: the signed count
    sum of (-1)^degree over non-killed isomorphism classes."""
    s_vec = tuple(s_vec)
    active_budget = budget or EnumerationBudget()
    if t > active_budget.t_max or sum(s_vec) > active_budget.hairs_max:
        raise BudgetExceeded(
            f"(|s|={sum(s_vec)}, t={t}) exceeds budget "
            f"(t_max={active_budget.t_max}, hairs_max={active_budget.hairs_max})"
        )
    key = (cfg.m_parities, cfg.d_parity, tuple(sorted(s_vec, reverse=True)), t)
    symmetric = len(set(cfg.m_parities)) == 1
    cache_key = key if symmetric else (cfg.m_parities, cfg.d_parity, s_vec, t)
    got = _oracle_cache.get(cache_key)
    if got is None:
        use_vec = key[2] if symmetric else s_vec
        got = sum(
            cls.contribution for cls in enumerate_classes(cfg, use_vec, t, budget)
        )
        _oracle_cache[cache_key] = got
    return got
