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

Each class is generated only from vertex-ordered labellings, the
symmetry breaking of orderly generation (McKay 1998, "Isomorph-free
exhaustive generation"): hair rows ascend across the vertices, internal
degrees ascend within each run of equal hair rows, and the labels of
the neighbour refinement (McKay & Piperno 2014) ascend too.  This loses
no class.  Refinement labels are isomorphism-invariant ranks whose order
refines the order of (hair row, internal degree), so listing any
representative's vertices by ascending label gives a labelling that
passes all three tests; the hair and degree generators yield every
labelling with that shape, and ``_orderly_multigraphs`` every connected
multigraph on it that the refinement test can accept.  The canonical key
stays the only merge of the copies that survive, so the classes, their
keys and their order are those of the unfiltered enumeration; only the
labelling stored as a class's ``adjacency`` and ``hair_counts`` may be a
different one.

A multigraph has one form throughout: its symmetric multiplicity
matrix, a tuple of rows with tadpoles on the diagonal.  Only the
entries with i <= j are independent; the key and the orientation sign
read just those.

``_orderly_multigraphs`` backtracks over that matrix and yields each
leaf as it is completed: it places every vertex's tadpoles first, then
fills the rows off the diagonal in vertex order, each entry together
with its mirror.  It cuts a subtree on four tests, each sound because
every leaf below it is disconnected or has refinement labels that do
not ascend, so the connectivity test or ``_refine_partition(...,
ascending_only=True)`` would reject it:

(a) with n >= 2, a vertex whose tadpoles use up its degree has no edge;
(b) a vertex's initial invariant (hair row, degree, tadpoles) sorts below
    the previous vertex's, so the initial labels, its ranks, descend;
(c) once row v is complete, later rows add edges only between vertices
    above v that still have degree left; so if v's component (a bitmask)
    is not every vertex and none of its vertices has degree left, it is a
    component of every leaf below;
(d) once row v is complete, every neighbour of v - 1 and of v is placed;
    if the two share an initial label and v - 1's sorted (label,
    multiplicity) neighbour list is greater than v's, their round-one
    labels descend.

Every component closes at its highest vertex's row, so (c) leaves only
connected leaves.  Each leaf still passes through ``_refine_partition``
with ``ascending_only``, which tests the later rounds, and
``canonical_form``.

A leaf is a copy of the backtrack's matrix, and refinement reads its
neighbour lists from it.  Its initial labels are still the ranks of its
own invariants, computed again from the matrix rather than taken from
the backtrack's running labels: that ranking is what rejects a leaf
that an unsound cut let through.  Two steps then end early, and
both are exact.  ``_refine_partition`` returns a discrete ranking at
once, since a partition of singletons cannot split and the next round,
which ranks by the label first, would return the same labels.  And
``canonical_form`` on a discrete partition takes the one order it
allows, vertices by ascending label, with the identity as the only
automorphism: what the search over the orders within each cell returns
when every cell is a singleton.

Only two things depend on (m, d): a class's degree and whether it is
killed (the orientation character).  Everything else is parity-free: the
labelled multigraphs, the connectivity and orderly filters, the canonical
keys and the automorphism groups.  These are read from the ordered hair
counts ``s_vec`` and from t alone, so ``_class_shapes`` caches them by
``(s_vec, t)`` exactly, and all four parity classes share one
enumeration per cell.  A cell whose counts do not descend, such as the
mirror (s2, s1) of (s1, s2), is not enumerated: its classes are the
descending cell's with the hair columns permuted back, keyed again by
``canonical_form`` and sorted again.  ``enumerate_classes`` checks the
cell and the budget before the lookup, then computes degree, killed
status and automorphism count for its (m, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod

from .genfun import LinkConfig
from .rationals import CACHE_SIZE

__all__ = [
    "EnumerationBudget",
    "HairyGraphClass",
    "enumerate_classes",
    "euler_char_oracle",
    "canonical_form",
    "BudgetExceeded",
    "check_cell",
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

    ``adjacency`` is the symmetric multiplicity matrix: ``adjacency[i][j]``
    is the number of edges between internal vertices i and j, the
    diagonal counting tadpoles (one tadpole adds two to the valence).
    ``hair_counts[i][c]`` is the number of color-c hairs at internal
    vertex i.  The degenerate zero-internal-vertex class (a single edge
    joining two hairs) uses empty adjacency and stores its hair colors
    in ``bare_hair_colors``.
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


def _refine_partition(mat, hair_counts, ascending_only=False):
    """Iterated neighbour refinement of the vertex partition of the
    symmetric multiplicity matrix ``mat``.

    Labels are ranks in ascending order: first of the invariant (hair
    row, internal degree, tadpoles), then of (own label, sorted neighbour
    (label, multiplicity) pairs), until stable.  Each new ranking refines
    the previous one in the same order, and relabelling the vertices
    permutes the labels with them.  With ``ascending_only``, return None
    as soon as the labels do not ascend with the vertex numbers: no later
    round can sort them again.  A discrete ranking is returned at once:
    the next round ranks by the label first, so it would return it
    unchanged.
    """
    # a row's sum counts each tadpole once, and a tadpole adds two to the degree
    invariants = [(hair_counts[v], sum(row) + row[v], row[v]) for v, row in enumerate(mat)]
    rank = {inv: i for i, inv in enumerate(sorted(set(invariants)))}
    labels = [rank[inv] for inv in invariants]
    nbrs = None  # built for the first neighbour round, which many calls never reach
    while True:
        if ascending_only and any(a > b for a, b in zip(labels, labels[1:])):
            return None
        if len(rank) == len(labels):
            return labels
        if nbrs is None:
            nbrs = [[(w, k) for w, k in enumerate(row) if k and w != v] for v, row in enumerate(mat)]
        sigs = [
            (labels[v], tuple(sorted((labels[w], k) for w, k in nv)))
            for v, nv in enumerate(nbrs)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_labels = [rank[sig] for sig in sigs]
        if new_labels == labels:
            return labels
        labels = new_labels


def canonical_form(mat, hair_counts, labels=None):
    """Canonical key and full automorphism list of an internal multigraph,
    given as its symmetric multiplicity matrix ``mat`` (tadpoles on the
    diagonal), with per-vertex hair-count colors.

    Isomorphisms permute internal vertices arbitrarily but must preserve
    adjacency multiplicities and the per-color hair counts at each
    vertex.  Two graphs are isomorphic iff their keys are equal.  The
    returned automorphisms are all such self-maps (as permutation
    tuples); for the graph sizes the oracle handles, refinement keeps
    the candidate set tiny.

    The key is the least upper triangle of the matrix over the vertex
    orders that respect the refined cells, followed by the hair rows in
    that order.  Hair counts are part of the refinement invariant, so
    every candidate order has the same hair rows and only matrices are
    compared.  ``labels`` are ``_refine_partition``'s labels, when the
    caller has them already; the enumeration computes them first to drop
    labellings whose labels do not ascend (see the module docstring), and
    the key does not depend on which labelling of a class it is given.
    Without them, a matrix that is not symmetric raises ``ValueError``.
    When the labels are discrete, the vertices by ascending label are the
    one candidate order and the identity the one automorphism, so no
    search runs.
    """
    n = len(mat)
    if labels is None:
        if list(zip(*mat)) != list(map(tuple, mat)):
            raise ValueError(f"not a symmetric multiplicity matrix: {mat}")
        labels = _refine_partition(mat, hair_counts)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    if max(labels) == n - 1:  # labels are ranks 0, 1, ...: n distinct is discrete
        order = [0] * n
        for v, label in enumerate(labels):
            order[label] = v
        best = tuple(mat[order[i]][order[j]] for i, j in upper)
        return repr((best, tuple(hair_counts[v] for v in order))), [tuple(range(n))]
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(labels[v], []).append(v)
    cell_list = [cells[k] for k in sorted(cells)]

    best = None
    best_orders = []  # order[pos] = vertex placed at pos
    for arrangement in product(*(permutations(cell) for cell in cell_list)):
        order = [v for part in arrangement for v in part]
        enc = tuple(mat[order[i]][order[j]] for i, j in upper)
        if best is None or enc < best:
            best = enc
            best_orders = [order]
        elif enc == best:
            best_orders.append(order)
    # automorphisms: sigma = p^{-1} o q for canonical labelings p, q, where
    # q maps each vertex to its position
    first = best_orders[0]
    autos = []
    for order in best_orders:
        q = [0] * n
        for pos, v in enumerate(order):
            q[v] = pos
        autos.append(tuple(first[q[v]] for v in range(n)))
    hairs = tuple(hair_counts[v] for v in first)
    return repr((best, hairs)), autos


# -------------------------------------------------------------- enumeration


def _hair_distributions(n, s_vec):
    """Ways to place s_c hairs of each color on n vertices, with the
    vertices' hair rows in ascending (lexicographic) order."""
    rows = sorted(product(*(range(s + 1) for s in s_vec)))

    def rec(v, first, left):
        if v == n - 1:  # the last row takes what is left
            if left >= rows[first]:
                yield (left,)
            return
        for k in range(first, len(rows)):
            row = rows[k]
            if row[0] > left[0]:
                break
            tail = tuple(rest - h for h, rest in zip(row, left))
            if min(tail) >= 0:
                for more in rec(v + 1, k, tail):
                    yield (row,) + more

    yield from rec(0, 0, tuple(s_vec))


def _degree_sequences(n, total, minima, tied):
    """Internal degree sequences with the given total and per-vertex
    minima, ascending within each run of tied vertices (``tied[i]``:
    vertex i has the same hair row as vertex i - 1).

    Only the order inside a run is fixed: vertices with different hair
    rows are told apart by the refinement invariant before degree is,
    so ordering degrees across runs would lose classes.
    """

    def rec(i, remaining, prev):
        low = max(minima[i], prev) if tied[i] else minima[i]
        if i == n - 1:
            if remaining >= low:
                yield (remaining,)
            return
        for d in range(low, remaining + 1):
            for rest in rec(i + 1, remaining - d, d):
                yield (d,) + rest

    yield from rec(0, total, 0)


@lru_cache(maxsize=CACHE_SIZE)
def _row_fillings(total, caps):
    """Tuples of ``len(caps)`` multiplicities k_i <= caps[i] with the given
    total, in descending lexicographic order."""
    if not caps:
        return ((),) if total == 0 else ()
    return tuple(
        (k,) + rest
        for k in range(min(total, caps[0]), -1, -1)
        for rest in _row_fillings(total - k, caps[1:])
    )


def _orderly_multigraphs(hair_rows, degrees):
    """Connected multigraphs (with tadpoles) realizing the labelled degree
    sequence, yielded one at a time as a symmetric multiplicity matrix
    (a tuple of rows, tadpoles on the diagonal).

    Assigns every tadpole first, then the rows off the diagonal in order;
    tadpoles consume two degree units.  A subtree is cut as soon as every
    leaf in it is disconnected or fails the orderly test (cuts (a)-(d) of
    the module docstring); every other leaf is yielded.
    """
    n = len(degrees)
    shape = list(zip(hair_rows, degrees))
    if shape != sorted(shape):
        return  # (b) whatever the tadpoles
    if n == 1:
        if degrees[0] % 2 == 0:
            yield ((degrees[0] // 2,),)
        return
    ties = [v for v in range(1, n) if shape[v] == shape[v - 1]]
    mat = [[0] * n for _ in range(n)]  # symmetric while the rows are filled
    left = [0] * n
    labels = [0] * n  # initial refinement labels
    full = (1 << n) - 1

    def neighbour_labels(u):
        return sorted([(labels[w], k) for w, k in enumerate(mat[u]) if k and w != u])

    def descends(v):  # (d) for the complete rows v - 1 and v
        return labels[v - 1] == labels[v] and neighbour_labels(v - 1) > neighbour_labels(v)

    def rows(v, comp):
        """Fill row v off the diagonal, then rows v + 1, ..., n - 2;
        ``comp[u]`` is the bitmask of u's component so far."""
        tail = range(v + 1, n)
        row = mat[v]
        for filling in _row_fillings(left[v], tuple(left[v + 1:])):
            joined, live = comp[v], 0  # v's component; vertices with degree left
            for w, k in zip(tail, filling):
                row[w] = mat[w][v] = k
                left[w] -= k
                if k:
                    joined |= comp[w]
                if left[w]:
                    live |= 1 << w
            # (c): v's component is every vertex, or one of them has degree left
            if (joined == full or joined & live) and not (v and descends(v)):
                if v < n - 2:
                    yield from rows(v + 1, tuple([joined if m & joined else m for m in comp]))
                elif not live and not descends(v + 1):  # row n - 1 is empty
                    yield tuple(map(tuple, mat))
            for w, k in zip(tail, filling):
                left[w] += k
        for w in tail:
            row[w] = mat[w][v] = 0

    # (a): a vertex keeps a degree unit for an edge, 2 k < degree
    for loops in product(*(range((d + 1) // 2) for d in degrees)):
        if any(loops[v - 1] > loops[v] for v in ties):
            continue  # (b)
        for v, k in enumerate(loops):
            mat[v][v] = k
            left[v] = degrees[v] - 2 * k
            # ranks of the invariants, which ascend
            labels[v] = v and labels[v - 1] + ((shape[v], k) != (shape[v - 1], loops[v - 1]))
        yield from rows(0, tuple(1 << u for u in range(n)))


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
    """0 for an even permutation ``perm`` (an image tuple), 1 for an odd one."""
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

    A cycle of L blocks of k items each permutes its items with parity
    (L - 1) k: edge instances move in slot blocks, k = adj[i][j], and the
    hairs of colour c in vertex blocks, k = hairs[v][c], kept by sigma.
    """
    n = len(adj)
    slots = [(i, j) for i in range(n) for j in range(i, n) if adj[i][j] > 0]
    slot_index = {s: k for k, s in enumerate(slots)}
    slot_perm = []
    flips = 0
    for i, j in slots:
        a, b = sigma[i], sigma[j]
        if i != j and a > b:
            flips += adj[i][j]
            a, b = b, a
        slot_perm.append(slot_index[(a, b)])
    edge_parity = sum((length - 1) * adj[slots[k][0]][slots[k][1]]
                      for k, length in _cycles(slot_perm))
    vertex_cycles = list(_cycles(sigma))
    hair_parities = [
        sum((length - 1) * hairs[v][c] for v, length in vertex_cycles) for c in range(len(m))
    ]
    edge_parity += sum(hair_parities)  # hair edges permute with the hairs
    hair_sign = sum(hp * mc for hp, mc in zip(hair_parities, m))
    return (_perm_parity(sigma) * d + edge_parity * (d - 1) + hair_sign + flips * d) % 2


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


def check_cell(
    r: int, s_vec, t: int, budget: EnumerationBudget | None = None
) -> tuple[int, ...]:
    """The hair counts ``s_vec`` as a tuple, once the (s, t) cell is one
    the enumeration can take: ``r`` nonnegative counts, at least one hair,
    genus t - |s| + 1 >= 0, and within ``budget``.  Depends on no parity,
    so a caller can check a cell before it builds a ``LinkConfig``."""
    budget = budget or EnumerationBudget()
    s_vec = tuple(s_vec)
    if len(s_vec) != r or any(s < 0 for s in s_vec):
        raise ValueError(f"need {r} nonnegative hair counts, got {s_vec}")
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
    return s_vec


@lru_cache(maxsize=CACHE_SIZE)
def _class_shapes(s_vec: tuple[int, ...], t: int):
    """The parity-free part of ``enumerate_classes`` for a cell that
    ``check_cell`` accepts: the bare edge's two hair colours (None unless
    |s| = 2 and t = 1), and (n_internal, adjacency, hair_counts, key,
    automorphisms) of every other class, in (n_internal, key) order.
    Only a cell whose counts descend is enumerated; any other is read
    from it (see the module docstring)."""
    order = sorted(range(len(s_vec)), key=lambda c: -s_vec[c])  # stable
    if order == list(range(len(s_vec))):
        return _enumerated_shapes(s_vec, t)
    bare, shapes = _class_shapes(tuple(s_vec[c] for c in order), t)
    back = [order.index(c) for c in range(len(s_vec))]  # column of colour c
    renamed = []
    for n_int, adj, hair_mat, _key, _autos in shapes:
        hair_mat = tuple(tuple(row[i] for i in back) for row in hair_mat)
        key, autos = canonical_form(adj, hair_mat)
        renamed.append((n_int, adj, hair_mat, key, tuple(autos)))
    renamed.sort(key=lambda shape: (shape[0], shape[3]))
    if bare is not None:
        bare = tuple(sorted(order[c] for c in bare))
    return bare, tuple(renamed)


def _enumerated_shapes(s_vec, t):
    """``_class_shapes`` of a cell by enumerating its classes."""
    s_total = sum(s_vec)
    bare = None
    if s_total == 2 and t == 1:
        bare = tuple(sorted(c for c, s in enumerate(s_vec) for _ in range(s)))
    shapes = []
    seen: set[str] = set()
    for n_int in range(1, 2 * t - s_total + 1):
        m_int = n_int + t - s_total  # >= n_int - 1, as check_cell has t >= |s| - 1
        min_internal_degree = 1 if n_int >= 2 else 0
        for hair_mat in _hair_distributions(n_int, s_vec):
            hair_tot = [sum(hair_mat[v]) for v in range(n_int)]
            minima = [
                max(min_internal_degree, 3 - hair_tot[v]) for v in range(n_int)
            ]
            if sum(minima) > 2 * m_int:
                continue
            tied = [v > 0 and hair_mat[v] == hair_mat[v - 1] for v in range(n_int)]
            for degs in _degree_sequences(n_int, 2 * m_int, minima, tied):
                for adj in _orderly_multigraphs(hair_mat, degs):
                    labels = _refine_partition(adj, hair_mat, ascending_only=True)
                    if labels is None:
                        continue  # a label-ordered copy of it is generated too
                    key, autos = canonical_form(adj, hair_mat, labels)
                    if key in seen:
                        continue
                    seen.add(key)
                    shapes.append((n_int, adj, hair_mat, key, tuple(autos)))
    shapes.sort(key=lambda shape: (shape[0], shape[3]))
    return bare, tuple(shapes)


def enumerate_classes(
    cfg: LinkConfig,
    s_vec,
    t: int,
    budget: EnumerationBudget | None = None,
) -> list[HairyGraphClass]:
    """All isomorphism classes of hairy graphs with hair counts ``s_vec``
    and complexity ``t``, each labeled with degree and killed status."""
    s_vec = check_cell(cfg.r, s_vec, t, budget)
    bare, shapes = _class_shapes(s_vec, t)
    m, d = _rep_dimensions(cfg)
    hair_degree = sum(mc * sc for mc, sc in zip(m, s_vec))
    out: list[HairyGraphClass] = []
    if bare is not None:  # no internal vertices: a single edge joining two hairs
        a, b = bare
        out.append(
            HairyGraphClass(
                n_internal=0,
                adjacency=(),
                hair_counts=(),
                bare_hair_colors=bare,
                key=f"(bare, colors={bare})",
                degree=(d - 1) - hair_degree,
                # swapping two hairs of one colour reverses the edge
                killed=a == b and bool((m[a] + d) % 2),
                automorphism_count=2 if a == b else 1,
            )
        )
    for n_int, adj, hair_mat, key, autos in shapes:
        out.append(
            HairyGraphClass(
                n_internal=n_int,
                adjacency=adj,
                hair_counts=hair_mat,
                bare_hair_colors=None,
                key=key,
                degree=(d - 1) * (n_int + t) - d * n_int - hair_degree,  # |E| = |I| + t
                killed=_class_killed(adj, hair_mat, autos, m, d),
                # graph automorphisms: vertex maps times the free
                # permutations of same-color hairs at each vertex
                automorphism_count=len(autos) * prod(
                    factorial(h) for row in hair_mat for h in row
                ),
            )
        )
    _check_odd_signs(cfg, out, sum(s_vec))
    return out


def _check_odd_signs(cfg: LinkConfig, classes, s_total: int) -> None:
    """For odd m and d the contribution sign is (-1)^(|I| + |s|); raise otherwise."""
    if all(p == 1 for p in cfg.m_parities) and cfg.d_parity == 1:
        for cls in classes:
            if (cls.degree - (cls.n_internal + s_total)) % 2:
                raise RuntimeError(
                    f"class {cls.key}: degree {cls.degree} breaks the odd/odd sign "
                    f"(-1)^(|I| + |s|) with |I|={cls.n_internal}, |s|={s_total}"
                )


def euler_char_oracle(
    cfg: LinkConfig, s_vec, t: int, budget: EnumerationBudget | None = None
) -> int:
    """Euler characteristic of the (s, t) summand: the signed count
    sum of (-1)^degree over non-killed isomorphism classes."""
    s_vec = check_cell(cfg.r, s_vec, t, budget)
    if len(set(cfg.m_parities)) == 1:
        # colours of one parity are interchangeable: a cell and its mirror
        # have one answer, and share one shape enumeration
        s_vec = tuple(sorted(s_vec, reverse=True))
    return sum(cls.contribution for cls in enumerate_classes(cfg, s_vec, t, budget))
