"""Cycle index sums: classical species, colored tensor powers, dihedral
induced characters, hairy-graph supercharacters, and the positive-arity
modular-envelope supercharacters.

A cycle index sum encodes a (virtual, graded) symmetric-sequence
representation as a series in power-sum variables p_1, p_2, ...:
``Z_V = sum_k (1/k!) sum_{sigma in Sigma_k} tr(sigma) prod_l p_l^{j_l(sigma)}``
with ``j_l`` the number of l-cycles.  Weight(p_l) = l grades by arity.
Specializing ``p_1 <- x, p_(l>=2) <- 0`` yields the exponential
generating function of (graded) dimensions; substituting the colored
power sums of :func:`linkchi.genfun.color_power_sum` computes hom spaces
out of a colored tensor sequence.  Supercharacters are characters of the
alternating sum over homological degree, i.e. the z = -1 specialization.
"""

from __future__ import annotations

from collections import Counter

from .genfun import LinkConfig, _homological_degree, _parity_of, _z_span, color_power_sum
from .rationals import QQ, _cycles, _perm_parity, mobius, totient
from .series import (
    SeriesError,
    TruncatedSeries,
    TruncationSpec,
    VariableSet,
    _LinearSum,
)
from .special import _mobius_double_sum

__all__ = [
    "z_com",
    "z_lie_cyclic",
    "z_colors",
    "specialize_colors",
    "z_tree_homology",
    "z_hedgehog_homology",
    "z_graph_supercharacter",
    "mod_envelope_supercharacter",
    "mod_envelope_supercharacter_direct",
    "feynman_regrade",
    "dihedral_permutation",
    "hedgehog_symmetry_sign",
    "induced_cycle_index",
]


def _p_term(vars_, spec, l: int, coeff=1, **extra) -> TruncatedSeries:
    """coeff * p_l * extra; 0 past the weight bound, where p_l is absent."""
    if l > vars_.pcount:
        return TruncatedSeries.zero(vars_, spec)
    return TruncatedSeries.term(vars_, spec, {f"p{l}": 1, **extra}, coeff)


def z_com(weight_max: int) -> TruncatedSeries:
    """Cycle index sum of the one-dimensional trivial representations:
    exp(sum_l p_l / l), truncated at weight W."""
    if weight_max < 0:
        raise ValueError("weight_max must be >= 0")
    vars_ = VariableSet(pcount=weight_max)
    spec = TruncationSpec(p_weight_max=weight_max)
    terms = {vars_.monomial({f"p{l}": 1}): QQ(1, l) for l in range(1, weight_max + 1)}
    return TruncatedSeries(vars_, spec, terms).exp()


def _log_one_minus_p(vars_, spec, l: int, weight_max: int, sign: int = 1):
    """log(1 - sign * p_l) expanded to the weight bound."""
    terms = {
        vars_.monomial({f"p{l}": k}): QQ(-(sign ** k), k) for k in range(1, weight_max // l + 1)
    }
    return TruncatedSeries(vars_, spec, terms)


def z_lie_cyclic(weight_max: int) -> TruncatedSeries:
    """Cycle index sum of the cyclic Lie sequence Lie((n)), n >= 1:
    (1 - p_1) sum_l mu(l)/l log(1 - p_l) + p_1.

    The arity-one term is compensated to zero; dimensions come out as
    dim Lie((k)) = (k-2)! for k >= 2, checked via the p_1 <- x EGF.
    """
    if weight_max < 1:
        raise ValueError("weight_max must be >= 1")
    vars_ = VariableSet(pcount=weight_max)
    spec = TruncationSpec(p_weight_max=weight_max)
    logs = _LinearSum(vars_, spec)
    for l in range(1, weight_max + 1):
        ml = mobius(l)
        if ml:
            logs.add(QQ(ml, l), _log_one_minus_p(vars_, spec, l, weight_max))
    p1 = _p_term(vars_, spec, 1)
    one = TruncatedSeries.one(vars_, spec)
    return (one - p1) * logs.series() + p1


def z_colors(cfg: LinkConfig, weight_max: int) -> TruncatedSeries:
    """Cycle index sum of the colored tensor sequence V^(tensor bullet):
    exp(sum_l alpha_l(z, x) p_l / l) with
    alpha_l = sum_i (-1)^(m_i (l-1)) x_i^l z^(m_i l).

    The sign appears because an l-cycle acts on the l-th tensor power of
    an odd-degree line by (-1)^(l-1); x_i carries the i-th Hodge grading
    and z the homological degree m_i per tensor factor.
    """
    m_values, _ = cfg.require_values()
    if weight_max < 0:
        raise ValueError("weight_max must be >= 0")
    vars_ = VariableSet(hodge_count=cfg.r, has_z=True, pcount=weight_max)
    spec = TruncationSpec(
        p_weight_max=weight_max,
        x_total_max=weight_max,
        z_window=(0, max(m_values) * weight_max),
    )
    terms = {}
    for l in range(1, weight_max + 1):
        for i, m in enumerate(m_values):
            sign = -1 if (m * (l - 1)) % 2 else 1
            terms[vars_.monomial({f"p{l}": 1, f"x{i + 1}": l, "z": m * l})] = QQ(sign, l)
    return TruncatedSeries(vars_, spec, terms).exp()


def _specialization_targets(z: TruncatedSeries, cfg: LinkConfig, mode: str):
    carries_u = z.vars.has_u
    weight_max = z.spec.p_weight_max
    if weight_max is None:
        raise SeriesError("cycle index sum needs a p-weight bound")
    if mode not in ("euler", "dims"):
        raise ValueError(f"mode must be 'euler' or 'dims', got {mode!r}")
    z_window = None
    if mode == "dims":
        m_values, d = cfg.require_values()
        span = _z_span(d, max(m_values), weight_max)
        z_window = (-span, span)
    vars_ = VariableSet(hodge_count=cfg.r, has_u=carries_u, has_z=mode == "dims")
    spec = TruncationSpec(
        u_max=z.spec.u_max if carries_u else None,
        x_total_max=weight_max,
        z_window=z_window,
    )
    return vars_, spec


def specialize_colors(
    z: TruncatedSeries, cfg: LinkConfig, mode: str = "euler"
) -> TruncatedSeries:
    """Substitute the colored power sums for every p_l.

    Euler mode computes the generating function of Euler characteristics
    of hom(V^(tensor), -) (and sends any carried z to -1); dimension
    mode keeps the z-grading and needs integer dimensions in ``cfg``.
    """
    vars_, spec = _specialization_targets(z, cfg, mode)
    weight_max = z.spec.p_weight_max
    assignments = {
        f"p{l}": color_power_sum(cfg, vars_, spec, l, mode)
        for l in range(1, weight_max + 1)
    }
    if z.vars.has_z:
        if mode == "euler":
            assignments["z"] = TruncatedSeries.constant(vars_, spec, -1)
        else:
            assignments["z"] = TruncatedSeries.term(vars_, spec, {"z": 1})
    return z.substitute(assignments)


def _graded_p_spec(d: int, weight_max: int):
    """Variables p, u, z and the spec of the tree and hedgehog cycle indices."""
    span = _z_span(d, 0, weight_max)
    spec = TruncationSpec(
        p_weight_max=weight_max, u_max=weight_max, z_window=(-span, span)
    )
    return VariableSet(has_u=True, has_z=True, pcount=weight_max), spec


def z_tree_homology(d: int, weight_max: int) -> TruncatedSeries:
    """Cycle index sum of the homology of the genus-zero labeled hairy
    graph complexes (complexes of trees) in ambient dimension d.

    Tree-level homology is the cyclic Lie sequence twisted by sgn^d, placed
    in complexity k - 1 and degree k(d-2) - d + 3 (the genus-0 case of
    :func:`linkchi.genfun._homological_degree`): an arity-w monomial with
    n p-factors gets u^(w-1) z^((d-2)(w-1)+1) and the sign (-1)^(d(w-n)).
    """
    if weight_max < 1:
        raise ValueError("weight_max must be >= 1")
    vars_, spec = _graded_p_spec(d, weight_max)
    t = {"pw": 1, 1: -1}
    parity = {"pw": d, **{f"p{l}": -d for l in range(1, weight_max + 1)}}
    images = {"u": t, "z": _homological_degree(d, t, 0)}
    return z_lie_cyclic(weight_max).regrade(vars_, spec, images, parity)


def _z_dihedral_induced(weight_max: int, d_parity: int) -> TruncatedSeries:
    """Induced dihedral cycle index of the hedgehog orientation character
    for ambient parity d, summed over all n >= 1:
    ``-1/2 sum_l phi(l)/l log(1 - (-1)^(d(l-1)) p_l)
    + (-1)^(d+1) (p_1^2 + (-1)^d p_2 - 2 p_1) / (4 (1 - (-1)^d p_2))``.
    """
    vars_ = VariableSet(pcount=weight_max)
    spec = TruncationSpec(p_weight_max=weight_max)
    out = _LinearSum(vars_, spec)
    for l in range(1, weight_max + 1):
        sign = -1 if (d_parity * (l - 1)) % 2 else 1
        out.add(QQ(-totient(l), 2 * l), _log_one_minus_p(vars_, spec, l, weight_max, sign))
    p1 = _p_term(vars_, spec, 1)
    p2 = _p_term(vars_, spec, 2)
    one = TruncatedSeries.one(vars_, spec)
    sd = -1 if d_parity % 2 else 1
    numer = p1 * p1 + p2.scaled(sd) - p1.scaled(2)
    denom = one - p2.scaled(sd)
    out.add_product(QQ(-sd, 4), numer, denom.inverse())
    return out.series()


def z_hedgehog_homology(d: int, weight_max: int) -> TruncatedSeries:
    """Cycle index sum of the homology of the genus-one labeled hairy
    graph complexes (spanned by hedgehogs) in ambient dimension d.

    The n-hair hedgehog sits in complexity n and degree n(d-2) (the genus-1
    case of :func:`linkchi.genfun._homological_degree`); the symmetric
    group action is induced from the dihedral orientation character, so
    this is the induced dihedral cycle index with every arity-n monomial
    placed at u^n z^((d-2)n).
    """
    if weight_max < 1:
        raise ValueError("weight_max must be >= 1")
    vars_, spec = _graded_p_spec(d, weight_max)
    t = {"pw": 1}
    images = {"u": t, "z": _homological_degree(d, t, 1)}
    return _z_dihedral_induced(weight_max, d % 2).regrade(vars_, spec, images)


def z_graph_supercharacter(d_parity, weight_max: int, t_max: int) -> TruncatedSeries:
    """Supercharacter cycle index of the symmetric group action on the
    labeled hairy graph complexes, graded by complexity u.

    ``sum_{k,l,j} mu(k)/(kj) S_j(-A_{l,k}) (sigma_d l u^{kl}/F_l(u^k))^j
    + sum_{k,l} mu(k)/(kl) (l A_{l,k}) log F_l(u^k)`` with
    ``A_{l,k} = (1/l) sum_{a|l} mu(l/a) p_{ak}``: the Moebius double sum
    of :mod:`linkchi.special` at the power sums ``P_n = -p_n``.
    Substituting the Euler power sums recovers the homotopy generating
    function F^pi.
    """
    d_parity = _parity_of(d_parity)
    if weight_max < 1 or t_max < 1:
        raise ValueError("weight_max and t_max must be >= 1")
    sigma_d = 1 if d_parity else -1
    vars_ = VariableSet(has_u=True, pcount=weight_max)
    spec = TruncationSpec(p_weight_max=weight_max, u_max=t_max)
    return _mobius_double_sum(
        vars_, spec, "u", sigma_d, t_max, lambda n: _p_term(vars_, spec, n, -1)
    )


def _twist_sign(twist: str, weight_max: int, genus_max: int) -> int:
    """+1 for the 'plain' twist, -1 for 'det'; rejects other twists and bounds."""
    twist = twist.lower()
    if twist not in ("plain", "det"):
        raise ValueError(f"twist must be 'plain' or 'det', got {twist!r}")
    if weight_max < 1 or genus_max < 0:
        raise ValueError("weight_max >= 1 and genus_max >= 0 required")
    return 1 if twist == "plain" else -1


def mod_envelope_supercharacter(
    twist: str, weight_max: int, genus_max: int
) -> TruncatedSeries:
    """Positive-arity supercharacter of the modular envelope of the
    homotopy Lie cyclic operad ('plain'), or of its Det-twist ('det'),
    graded by genus hbar and arity weight.

    plain: ``hbar * Z_odd(u <- hbar, p_l <- -p_l / hbar^l)``;
    det:  ``-hbar * Z_even(u <- hbar, p_l <- +p_l / hbar^l)``,
    where Z_odd/Z_even are the labeled graph supercharacters for odd and
    even ambient parity.  A monomial u^t of p-weight w goes to
    hbar^(t - w + 1).  Arity zero is excluded by construction; a negative
    genus raises :class:`SeriesError` (the cancellation this encodes is the
    point of the construction, not a truncation artifact).
    """
    sign = _twist_sign(twist, weight_max, genus_max)
    t_max = max(genus_max + weight_max - 1, 1)
    z = z_graph_supercharacter("odd" if sign > 0 else "even", weight_max, t_max)
    vars_ = VariableSet(has_hbar=True, pcount=weight_max)
    spec = TruncationSpec(p_weight_max=weight_max, hbar_window=(0, genus_max))
    # hbar^(t - w + 1), and the sign sign * (-sign)^(number of p-factors)
    parity = {f"p{l}": 1 for l in range(1, weight_max + 1)} if sign > 0 else {}
    return z.regrade(vars_, spec, {"hbar": {"u": 1, "pw": -1, 1: 1}}, parity, sign)


def mod_envelope_supercharacter_direct(
    twist: str, weight_max: int, genus_max: int
) -> TruncatedSeries:
    """Second route to :func:`mod_envelope_supercharacter`: evaluate the
    hbar-Laurent sums directly (S_j at p_{ak}/hbar^{ak} arguments) and
    multiply by hbar at the end.  Used as a cross-check oracle."""
    sign = _twist_sign(twist, weight_max, genus_max)
    t_max = max(genus_max + weight_max - 1, 1)
    vars_ = VariableSet(has_hbar=True, pcount=weight_max)
    # Every monomial here satisfies hbar-exp >= -(p-weight) >= -W, and a
    # monomial with hbar-exp e and p-weight w can still reach final genus
    # <= G as long as e - (W - w) <= G - 1, so (-W, G + W - 1) loses nothing.
    spec = TruncationSpec(
        p_weight_max=weight_max,
        hbar_window=(-weight_max, genus_max + weight_max - 1),
    )
    # plain: P_n = p_n / hbar^n, sigma = +1; det: P_n = -p_n / hbar^n,
    # sigma = -1 and the sum negated.  Times hbar, then a negative genus
    # raises and genus above G drops.
    body = _mobius_double_sum(
        vars_, spec, "hbar", sign, t_max,
        lambda n: _p_term(vars_, spec, n, sign, hbar=-n),
    )
    out_spec = TruncationSpec(p_weight_max=weight_max, hbar_window=(0, genus_max))
    return body.regrade(vars_, out_spec, {"hbar": {"hbar": 1, 1: 1}}, sign=sign)


def feynman_regrade(z: TruncatedSeries) -> TruncatedSeries:
    """-Z with every p_l <- -p_l: passes between the modular envelope
    supercharacters and those of the Feynman transforms of the
    commutative modular operad.  An involution."""
    parity = {f"p{l + 1}": 1 for l in range(z.vars.pcount)}
    return z.regrade(z.vars, z.spec, parity=parity, sign=-1)


# ------------------------------------------------------------------ dihedral


def dihedral_permutation(n: int, element: tuple[str, int]) -> tuple[int, ...]:
    """Permutation of n cyclically arranged points under a dihedral element.

    ``('r', k)`` rotates by 2 pi k / n (i -> i + k); ``('s', j)`` reflects
    about the axis through the point j/2 (i -> j - i).  Returned as the
    image tuple of 0..n-1.
    """
    kind, k = element
    if kind == "r":
        return tuple((i + k) % n for i in range(n))
    if kind == "s":
        return tuple((k - i) % n for i in range(n))
    raise ValueError(f"unknown dihedral element {element!r}")


def hedgehog_symmetry_sign(n: int, d: int, element: tuple[str, int]) -> int:
    """Sign by which a dihedral symmetry acts on the standard n-hedgehog
    orientation: sign(perm)^d * or(element)^(n + d + 1), where 'or' is -1
    exactly on reflections."""
    perm = dihedral_permutation(n, element)
    sign = -1 if (_perm_parity(perm) * d) % 2 else 1
    if element[0] == "s" and (n + d + 1) % 2:
        sign = -sign
    return sign


def induced_cycle_index(pairs, weight_max: int) -> TruncatedSeries:
    """Cycle index of a representation induced along a homomorphism
    H -> Sigma_n: (1/|H|) sum_h chi(h) prod_l p_l^(j_l(image of h)).

    ``pairs`` lists (image permutation, trace) for *every* element of H;
    elements with equal images must each appear (the homomorphism need
    not be injective, e.g. dihedral groups at n <= 2).
    """
    vars_ = VariableSet(pcount=weight_max)
    spec = TruncationSpec(p_weight_max=weight_max)
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (permutation, trace) pair")
    traces: dict[tuple[int, ...], QQ] = {}
    for perm, trace in pairs:
        if len(perm) > weight_max:
            continue  # every term of a permutation of n points has weight n
        mono = vars_.monomial(Counter(f"p{l}" for _start, l in _cycles(perm)))
        traces[mono] = traces.get(mono, 0) + QQ(trace)
    return TruncatedSeries(vars_, spec, {m: t / len(pairs) for m, t in traces.items()})
