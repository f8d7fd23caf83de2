"""Sparse truncated multivariate formal power series over exact rationals.

A series lives over a fixed :class:`VariableSet`: Hodge variables
``x1..xr`` (one per link component), the complexity variable ``u``, the
homological-degree variable ``z``, the genus variable ``hbar``, and
power-sum variables ``p1..pL``.  Every exponent is nonnegative, and a
monomial with a negative one raises :class:`SeriesError` wherever it is
handed to a series.

Truncation is an explicit contract (:class:`TruncationSpec`): monomials
inside the bounds are exact, monomials outside are *undefined* — asking
for them raises :class:`OutOfBoundsError` rather than answering 0,
because silent truncation bugs are the dominant failure mode of series
engines.  Every operation returns a series whose spec is the meet
(componentwise shrink) of its operands' specs.

Exactness inside the bounds holds because every truncated direction only
grows under multiplication: no exponent is negative, so a term past an
upper bound never multiplies back below it, and two terms at or above the
low end of a z or hbar window (which holds no negative exponent either)
multiply to one above it.  A change of grading
(:meth:`TruncatedSeries.regrade`, an affine map by name) raises instead of
dropping a term below a lower bound.

Climbing directions.  :attr:`TruncationSpec.windows` gives one window
per direction of ``_Layout.metric`` (x-total, u, z, hbar, p-weight).  A
series climbs in each direction that its spec bounds above: there the
powers of the series only rise, until they pass the bound.  A monomial's
weight is its exponent sum over those directions; it bounds the
plethystic sums of :mod:`linkchi.special`, and a replacement for ``u`` in
:meth:`TruncatedSeries.substitute` must have positive weight everywhere.
``exp``, ``log`` and ``inverse`` grade by one climbing direction where
every monomial is positive there (the one with the smallest bound), else
by that weight (a monomial of weight 0 is not nilpotent and raises).

Every series stores its terms in one form, the integer form
:attr:`TruncatedSeries._ints`: one denominator, the lcm of the
coefficients' denominators, and a dict from packed monomial keys to nonzero
``int`` numerators.  The constructor packs the monomials it is given and
puts their coefficients over that denominator once.  A :class:`_LinearSum`
records scaled series and scaled products, then settles them once over the
lcm of their denominators, its pair loop adding keys and multiplying
numerators as plain ``int``: per product in ``*``, per grade in ``exp``
and ``log``, per sum in ``+``, ``-``, ``inverse``, ``substitute`` and the
sums of :mod:`linkchi.special`.  Negation and ``scaled`` multiply the
numerators, and ``regrade``, ``truncate`` and ``grade_extract`` move or
filter keys, so a chain of operations builds no ``QQ`` and no tuple.
``coeffs`` is a read-only ``{monomial: QQ}`` view for printing and tests,
folded from the integer form the first time it is read; ``rows`` and
``to_text`` render from the keys without it.

Packed keys (Monagan & Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", CASC 2007).  A monomial's key is one
``int`` of ``_FIELD_BITS``-bit fields, from the low end: one per ``x_i``,
``u``, one per ``p_l``, then the derived x-total and p-weight (present
when the set has x or p variables), then ``z`` and ``hbar``.  A field holds
its exponent, so the key of the monomial 1 is 0 and the key of a product
is ``k1 + k2``.  Every stored exponent, x-total and p-weight lies below
``2^(F-3)`` (F the field width; the overflow rule: a monomial that does
not fit raises :class:`SeriesError`, whatever the spec, and never wraps),
so a field of a product lies in ``[0, 2^(F-2))`` and its top bit, the
guard bit, is clear.

Bound test.  For a spec, each field has bounds ``[lo, hi]``: the spec's,
those it implies (an x_i is at most the x-total bound, a p_l at most the
p-weight bound over l), or ``[0, storage limit]`` where the spec sets none.
``ADD`` holds ``2^(F-1) - 1 - hi`` per field, ``SUB`` holds ``lo`` and
``GUARD`` every guard bit.  A key lies in the spec iff ``((key + ADD) |
(key - SUB)) & GUARD == 0``: a field past ``hi`` sets its guard bit in
``key + ADD``, which never carries; a field below ``lo`` wraps in ``key -
SUB`` and sets its guard bit there (a borrow it passes upward can only add
guard bits above a field that already failed).

The pair loop takes no test: it cuts at two fields.  The top field is a
key's most significant one (hbar, else z, else the p-weight, else the
x-total, else u), so sorting keys as integers sorts them by it, and no
field of a sum of two stored keys carries.  The right operand's buckets,
by the bucket field (u, or the p-weight without u), end past the left
key's room in that field, and a bucket sorted by raw key ends at the
first k2 with ``top(k1) + top(k2)`` past the top bound H, that is at
``k2 >= (H + 1 - top(k1)) << shift`` (the fields of k2 below its top one
read less than ``1 << shift``); every pair before it is kept.  The cut is
exact where the spec bounds every field (``OVER == 0``: an x_i through
the x-total, a p_l through the p-weight) and each bounded direction among
the five is the bucket field or the top field: every x_i is at most the
x-total and every p_l at most the p-weight over l, so a pair lies under
every upper bound exactly when its bucket fits and its top field is at
most H.  It lies above the low end of a window too: two terms at or above
it sum past it.  Elsewhere (the x-total with the p-weight or a z window,
say), and where an operand under a wider spec may hold terms below a
window, the sum drops the keys outside its spec with one bound test per
key when it settles (:meth:`_LinearSum.settle`).  A product under a spec
that bounds a field only by storage tests its keys at once, so that one
in every bound of the spec but past the storage limit raises.

Series are immutable after construction; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping

from .rationals import CACHE_SIZE, QQ

__all__ = [
    "VariableSet",
    "TruncationSpec",
    "TruncatedSeries",
    "OutOfBoundsError",
    "SeriesError",
]

_NO_BOUND = None

_FIELD_BITS = 24
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXP_LIMIT = 1 << (_FIELD_BITS - 3)  # every exponent, x-total and p-weight stays below
_GUARD = 1 << (_FIELD_BITS - 1)
# the directions of ``_Layout.metric`` and ``TruncationSpec.windows``, in order
_DIRECTIONS = ("xt", "u", "z", "hbar", "pw")


class SeriesError(ValueError):
    """Contract violation in a series operation."""


class OutOfBoundsError(SeriesError):
    """A coefficient outside the truncation bounds was requested."""


@dataclass(frozen=True)
class VariableSet:
    """Ordered family of variables: x1..xr, u, z, hbar, p1..pL.  ``index``,
    ``monomial`` and the packed-key layout all read ``positions``."""

    hodge_count: int = 0
    has_u: bool = False
    has_z: bool = False
    has_hbar: bool = False
    pcount: int = 0

    @cached_property
    def names(self) -> tuple[str, ...]:
        out = [f"x{i + 1}" for i in range(self.hodge_count)]
        if self.has_u:
            out.append("u")
        if self.has_z:
            out.append("z")
        if self.has_hbar:
            out.append("hbar")
        out.extend(f"p{l + 1}" for l in range(self.pcount))
        return tuple(out)

    @cached_property
    def positions(self) -> Mapping[str, int]:
        """Read-only ``{name: position in a monomial tuple}``, the one
        table of where each variable sits."""
        return MappingProxyType({name: i for i, name in enumerate(self.names)})

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """The position of ``name``; ``KeyError(name)`` when the set lacks it."""
        return self.positions[name]

    def monomial(self, exponents: Mapping[str, int]) -> tuple[int, ...]:
        """The monomial ``{name: e}``, every other exponent 0; a name the
        set lacks raises ``KeyError``."""
        mono = [0] * len(self.names)
        positions = self.positions
        for name, e in exponents.items():
            mono[positions[name]] = e
        return tuple(mono)

    @cached_property
    def layout(self) -> "_Layout":
        """The packed-key layout of this variable set, shared by every
        equal set (:func:`_layout`)."""
        return _layout(self)


class _Layout:
    """Packed monomial keys for one :class:`VariableSet` (module docstring).

    ``decoded`` maps each variable and direction name (``"xt"``, ``"u"``,
    ``"z"``, ``"hbar"``, ``"pw"``; ``"0"`` for a missing one) to the
    expression that reads it from a key ``k``; ``unpack``, ``metric`` (a
    key's ``(x_total, u, z, hbar, p_weight)``) and :func:`_regrader` are
    compiled from it, and ``pack`` and ``fits`` (the monomial has the set's
    arity and obeys the sign and overflow rules) once per layout.  ``pack``
    trusts its argument, so a monomial from outside goes through ``fits``
    first.
    """

    def __init__(self, vars_: VariableSet):
        at = vars_.positions
        xs = [f"x{i + 1}" for i in range(vars_.hodge_count)]
        ps = [f"p{l + 1}" for l in range(vars_.pcount)]
        # (name, kind, exponent expression in a monomial m, l of p_l), low field first
        fields = [(x, "x", f"m[{at[x]}]", 0) for x in xs]
        if "u" in at:
            fields.append(("u", "u", f"m[{at['u']}]", 0))
        fields += [(p, "p", f"m[{at[p]}]", l + 1) for l, p in enumerate(ps)]
        if xs:
            fields.append(("xt", "xt", "+".join(f"m[{at[x]}]" for x in xs), 0))
        if ps:
            fields.append(("pw", "pw", "+".join(f"{l}*m[{at[p]}]" for l, p in enumerate(ps, 1)), 0))
        fields += [(kind, kind, f"m[{at[kind]}]", 0) for kind in ("z", "hbar") if kind in at]
        self.names = vars_.names
        self.fields = [(kind, f * _FIELD_BITS, l) for f, (_n, kind, _e, l) in enumerate(fields)]
        self.shift = {name: f * _FIELD_BITS for f, (name, *_rest) in enumerate(fields)}
        lim = _EXP_LIMIT
        packed, checks = [], [f"len(m) == {vars_.nvars}"]
        self.decoded = dict.fromkeys(_DIRECTIONS, "0")
        for f, (name, kind, expr, _l) in enumerate(fields):
            s = f * _FIELD_BITS
            packed.append(f"(({expr}) << {s})")
            self.decoded[name] = f"((k >> {s}) & {_FIELD_MASK})"
            if kind in ("xt", "pw"):  # an x_i or p_l is bounded by its total
                checks.append(f"{expr} < {lim}")
            else:
                checks.append(f"{expr} >= 0" if kind in ("x", "p") else f"0 <= {expr} < {lim}")
        self.pack = eval(f"lambda m: {' + '.join(packed) or '0'}")
        self.unpack, self.metric = _reader(self, vars_.names), _reader(self, _DIRECTIONS)
        self.fits = eval(f"lambda m: {' and '.join(checks)}")

    @cached_property
    def text_order(self):
        """``key -> int``, the sort key of the text forms, compiled: the
        graded degree (e for x, u, z and hbar, l * e for p_l: the sum of
        ``metric``) above one field per variable in name order, so that
        integers order as (degree, exponents) do."""
        d, n = self.decoded, len(self.names)
        degree = " + ".join(d[kind] for kind in _DIRECTIONS if d[kind] != "0") or "0"
        fields = "".join(
            f" | (((k >> {self.shift[name]}) & {_FIELD_MASK}) << {(n - 1 - i) * _FIELD_BITS})"
            for i, name in enumerate(self.names)
        )
        return eval(f"lambda k: (({degree}) << {n * _FIELD_BITS}){fields}")

    @cached_property
    def render(self):
        """``key -> str``, the monomial's text (``x1^2*u``, or ``1``),
        compiled from ``decoded`` with one memo of ``name^e`` strings per
        variable (:class:`_Powers`)."""
        powers = {f"P{i}": _Powers(name) for i, name in enumerate(self.names)}
        parts = " + ".join(f"P{i}[{self.decoded[n]}]" for i, n in enumerate(self.names))
        return eval(f"lambda k: ({parts or repr('')})[:-1] or '1'", powers)

    def key(self, mono) -> int:
        """The packed key of a monomial from outside, checked by ``fits``."""
        if not self.fits(mono):
            self.reject(mono)
        return self.pack(mono)

    def reject(self, mono) -> None:
        """Raise :class:`SeriesError` for a monomial ``fits`` refuses."""
        names = self.names
        if len(mono) != len(names):
            raise SeriesError(f"monomial {mono} has wrong arity for {names}")
        for name, e in zip(names, mono):
            if e < 0:
                raise SeriesError(f"monomial {mono} has {name}^{e}: no exponent may go below 0")
        raise SeriesError(
            f"monomial {mono} does not fit a packed key: every exponent, the "
            f"x-total and the p-weight must lie below {_EXP_LIMIT}"
        )


class _Powers(dict):
    """``{e: "name^e*"}`` for one variable (``""`` for e = 0, ``"name*"``
    for e = 1), each string built on first use; :attr:`_Layout.render`
    joins them and drops the last ``*``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = "" if e == 0 else f"{self.name}*" if e == 1 else f"{self.name}^{e}*"
        return text


@lru_cache(maxsize=CACHE_SIZE)
def _layout(vars_: VariableSet) -> _Layout:
    """The one layout of each variable-set value, so that equal sets built
    apart compile it once and share the caches keyed by layout."""
    return _Layout(vars_)


@lru_cache(maxsize=CACHE_SIZE)
def _masks(layout: _Layout, spec: "TruncationSpec", l: int = 1) -> tuple:
    """``(ADD, SUB, GUARD, OVER, CUT)`` of the bound test (module
    docstring) for keys of ``layout`` under ``spec``.

    With ``l > 1`` the bounds are those of the spec divided by l: a stored
    key passes iff the monomial with every exponent times l lies in the
    spec and fits.  ``OVER`` holds the guard bits of the fields whose bound
    is the storage limit, where failing means overflow, not truncation.
    ``CUT`` is ``(shift, room, exact)`` of the cut at the top field (module
    docstring): the layout's top field, its bound + 1 (past every sum of
    two stored fields where storage alone bounds it), and whether the cut
    and the bucket field decide the bound of every pair; the empty layout
    has ``(0, 1, True)``.  A z/hbar window on a direction the layout lacks
    holds every key or, when it excludes 0, none: then the masks fail every
    key and the cut keeps no pair (and the constructor, ``zero``,
    ``truncate`` and ``regrade`` raise, :func:`_check_windows`).  The
    bounds are read field by field, not from
    :attr:`TruncationSpec.windows`, so that the tests' reference,
    :func:`_outside`, shares no code with them.
    """
    for kind, window in (("z", spec.z_window), ("hbar", spec.hbar_window)):
        if window is not None and kind not in layout.shift and window[0] > 0:
            return 0, 1, -1, 0, (0, 0, True)  # key | (key - 1) is nonzero for every key >= 0
    s_cap, w_cap = spec.x_total_max, spec.p_weight_max
    st_hi = (_EXP_LIMIT - 1) // l
    add = sub = guard = over = 0
    top = None, 0, 1  # (kind, shift, room) of the last, most significant field
    for kind, shift, p_l in layout.fields:
        lo = 0
        if kind in ("x", "xt"):
            hi = s_cap
        elif kind == "u":
            hi = spec.u_max
        elif kind == "p":
            hi = None if w_cap is None else w_cap // p_l
        elif kind == "pw":
            hi = w_cap
        else:
            lo, hi = (spec.z_window if kind == "z" else spec.hbar_window) or (0, None)
        bit = _GUARD << shift
        if hi is None or hi // l > st_hi:
            hi, over = st_hi, over | bit
        else:
            hi //= l
        add |= (_GUARD - 1 - hi) << shift
        sub |= min(-(-lo // l), st_hi + 1) << shift
        guard |= bit
        top = kind, shift, _GUARD if over & bit else hi + 1  # no sum of two fields reaches _GUARD
    bucket = "u" if "u" in layout.shift else "pw"
    directions = {kind for kind, _s, _l in layout.fields if kind in _DIRECTIONS}
    exact = not over and directions <= {bucket, top[0]}
    return add, sub, guard, over, (top[1], top[2], exact)


def _rational(c):
    """``c`` as an ``int`` or a ``QQ``, both read as ``c.numerator`` over
    ``c.denominator``."""
    return c if isinstance(c, (int, QQ)) else QQ(c)


def _passes(masks, key: int) -> bool:
    """The bound test for one key (module docstring)."""
    add, sub, guard = masks[:3]
    return not ((key + add) | (key - sub)) & guard


@dataclass(frozen=True)
class TruncationSpec:
    """Bounds defining which monomials a series stores exactly.

    ``u_max``     highest u-exponent kept (T); a bounded u has the
                  lower bound 0.
    ``x_total_max`` cap S on the *total* x-degree (default T+1 at
                  construction sites: genus >= 0 forces |s| <= t + 1).
    ``z_window``/``hbar_window``  inclusive (lo, hi) exponent windows,
                  both ends >= 0.
    ``p_weight_max`` cap W on the weighted p-degree, weight(p_l) = l.
    """

    u_max: int | None = _NO_BOUND
    x_total_max: int | None = _NO_BOUND
    z_window: tuple[int, int] | None = _NO_BOUND
    hbar_window: tuple[int, int] | None = _NO_BOUND
    p_weight_max: int | None = _NO_BOUND

    def __post_init__(self):
        for name in ("u_max", "x_total_max", "p_weight_max"):
            bound = getattr(self, name)
            if bound is not None and bound < 0:
                raise SeriesError(f"{name} must be >= 0")
        for name in ("z_window", "hbar_window"):
            window = getattr(self, name)
            if window is not None and min(window) < 0:
                raise SeriesError(f"{name} {window} must lie in the exponents >= 0")

    @cached_property
    def windows(self) -> tuple:
        """One inclusive ``(lo, hi)`` per direction, in the order of
        ``_Layout.metric`` (x-total, u, z, hbar, p-weight; named in
        ``_DIRECTIONS``), or None where the spec sets no bound; x-total, u
        and p-weight have ``lo = 0``."""
        caps = (self.x_total_max, self.u_max, self.p_weight_max)
        xt, u, pw = (None if cap is None else (0, cap) for cap in caps)
        return xt, u, self.z_window, self.hbar_window, pw

    def meet(self, other: "TruncationSpec") -> "TruncationSpec":
        """Componentwise shrink: the largest spec both operands can honor."""
        xt, u, z, hb, pw = (
            a if b is None else b if a is None else (max(a[0], b[0]), min(a[1], b[1]))
            for a, b in zip(self.windows, other.windows)
        )
        return TruncationSpec(u and u[1], xt and xt[1], z, hb, pw and pw[1])


def _outside(spec: TruncationSpec, metric) -> int:
    """0 inside the spec, 1 past an upper bound (ordinary truncation), -1
    below a lower bound only."""
    bounded = [(w, e) for w, e in zip(spec.windows, metric) if w is not None]
    if any(e > w[1] for w, e in bounded):
        return 1
    return -1 if any(e < w[0] for w, e in bounded) else 0


def _check_windows(vars_: VariableSet, spec: TruncationSpec) -> None:
    """Raise :class:`SeriesError` when ``spec`` sets a z or hbar window
    without 0 on a direction ``vars_`` lacks: every monomial of ``vars_``
    has exponent 0 there, so the spec holds none of them."""
    for name, window in (("z", spec.z_window), ("hbar", spec.hbar_window)):
        if window is not None and not window[0] <= 0 <= window[1] and name not in vars_.positions:
            raise SeriesError(
                f"{spec} sets the {name} window {window}, which excludes {name}^0, "
                f"on {vars_.names}, which has no {name}: it holds no monomial"
            )


def _below_error(vars_: VariableSet, spec: TruncationSpec, target, source) -> SeriesError:
    """The error for a regraded monomial below a lower bound of ``spec``
    and past no upper bound."""
    names = dict(zip(vars_.names, target))
    return SeriesError(f"monomial {names} (from {source}) lies below the lower bounds of {spec}")


def _climbing(spec: TruncationSpec) -> tuple[int, ...]:
    """The directions the powers of a series climb in (module docstring),
    as positions in a ``_Layout.metric`` tuple: every one the spec bounds."""
    return tuple(d for d, w in enumerate(spec.windows) if w is not None)


@lru_cache(maxsize=CACHE_SIZE)
def _weight(climbing: tuple[int, ...]):
    """The weight ``metric -> sum(metric[d] for d in climbing)``, compiled."""
    return eval(f"lambda m: {' + '.join(f'm[{d}]' for d in climbing) or '0'}")


@lru_cache(maxsize=CACHE_SIZE)
def _reader(layout: _Layout, names: tuple[str, ...]):
    """``key -> (exponent of each name)``, a name being a variable or one of
    ``_DIRECTIONS``, compiled from ``layout.decoded``; others raise KeyError."""
    return eval(f"lambda k: ({''.join(layout.decoded[n] + ', ' for n in names)})")


@lru_cache(maxsize=CACHE_SIZE)
def _regrader(source: VariableSet, target: VariableSet, images: tuple, parity: tuple, sign: int):
    """``(image, shape, dropped)`` of :meth:`TruncatedSeries.regrade`, the
    forms as tuples of items.  ``image(key)`` is ``(fits, target key, 1 if
    the sign is -1 else 0)``, compiled from the source's ``decoded`` table:
    a target field that holds a source field in every monomial (a carried
    variable, or an x-total or p-weight of x or p all carried from the same
    ones) moves by one shift and mask per run of neighbours, and ``fits``
    checks each other field's storage range (the sign and overflow rules)
    and that the ``dropped`` names (the target lacks them and no form reads
    them) are 0.  ``shape(key)`` is the target monomial and its
    ``_Layout.metric``, read without packing it."""
    if sign not in (1, -1):
        raise SeriesError(f"regrade sign must be 1 or -1, got {sign}")
    src, tgt, forms = source.layout, target.layout, dict(images)
    table = {n: src.decoded[n] for n in (*source.names, "xt", "pw")} | {1: "1"}  # 1: constant
    read = {n for form in (*forms.values(), parity) for n, c in form if c}

    def affine(form) -> str:
        return " + ".join(table[n] if c == 1 else f"{c}*{table[n]}" for n, c in form if c) or "0"

    for name in forms:
        target.index(name)  # KeyError for a target variable the set lacks
    moved = {n for n in target.names if n in src.shift and n not in forms}
    values = {n: affine(forms.get(n, ((n, 1),) if n in moved else ())) for n in target.names}
    for total, count_ in (("xt", source.hodge_count), ("pw", source.pcount)):
        parts = [n for n in target.names if n[0] == total[0] and values[n] != "0"]
        terms = (f"{n[1:] if total == 'pw' else 1}*({values[n]})" for n in parts)
        values[total] = " + ".join(terms) or "0"
        if total in src.shift and len(parts) == count_ and moved.issuperset(parts):
            moved.add(total)
    odd = f"({affine(parity)} + {int(sign < 0)}) & 1"
    dropped = tuple(n for n in source.names if n not in target.positions and n not in read)
    drop = sum(_FIELD_MASK << src.shift[n] for n in dropped)
    fits, key, runs = [f"k & {drop} == 0"], [], []  # a run: [from, to, width]
    for n, t in tgt.shift.items():
        if n not in moved:
            fits.append(f"0 <= {values[n]} < {_EXP_LIMIT}")
            key.append(f"(({values[n]}) << {t})")
        elif runs and runs[-1][0] + runs[-1][2] == src.shift[n] and runs[-1][1] + runs[-1][2] == t:
            runs[-1][2] += _FIELD_BITS
        else:
            runs.append([src.shift[n], t, _FIELD_BITS])
    key += [f"(((k >> {s}) & {(1 << w) - 1}) << {t})" for s, t, w in runs]
    image = eval(f"lambda k: ({' and '.join(fits)}, {' + '.join(key) or 0}, {odd})")
    mono = "".join(values[n] + ", " for n in target.names)
    metric = "".join(values.get(d, "0") + ", " for d in _DIRECTIONS)
    shape = eval(f"lambda k: (({mono}), ({metric}))")
    return image, shape, dropped


def _bucket_field(layout: _Layout, spec: TruncationSpec) -> tuple[int | None, int]:
    """(shift of the bucket field, its bound): u when bounded, else the
    p-weight when bounded, else no field (one bucket)."""
    shift = layout.shift
    if "u" in shift and spec.u_max is not None:
        return shift["u"], spec.u_max
    if "pw" in shift and spec.p_weight_max is not None:
        return shift["pw"], spec.p_weight_max
    return None, 0


def _bucketed(shift: int | None, items) -> list:
    """``[(bucket key, [(key, numerator)])]`` in increasing bucket-key
    order, the bucket key being the field at ``shift`` (0 for every item
    when ``shift`` is None), each bucket sorted by raw key, so by its top
    field first, for the cut at the top field (:meth:`_LinearSum._pairs`)."""
    if shift is None:
        buckets = {0: list(items)}
    else:
        buckets = {}
        for item in items:
            buckets.setdefault((item[0] >> shift) & _FIELD_MASK, []).append(item)
    for lst in buckets.values():
        lst.sort()  # keys are distinct, so no numerator is compared
    return sorted(buckets.items())


class _LinearSum:
    """A sum of scaled series and scaled truncated products, settled once
    into integer numerators ``{packed key: int}`` over one denominator.

    ``add(c, a)`` records ``c * a`` and ``add_product(c, a, b)`` records
    ``c * a * b``; nothing is summed until :meth:`settle`.  Each term is
    kept as its coefficient reduced to ``num / den`` and the operands'
    integer forms (:attr:`TruncatedSeries._ints`): runs of items at a key
    offset (:meth:`add_runs`; a scaled series is one run at offset 0), or
    for a product the left items, the right operand's buckets and the spec
    in force at that call, whose cut and bucket field the pair loop uses.
    ``settle()`` takes the lcm D of the recorded denominators once and runs
    every term, in the order added, into one dict at the fixed integer
    scale ``num * (D // den)``, so no numerator is ever rescaled.  The
    operands stay alive until then.

    A product is never built as a series: a pair's key is ``k1 + k2``.
    The right operand of a product is bucketed (:func:`_bucketed`,
    cached per series) by the dominant bounded direction (u, or p-weight
    when u is absent), so the loop leaves the buckets past the left key's
    room in that direction unvisited, and a bucket, sorted by raw key,
    ends at the first key past the left key's room in the top field
    (``CUT`` of :func:`_masks`).  Every pair before it is kept untested.
    Where those two fields do not decide the bound, the kept pairs past
    another bound or below a window wait for ``settle()``, which then
    drops every key outside the sum's spec in one pass; it does the same
    when an operand's spec was wider than the sum's.  A product under a
    spec that leaves a field bounded only by storage is filtered by that
    spec at once instead, and a pair that lies in it but overflows raises
    :class:`SeriesError` instead of wrapping, when the sum is settled.  A
    coefficient ``c`` is read as ``c.numerator`` over ``c.denominator``, so
    it may be an ``int`` or a ``QQ``.  ``series()`` hands the nonzero
    numerators and D to the result as its integer form
    (:meth:`TruncatedSeries._from_ints`); no ``QQ`` is built.  The
    result's spec is the meet of every operand's spec; ``+`` and ``-`` are
    such sums of two series.
    """

    __slots__ = ("vars", "spec", "_terms", "_mixed")

    def __init__(self, vars_: VariableSet, spec: TruncationSpec):
        self.vars = vars_
        self.spec = spec
        self._terms: list = []  # (num, den, runs or left items, buckets or None, spec)
        self._mixed = False  # an operand's spec differed from the running one

    def _meet(self, *operands) -> None:
        for s in operands:
            if s.vars is not self.vars and s.vars != self.vars:
                raise SeriesError(
                    f"variable sets differ: {self.vars.names} vs {s.vars.names}"
                )
            if s.spec is not self.spec and s.spec != self.spec:
                self._mixed = True
                self.spec = self.spec.meet(s.spec)

    def add_items(self, num: int, den: int, items) -> None:
        """Add ``num / den`` times the integer items ``[(key, numerator)]``."""
        self.add_runs(num, den, ((0, 1, items),))

    def add_runs(self, num: int, den: int, runs) -> None:
        """Add ``num / den`` times every run ``(offset, m, items)``: ``m *
        n`` at ``key + offset`` for each integer item ``(key, n)``.  No key
        is tested against the spec: the caller puts none outside it."""
        g = gcd(num, den)
        self._terms.append((num // g, den // g, runs, None, None))

    def add(self, c, a: "TruncatedSeries") -> None:
        self._meet(a)
        if not c:
            return
        da, items = a._ints
        if items:
            self.add_items(c.numerator, c.denominator * da, items.items())

    def add_pairs(self, num: int, den: int, a_items, b_buckets) -> None:
        """Add ``num / den`` times every in-spec product of a term of
        ``a_items`` and a term of ``b_buckets`` (from :func:`_bucketed`
        with this sum's :func:`_bucket_field`), under the spec in force
        now.  Sums may cancel to 0, and ``series()`` skips zero
        numerators."""
        g = gcd(num, den)
        self._terms.append((num // g, den // g, a_items, b_buckets, self.spec))

    def add_product(self, c, a: "TruncatedSeries", b: "TruncatedSeries") -> None:
        self._meet(a, b)
        if not c:
            return
        da, a_items = a._ints
        db, b_items = b._ints
        if not a_items or not b_items:
            return
        if len(a_items) > len(b_items):
            a_items, b = b_items, a
        buckets = b._buckets(_bucket_field(self.vars.layout, self.spec)[0])
        self.add_pairs(c.numerator, c.denominator * da * db, a_items.items(), buckets)

    def settle(self) -> tuple[int, dict]:
        """``(D, {key: numerator})``: every term over the lcm D of their
        denominators, summed in the order added, then the keys outside the
        spec dropped in one pass where a product left some
        (:meth:`_pairs`) or an operand's spec was wider.  Zero numerators
        stay."""
        terms = self._terms
        den = lcm(*(t[1] for t in terms))
        out: dict[int, int] = {}
        get = out.get
        exact = not self._mixed
        for num, d, items, buckets, spec in terms:
            scale = num * (den // d)
            if buckets is not None:
                exact = self._pairs(out, scale, items, buckets, spec) and exact
                continue
            for off, m, run in items:
                c = scale * m
                if off:
                    for k, n in run:
                        k += off
                        out[k] = get(k, 0) + c * n
                else:
                    for k, n in run:
                        out[k] = get(k, 0) + c * n
        if not exact:
            masks = _masks(self.vars.layout, self.spec)
            out = {k: n for k, n in out.items() if _passes(masks, k)}
        return den, out

    def _pairs(self, out: dict, scale: int, a_items, b_buckets, spec) -> bool:
        """Add ``scale`` times the pair products (:meth:`add_pairs`) that
        the bucket field and the cut at the top field keep into ``out``,
        and return whether every key added lies in ``spec``.  Where a
        field of ``spec`` is bounded only by storage, the pairs go to a
        dict of their own first, filtered by ``spec`` once: a key there
        that lies in ``spec`` but does not fit raises, and a key outside
        it is dropped."""
        layout = self.vars.layout
        masks = _masks(layout, spec)
        over = masks[3]
        ts, room, exact = masks[4]
        shift, cap = _bucket_field(layout, spec)
        mask = _FIELD_MASK
        dest = {} if over else out
        get = dest.get
        hi = 0
        for k1, c1 in a_items:
            if shift is not None:
                hi = cap - ((k1 >> shift) & mask)
            lim = (room - (k1 >> ts)) << ts
            c1 *= scale
            for kv, bucket in b_buckets:
                if kv > hi:
                    break
                for k2, c2 in bucket:
                    if k2 >= lim:
                        break  # bucket sorted by raw key
                    key = k1 + k2
                    dest[key] = get(key, 0) + c1 * c2
        if not over:
            return exact
        get = out.get
        for key, n in dest.items():
            if _passes(masks, key):
                out[key] = get(key, 0) + n
            elif not _outside(spec, layout.metric(key)):
                layout.reject(layout.unpack(key))  # in the spec, but a field overflows
        return True

    def series(self) -> "TruncatedSeries":
        den, nums = self.settle()
        items = {k: n for k, n in nums.items() if n}
        return TruncatedSeries._from_ints(self.vars, self.spec, den, items)


class TruncatedSeries:
    """Sparse map monomial -> coefficient, with no stored zeros.

    A series stores one form, the integer form ``_ints``: a pair of a
    denominator D and ``{packed key: numerator}``, reduced so that D is the
    lcm of the coefficients' denominators.  ``coeffs`` is a read-only
    ``{monomial: QQ}`` view of it, folded the first time it is read and
    kept in ``_coeffs``.
    """

    __slots__ = ("vars", "spec", "_coeffs", "_ints", "_bkts")

    def __init__(
        self,
        vars_: VariableSet,
        spec: TruncationSpec,
        coeffs: Mapping[tuple[int, ...], object] | None = None,
        *,
        _trusted: bool = False,
    ):
        """The series of ``coeffs`` ``{monomial: coefficient}``.  A
        coefficient that is not an ``int`` or a ``QQ`` is read as
        ``QQ(c)``; no other ``QQ`` is built.  A monomial that the layout's
        ``fits`` refuses raises :class:`SeriesError`; one outside the spec
        or with coefficient 0 is dropped.  A spec that holds no monomial of
        ``vars_`` (:func:`_check_windows`) raises.  ``_trusted`` is accepted
        and ignored: every monomial is checked."""
        _check_windows(vars_, spec)
        layout = vars_.layout
        fits, pack = layout.fits, layout.pack
        add, sub, guard = _masks(layout, spec)[:3]
        kept = []
        den = 1
        for mono, c in (coeffs or {}).items():
            c = _rational(c)
            if not fits(mono):
                layout.reject(mono)
            key = pack(mono)
            if c and not ((key + add) | (key - sub)) & guard:
                kept.append((key, c))
                if den % c.denominator:
                    den = lcm(den, c.denominator)
        items = {key: c.numerator * (den // c.denominator) for key, c in kept}
        self._store(vars_, spec, den, items)

    def _store(self, vars_: VariableSet, spec: TruncationSpec, den: int, items: dict) -> None:
        """Keep ``items`` ``{key: n}`` over ``den`` as the integer form,
        reduced by ``gcd(den, *numerators)``, which makes den the lcm of
        the coefficients' denominators."""
        if den > 1:
            r = gcd(den, *items.values())
            if r > 1:
                den //= r
                items = {k: n // r for k, n in items.items()}
        self.vars = vars_
        self.spec = spec
        self._coeffs = None
        self._ints = (den, items)
        self._bkts = None

    @classmethod
    def _from_ints(
        cls, vars_: VariableSet, spec: TruncationSpec, den: int, items: dict
    ) -> "TruncatedSeries":
        """The series with the terms ``n / den * monomial`` of ``items``
        ``{key: n}``, every n nonzero and every key in the spec, kept as
        its integer form (:meth:`_store`)."""
        series = cls.__new__(cls)
        series._store(vars_, spec, den, items)
        return series

    @property
    def coeffs(self) -> Mapping:
        """``{monomial: QQ}``, a read-only view folded from the integer form
        on first read."""
        coeffs = self._coeffs
        if coeffs is None:
            den, items = self._ints
            unpack = self.vars.layout.unpack
            coeffs = {unpack(k): QQ(n, den) for k, n in items.items()}
            coeffs = self._coeffs = MappingProxyType(coeffs)
        return coeffs

    # ---------------------------------------------------------------- base

    @classmethod
    def zero(cls, vars_: VariableSet, spec: TruncationSpec) -> "TruncatedSeries":
        _check_windows(vars_, spec)
        return cls._from_ints(vars_, spec, 1, {})

    @classmethod
    def constant(cls, vars_: VariableSet, spec: TruncationSpec, c) -> "TruncatedSeries":
        return cls(vars_, spec, {vars_.monomial({}): c})

    @classmethod
    def one(cls, vars_: VariableSet, spec: TruncationSpec) -> "TruncatedSeries":
        return cls.constant(vars_, spec, 1)

    @classmethod
    def term(
        cls,
        vars_: VariableSet,
        spec: TruncationSpec,
        exponents: Mapping[str, int],
        coeff=1,
    ) -> "TruncatedSeries":
        return cls(vars_, spec, {vars_.monomial(exponents): coeff})

    def is_zero(self) -> bool:
        return not self._ints[1]

    def constant_term(self):
        den, items = self._ints
        n = items.get(0)  # the key of the monomial 1
        return QQ(0) if n is None else QQ(n, den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.vars == other.vars and self._ints == other._ints

    def __hash__(self):  # pragma: no cover - series used as values, not keys
        den, items = self._ints
        return hash((self.vars, den, frozenset(items.items())))

    # ---------------------------------------------------------- ring ops

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        acc = _LinearSum(self.vars, self.spec)
        acc.add(1, self)
        acc.add(1, other)
        return acc.series()

    def __neg__(self) -> "TruncatedSeries":
        return self.scaled(-1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scaled(self, c) -> "TruncatedSeries":
        c = _rational(c)
        den, items = self._ints
        num = c.numerator
        scaled = {k: n * num for k, n in items.items()} if num else {}
        return TruncatedSeries._from_ints(self.vars, self.spec, den * c.denominator, scaled)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self._mul_series(other)
        return self.scaled(other)

    __rmul__ = __mul__

    def _buckets(self, shift: int | None) -> list:
        """The integer items bucketed on the field at ``shift``
        (:func:`_bucketed`), kept beside the integer form for the next
        product with this series on the right."""
        got = self._bkts
        if got is None or got[0] != shift:
            items = self._ints[1].items()
            got = self._bkts = (shift, _bucketed(shift, items))
        return got[1]

    def _mul_series(self, other: "TruncatedSeries") -> "TruncatedSeries":
        acc = _LinearSum(self.vars, self.spec)
        acc.add_product(1, self, other)
        return acc.series()

    def __pow__(self, n: int) -> "TruncatedSeries":
        if not isinstance(n, int) or n < 0:
            raise SeriesError("only nonnegative integer powers")
        result = None  # 1, until the first factor
        base = self
        e = n
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return TruncatedSeries.one(self.vars, self.spec) if result is None else result

    # ------------------------------------------------------- exp / log

    def _grades(self) -> tuple[dict[int, list], int]:
        """Homogeneous pieces under the nilpotence weight, and the top weight.

        Returns ``({k: [(key, numerator)]}, top)``: the terms of weight
        k >= 1 as integer numerators over the series' common denominator
        (:attr:`_ints`), and the largest weight an in-spec monomial can
        have.  The weight of a monomial is its exponent in one direction
        the series climbs in (:func:`_climbing`, the rule of the module
        docstring) where every monomial's exponent is >= 1, the one with
        the smallest upper bound (the first in ``_DIRECTIONS`` on a tie);
        the top weight is that bound.  Where no climbing direction has
        that property, the weight is the exponent sum over all of them and
        the top weight the sum of their bounds, and a monomial of weight 0
        is never nilpotent and raises.  Either weight is positive on every
        monomial and at most the top on every in-spec one, which is all
        :meth:`_exp_log` needs; one direction needs fewer grades.
        """
        spec, layout = self.spec, self.vars.layout
        windows = spec.windows
        items = list(self._ints[1].items())
        metrics = [layout.metric(key) for key, _n in items]
        climbing = _climbing(spec)
        positive = [d for d in climbing if all(m[d] for m in metrics)]
        if positive:  # min keeps the first of equal bounds
            climbing = (min(positive, key=lambda d: windows[d][1]),)
        weight = _weight(climbing)
        grades: dict[int, list] = {}
        for item, met in zip(items, metrics):
            w = weight(met)
            if w == 0:
                raise SeriesError(
                    f"monomial {layout.unpack(item[0])} is not nilpotent under "
                    "the truncation spec"
                )
            grades.setdefault(w, []).append(item)
        # the heaviest in-spec monomial sits at every climbing upper bound
        return grades, sum(windows[d][1] for d in climbing)

    def _exp_log(self, exp: bool) -> "TruncatedSeries":
        """The grades of ``exp(f)`` (``exp=True``) or of ``log(1 + f)``, with
        f the terms of ``self`` other than its constant one.

        Split f into pieces ``f_k`` homogeneous of nilpotence weight k >= 1
        (see :meth:`_grades`), and let D multiply a weight-n monomial by n.
        ``g = exp(f)`` is the solution of ``D g = (D f) g`` with ``g_0 = 1``
        (Brent & Kung 1978; Knuth, TAOCP vol. 2, 4.7).  With ``w_k = k f_k``
        and ``S_n = sum_{k=1..n-1} w_k g_{n-k}``, its weight-n part reads
        ``n g_n = w_n + S_n``: exp solves it for g_n from f, and log (g =
        ``1 + f`` given) for ``w_n = n g_n - S_n``.  The given side's grade n
        enters as ``n f_n`` or ``n g_n``, the same items, and the output
        grade is the solved side over n.  Grades are disjoint, so each
        finished grade goes straight into the output.  Every monomial has
        positive weight and weights above the spec's top cannot occur; and
        once the last kmax grades of the solved side are empty (kmax the
        top weight of f), every later grade multiplies only empty grades.

        The grading is the one :meth:`_grades` picks: u alone for an x/u
        series whose every non-constant monomial has u >= 1, as ``F_l - 1``
        and F^H - 1 have, so t grades instead of the 2t + 1 of x-total + u.
        Grade n sums its products in one :class:`_LinearSum`, over only the
        k < n (ascending) where both w_k and g_{n-k} are stored, and a grade
        with no product and no given term builds and settles nothing: the
        grades of ``psi_l(F^H)`` sit only at multiples of l.  w_k is the left
        items and g_{n-k} bucketed the right operand, each an integer
        numerator over its own denominator (f's lcm for the given side,
        reduced by a gcd for the solved side).  Output grade n is the solved
        side's numerators over ``den * n``, den the grade sum's denominator;
        the result takes the lcm of these and keeps the integer form.  The
        recurrence reads ``g_0 = 1`` only through the given grades ``n f_n``,
        so exp's output holds the monomial 1 only where the spec does (a z
        or hbar window may exclude the exponent 0).
        """
        vars_, spec = self.vars, self.spec
        layout = vars_.layout
        f = self
        d_self, terms = self._ints
        if 0 in terms:  # the key of the monomial 1
            rest = {k: n for k, n in terms.items() if k}
            f = TruncatedSeries._from_ints(vars_, spec, d_self, rest)
        grades, top = f._grades()
        d_f = f._ints[0]
        shift = _bucket_field(layout, spec)[0]  # every grade sums under this spec
        w: dict[int, tuple[int, list]] = {}  # n -> (den, numerators of w_n)
        g: dict[int, tuple[int, list]] = {}  # n -> (den, buckets of g_n)
        if exp:
            for k, items in grades.items():
                w[k] = (d_f, [(key, k * c) for key, c in items])
        else:
            for k, items in grades.items():
                g[k] = (d_f, _bucketed(shift, items))
        sign = 1 if exp else -1
        kmax = max(grades, default=0)
        # (den, grade); exp's grade 0 is the monomial 1, where the spec holds it
        seed = exp and _passes(_masks(layout, spec), 0)
        out = [(1, [(0, 1)])] if seed else []
        empty_run = 0
        for n in range(1, top + 1):
            pairs = [(w[k], g[n - k]) for k in range(1, n) if k in w and n - k in g]
            piece = None
            if pairs or n in grades:
                grade = _LinearSum(vars_, spec)
                for (d_w, w_k), (d_g, g_nk) in pairs:
                    grade.add_pairs(sign, d_w * d_g, w_k, g_nk)
                if n in grades:
                    grade.add_items(n, d_f, grades[n])
                den, nums = grade.settle()
                piece = [(key, c) for key, c in nums.items() if c]
            if not piece:
                empty_run += 1
                if empty_run >= kmax:
                    break  # every later grade multiplies only empty grades
                continue
            empty_run = 0
            d_n = den * n if exp else den  # of g_n, or of w_n
            r = gcd(d_n, *(c for _key, c in piece))
            if r > 1:
                d_n //= r
                piece = [(key, c // r) for key, c in piece]
            if exp:
                g[n] = (d_n, _bucketed(shift, piece))
                out.append((d_n, piece))
            else:
                w[n] = (d_n, piece)
                out.append((d_n * n, piece))
        den = lcm(*(d for d, _piece in out))
        items = {key: c * (den // d) for d, piece in out for key, c in piece}
        return TruncatedSeries._from_ints(vars_, spec, den, items)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, truncated, grade by grade
        (:meth:`_exp_log`)."""
        if self.constant_term() != 0:
            raise SeriesError("exp requires zero constant term")
        return self._exp_log(True)

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term exactly 1, truncated, grade by
        grade (:meth:`_exp_log`)."""
        if self.constant_term() != 1:
            raise SeriesError("log requires constant term 1")
        return self._exp_log(False)

    def inverse(self) -> "TruncatedSeries":
        """1/self for constant term 1 (geometric series in 1 - self)."""
        if self.constant_term() != 1:
            raise SeriesError("inverse requires constant term 1")
        y = TruncatedSeries.one(self.vars, self.spec) - self
        y._grades()
        power = TruncatedSeries.one(self.vars, self.spec)
        result = _LinearSum(self.vars, self.spec)
        while not power.is_zero():
            result.add(1, power)
            power = power * y
        return result.series()

    # ------------------------------------------------------ substitution

    def substitute(
        self, assignments: Mapping[str, "TruncatedSeries"]
    ) -> "TruncatedSeries":
        """Simultaneous substitution, one product per exponent pattern.

        All replacement series must share one (VariableSet, spec) — that
        pair defines the result.  Variables of ``self`` not being
        substituted (carried) must exist under the same name in the result
        set.  Substituting ``u`` requires every monomial of the replacement
        to have positive weight in the directions it climbs in (module
        docstring), so that the source truncation at u^T stays sound.

        The source monomials are grouped by their pattern, the exponents at
        the substituted positions.  A pattern's product is the replacement
        powers in position order.  The patterns are walked in
        lexicographic order, keeping only the stack of products along the
        current prefix, so each distinct prefix is multiplied out once.
        The rest X of each monomial, its carried variables, multiplies
        last, in one :class:`_LinearSum` pair loop per pattern.

        Every product runs under the result spec with the low end of each z
        and hbar window set to 0, and the sum is then truncated to the
        result spec.  There every bound is an upper bound on a sum of
        nonnegative exponents, so each factor of a monomial inside the
        bounds lies inside them too: truncating every partial product, and
        multiplying X last, drops no term of the whole product.  The low
        ends apply once, to the sum.
        """
        if not assignments:
            return self
        first = next(iter(assignments.values()))
        tvars, tspec = first.vars, first.spec
        for name, s in assignments.items():
            self.vars.index(name)  # must exist in source
            if s.vars != tvars or s.spec != tspec:
                raise SeriesError("replacement series must share one variable set and spec")

        if "u" in assignments:
            metrics = [tvars.layout.metric(key) for key in assignments["u"]._ints[1]]
            if not all(map(_weight(_climbing(tspec)), metrics)):
                raise SeriesError(
                    "substituting u requires a replacement of positive order "
                    "in a climbing direction (u <- constant is unsound)"
                )

        names = self.vars.names
        for name in set(names) - assignments.keys() - tvars.positions.keys():
            raise KeyError(name)  # a carried variable must exist in the result set
        z, hb = tspec.z_window, tspec.hbar_window
        spec = TruncationSpec(
            tspec.u_max, tspec.x_total_max, z and (0, z[1]), hb and (0, hb[1]), tspec.p_weight_max
        )
        repls = {n: TruncatedSeries._from_ints(tvars, spec, *s._ints) for n, s in assignments.items()}
        substituted = [n for n in names if n in repls]  # in position order
        power_cache: dict[tuple[int, int], TruncatedSeries] = {}

        def repl_power(j: int, e: int) -> TruncatedSeries:
            """The j-th substituted replacement to the power e."""
            got = power_cache.get((j, e))
            if got is None:
                got = power_cache[j, e] = repls[substituted[j]] ** e
            return got

        # X: the regrade (:func:`_regrader`) that carries the rest and zeroes the substituted
        zeroed = tuple((n, ()) for n in tvars.names if n in repls)
        carried = _regrader(self.vars, tvars, zeroed, (), 1)[0]  # X's key is its second value
        pattern_of = _reader(self.vars.layout, tuple(substituted))
        den, items = self._ints
        groups: dict[tuple[int, ...], list] = {}  # pattern -> [(key of X, numerator)]
        for key, n in items.items():
            groups.setdefault(pattern_of(key), []).append((carried(key)[1], n))

        shift = _bucket_field(tvars.layout, spec)[0]
        out = _LinearSum(tvars, spec)
        one = TruncatedSeries.one(tvars, spec)
        stack = [one]  # 1, then one product per position
        prev = None
        for pattern in sorted(groups):
            keep = 0  # positions whose products the previous pattern left on the stack
            if prev is not None:
                while pattern[keep] == prev[keep]:
                    keep += 1
                del stack[keep + 1 :]
            for j in range(keep, len(substituted)):
                e = pattern[j]
                top = stack[-1]
                if e and not top.is_zero():
                    power = repl_power(j, e)
                    top = power if top is one else top * power  # 1 * power is power
                stack.append(top)
            prev = pattern
            prod = stack[-1]
            if not prod.is_zero():
                d_prod = prod._ints[0]
                out.add_pairs(1, den * d_prod, groups[pattern], prod._buckets(shift))
        return out.series().truncate(tspec)

    # ------------------------------------------------------- extraction

    def coefficient(self, exponents: Mapping[str, int]):
        """Coefficient of the given monomial; out-of-bounds is an error, never 0."""
        vars_ = self.vars
        mono = vars_.monomial(exponents)
        layout = vars_.layout
        if not layout.fits(mono) or not _passes(_masks(layout, self.spec), layout.pack(mono)):
            raise OutOfBoundsError(
                f"monomial {dict(exponents)} lies outside the truncation spec {self.spec}"
            )
        den, items = self._ints
        n = items.get(layout.pack(mono))
        return QQ(0) if n is None else QQ(n, den)

    def grade_extract(self, name: str, degree: int) -> "TruncatedSeries":
        """Sub-series with the exact exponent ``degree`` in ``name``, factor removed,
        under the same spec: a window on ``name`` that excludes 0 raises
        :class:`SeriesError`, and a ``degree`` outside that window, where the
        coefficients are undefined, raises :class:`OutOfBoundsError`."""
        vars_ = self.vars
        layout = vars_.layout
        window = dict(zip(_DIRECTIONS, self.spec.windows)).get(name)
        if window is not None and not window[0] <= 0 <= window[1]:
            raise SeriesError(f"grade_extract puts terms at {name}^0, outside the window {window}")
        if window is not None and not window[0] <= degree <= window[1]:
            raise OutOfBoundsError(f"{name}^{degree} lies outside the window {window} of {self.spec}")
        # keys are linear in the exponents: removing the factor subtracts its key
        shift = layout.pack(vars_.monomial({name: degree}))
        read, grade = _reader(layout, (name,)), (degree,)
        den, items = self._ints
        out = {k - shift: n for k, n in items.items() if read(k) == grade}
        return TruncatedSeries._from_ints(vars_, self.spec, den, out)

    def exponents_of(self, name: str) -> set[int]:
        """The exponents of ``name`` (a variable or one of ``_DIRECTIONS``) in the terms."""
        return {e for e, in map(_reader(self.vars.layout, (name,)), self._ints[1])}

    def truncate(self, spec: TruncationSpec) -> "TruncatedSeries":
        """Re-truncate to a (smaller) spec, in the integer form; a spec
        that holds no monomial of the set (:func:`_check_windows`) raises.
        A spec that does not shrink this one returns the series itself."""
        spec = self.spec.meet(spec)
        _check_windows(self.vars, spec)
        if spec == self.spec:
            return self  # every key already passes
        den, items = self._ints
        masks = _masks(self.vars.layout, spec)
        kept = {k: n for k, n in items.items() if _passes(masks, k)}
        return TruncatedSeries._from_ints(self.vars, spec, den, kept)

    def regrade(self, vars_: VariableSet, spec: TruncationSpec, images=None, parity=None, sign=1):
        """Map every monomial into ``(vars_, spec)`` by an affine map of its
        exponents, given by name.  A form ``{source or 1: int}`` sums each
        coefficient times its source's exponent (1 for the constant); the
        sources are the variables of ``self.vars``, ``"xt"`` and ``"pw"``.
        A target variable takes its form in ``images``, else carries the
        source variable of its name (0 if none); a source variable that
        ``vars_`` lacks and no form reads must be 0.  ``c * mono`` goes to
        ``sign * (-1)^parity(mono) * c`` at the image, ``sign`` 1 or -1.
        An image past an upper bound of ``spec`` is dropped; one below a
        lower bound (which the spec promised to keep: a negative exponent
        in a direction the spec bounds, or one below a window's low end),
        one that breaks the sign or overflow rule elsewhere, two monomials
        on one image and a nonzero dropped variable raise
        :class:`SeriesError`, and so does a spec that holds no monomial of
        ``vars_`` (:func:`_check_windows`).  The
        map is compiled once (:func:`_regrader`) and runs on the integer
        form: no ``QQ``.
        """
        _check_windows(vars_, spec)
        forms = tuple((name, tuple(form.items())) for name, form in (images or {}).items())
        parity = tuple((parity or {}).items())
        image, shape, dropped = _regrader(self.vars, vars_, forms, parity, sign)
        den, items = self._ints
        layout, unpack = vars_.layout, self.vars.layout.unpack
        add, sub, guard = _masks(layout, spec)[:3]
        out: dict[int, int] = {}
        for key, n in items.items():
            fits, k2, odd = image(key)
            if not fits:
                mono = dict(zip(self.vars.names, unpack(key)))
                name = next((v for v in dropped if mono[v]), None)
                if name is not None:
                    raise SeriesError(f"regrading drops {name}, which monomial {mono} holds")
                target, metric = shape(key)
                where = _outside(spec, metric)
                if where > 0:
                    continue  # past an upper bound
                if where < 0:
                    raise _below_error(vars_, spec, target, unpack(key))
                layout.reject(target)
            if ((k2 + add) | (k2 - sub)) & guard:
                if (k2 + add) & guard:
                    continue  # past an upper bound
                raise _below_error(vars_, spec, layout.unpack(k2), unpack(key))
            if k2 in out:
                raise SeriesError(f"regrading sends two monomials to {layout.unpack(k2)}")
            out[k2] = -n if odd else n
        return TruncatedSeries._from_ints(vars_, spec, den, out)

    # ------------------------------------------------------ presentation

    def rows(self) -> list[tuple[str, str]]:
        """The terms as ``(monomial, coefficient)`` text in graded-lex
        order (:attr:`_Layout.text_order`), for :meth:`to_text` and the
        CLI's csv and json.  Rendered from the integer form
        (:attr:`_Layout.render`): each numerator goes over the denominator
        with one ``gcd``, and no ``QQ`` or exponent tuple is built."""
        den, items = self._ints
        layout = self.vars.layout
        render = layout.render
        rows = []
        for key in sorted(items, key=layout.text_order):
            n = items[key]
            r = gcd(n, den)
            coeff = str(n // r) if r == den else f"{n // r}/{den // r}"
            rows.append((render(key), coeff))
        return rows

    def to_text(self) -> str:
        """Canonical text form: the :meth:`rows` joined by `` + ``, a
        coefficient 1 or -1 written as the sign of the monomial."""
        terms = []
        for ms, cs in self.rows():
            if ms == "1":
                terms.append(cs)
            elif cs == "1":
                terms.append(ms)
            elif cs == "-1":
                terms.append(f"-{ms}")
            else:
                terms.append(f"{cs}*{ms}")
        return " + ".join(terms) or "0"

    def __repr__(self):
        text = self.to_text()
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<TruncatedSeries {text}>"


def _raise_exponents(series: TruncatedSeries, l: int) -> TruncatedSeries:
    """x_i <- x_i^l, u <- u^l (all variables raised), for the plethystic
    transforms of :mod:`linkchi.special`.  Past an upper bound a monomial
    drops; past the storage limit of a field it raises :class:`SeriesError`.
    None lands below a window: a stored exponent e >= lo has l e >= lo.

    Runs on the integer form: raising multiplies every field of a packed
    key by l, so the key of the raised monomial is ``key * l``, and the
    bound test with the spec's bounds divided by l (:func:`_masks`)
    decides on the source key, before any field can overflow.  The
    denominator is kept.
    """
    layout = series.vars.layout
    add, _sub, guard, over = _masks(layout, series.spec, l)[:4]
    den, items = series._ints
    out = {}
    for key, n in items.items():
        past = (key + add) & guard
        if past & (guard ^ over):
            continue  # past an upper bound of the spec
        if past:
            layout.key(tuple(e * l for e in layout.unpack(key)))  # raises: a field overflows
        out[key * l] = n
    return TruncatedSeries._from_ints(series.vars, series.spec, den, out)
