"""Sparse truncated multivariate formal power series over exact rationals.

A series lives over a fixed :class:`VariableSet`: Hodge variables
``x1..xr`` (one per link component), the complexity variable ``u``, the
homological-degree variable ``z``, the genus variable ``hbar``, and
power-sum variables ``p1..pL``.  Exponents of ``z`` and ``hbar`` may be
negative (Laurent windows); all other exponents, ``u`` included, are
nonnegative.

Truncation is an explicit contract (:class:`TruncationSpec`): monomials
inside the bounds are exact, monomials outside are *undefined* — asking
for them raises :class:`OutOfBoundsError` rather than answering 0,
because silent truncation bugs are the dominant failure mode of series
engines.  Every operation returns a series whose spec is the meet
(componentwise shrink) of its operands' specs.

Exactness inside the bounds holds when every truncated direction only
grows under multiplication: bounded u, x-total and p-weight, and z/hbar
windows whose operands carry nonnegative exponents there.  A z/hbar
window that admits negative exponents can lose terms in products, ``exp``
and ``log``: a term that leaves the window is dropped, although a later
factor with a negative exponent would have brought it back.  With the
hbar window (-1, 1), ``(u/hbar * u/hbar) * u*hbar`` is 0 while
``u/hbar * (u/hbar * u*hbar)`` is ``u^3/hbar``.  Callers with negative
Laurent exponents must pick windows from which no term they read back can
be lost this way (``cycleindex.mod_envelope_supercharacter_direct`` states
its argument).  A change of grading (:meth:`TruncatedSeries.regrade`)
raises instead of dropping a term below a lower bound.

Products, ``exp``, ``log`` and linear sums run on integer numerators, and
their results keep that form: one denominator, the lcm of the
coefficients' denominators, and one ``int`` numerator per monomial
(:meth:`TruncatedSeries._int_items`).  A :class:`_LinearSum` adds scaled
series and scaled products over one running denominator, its pair loop
multiplying and adding plain ``int``: per product in ``*``, per grade in
``exp`` and ``log``, per sum in ``inverse``, ``substitute`` and the sums
of :mod:`linkchi.special`.  The next operation reads the integer form
straight back, so a chain of operations builds no ``QQ``; ``coeffs`` folds
one ``QQ(numerator, denominator)`` per monomial the first time it is read,
and a series built from coefficients computes its integer form once, on
first use as an operand.

Series are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Mapping

from .rationals import QQ, qq_str

__all__ = [
    "VariableSet",
    "TruncationSpec",
    "TruncatedSeries",
    "OutOfBoundsError",
    "SeriesError",
]

_NO_BOUND = None


class SeriesError(ValueError):
    """Contract violation in a series operation."""


class OutOfBoundsError(SeriesError):
    """A coefficient outside the truncation bounds was requested."""


@dataclass(frozen=True)
class VariableSet:
    """Ordered family of variables: x1..xr, u, z, hbar, p1..pL."""

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
    def nvars(self) -> int:
        return (
            self.hodge_count
            + int(self.has_u)
            + int(self.has_z)
            + int(self.has_hbar)
            + self.pcount
        )

    def index(self, name: str) -> int:
        base = self.hodge_count
        if name.startswith("x") and name[1:].isdigit():
            i = int(name[1:]) - 1
            if 0 <= i < self.hodge_count:
                return i
            raise KeyError(name)
        if name == "u":
            if not self.has_u:
                raise KeyError(name)
            return base
        base += int(self.has_u)
        if name == "z":
            if not self.has_z:
                raise KeyError(name)
            return base
        base += int(self.has_z)
        if name == "hbar":
            if not self.has_hbar:
                raise KeyError(name)
            return base
        base += int(self.has_hbar)
        if name.startswith("p") and name[1:].isdigit():
            l = int(name[1:]) - 1
            if 0 <= l < self.pcount:
                return base + l
            raise KeyError(name)
        raise KeyError(name)

    def p_start(self) -> int:
        return self.nvars - self.pcount

    @cached_property
    def metric(self):
        """``mono -> (x_total, u, z, hbar, p_weight)`` for this layout, with
        0 for a missing direction; compiled once per variable set, so a
        caller fetches it once and applies it to every monomial."""
        r = i = self.hodge_count
        parts = ["+".join(f"m[{k}]" for k in range(r)) or "0"]
        for present in (self.has_u, self.has_z, self.has_hbar):
            parts.append(f"m[{i}]" if present else "0")
            i += present
        parts.append("+".join(f"{l + 1}*m[{i + l}]" for l in range(self.pcount)) or "0")
        return eval(f"lambda m: ({', '.join(parts)})")


@dataclass(frozen=True)
class TruncationSpec:
    """Bounds defining which monomials a series stores exactly.

    ``u_max``     highest u-exponent kept (T); u is never Laurent, so a
                  bounded u has the lower bound 0.
    ``x_total_max`` cap S on the *total* x-degree (default T+1 at
                  construction sites: genus >= 0 forces |s| <= t + 1).
    ``z_window``/``hbar_window``  inclusive (lo, hi) exponent windows.
    ``p_weight_max`` cap W on the weighted p-degree, weight(p_l) = l.
    """

    u_max: int | None = _NO_BOUND
    x_total_max: int | None = _NO_BOUND
    z_window: tuple[int, int] | None = _NO_BOUND
    hbar_window: tuple[int, int] | None = _NO_BOUND
    p_weight_max: int | None = _NO_BOUND

    def __post_init__(self):
        if self.u_max is not None and self.u_max < 0:
            raise SeriesError("u_max must be >= 0")
        if self.x_total_max is not None and self.x_total_max < 0:
            raise SeriesError("x_total_max must be >= 0")
        if self.p_weight_max is not None and self.p_weight_max < 0:
            raise SeriesError("p_weight_max must be >= 0")

    def meet(self, other: "TruncationSpec") -> "TruncationSpec":
        """Componentwise shrink: the largest spec both operands can honor."""

        def bmin(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        def wmeet(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return (max(a[0], b[0]), min(a[1], b[1]))

        return TruncationSpec(
            u_max=bmin(self.u_max, other.u_max),
            x_total_max=bmin(self.x_total_max, other.x_total_max),
            z_window=wmeet(self.z_window, other.z_window),
            hbar_window=wmeet(self.hbar_window, other.hbar_window),
            p_weight_max=bmin(self.p_weight_max, other.p_weight_max),
        )


def _outside(spec: TruncationSpec, metric) -> int:
    """0 inside the spec, 1 past an upper bound (ordinary truncation), -1
    below a lower bound only: u < 0 when u is bounded (u is never
    Laurent), or below the low end of a z/hbar window."""
    xtot, u, zz, hb, pw = metric
    if (
        (spec.u_max is not None and u > spec.u_max)
        or (spec.x_total_max is not None and xtot > spec.x_total_max)
        or (spec.z_window is not None and zz > spec.z_window[1])
        or (spec.hbar_window is not None and hb > spec.hbar_window[1])
        or (spec.p_weight_max is not None and pw > spec.p_weight_max)
    ):
        return 1
    if (
        (spec.u_max is not None and u < 0)
        or (spec.z_window is not None and zz < spec.z_window[0])
        or (spec.hbar_window is not None and hb < spec.hbar_window[0])
    ):
        return -1
    return 0


def _trunc_weight(spec: TruncationSpec, metric, use_z=False, use_h=False) -> int:
    """Degree of a monomial summed over the directions the spec bounds above.

    u, total x and p-weight count whenever bounded; z and hbar only when
    the caller flags them (their windows may hold negative exponents).
    The weight is additive under products, which makes it a grading.
    """
    xtot, u, zz, hb, pw = metric
    w = 0
    if spec.u_max is not None:
        w += u
    if spec.x_total_max is not None:
        w += xtot
    if spec.p_weight_max is not None:
        w += pw
    if use_z:
        w += zz
    if use_h:
        w += hb
    return w


class _LinearSum:
    """A sum of scaled series and scaled truncated products, kept as integer
    numerators ``{monomial: int}`` over one running denominator.

    ``add(c, a)`` adds ``c * a`` and ``add_product(c, a, b)`` adds
    ``c * a * b`` straight from the operands' integer items
    ``[(monomial, metric, numerator)]`` (:meth:`TruncatedSeries._int_items`),
    truncated pair by pair as ``*`` truncates; the product series is never
    built.  The right operand of a product is bucketed (:meth:`buckets`) by
    the dominant bounded direction (u, or p-weight when u is absent) and
    each bucket is sorted by x-total, so pairs outside the spec are mostly
    never visited.  When a term's denominator does not divide the running
    one, the numerators are rescaled once to the lcm.  A coefficient ``c``
    is read as ``c.numerator`` over ``c.denominator``, so it may be an
    ``int`` or a ``QQ``.  ``series()`` hands the nonzero numerators and the
    running denominator to the result as its integer form
    (:meth:`TruncatedSeries._from_ints`); no ``QQ`` is built.  As with
    ``+``, the result's spec is the meet of every operand's spec, and terms
    outside it are dropped.
    """

    __slots__ = ("vars", "spec", "den", "nums", "_mixed")

    def __init__(self, vars_: VariableSet, spec: TruncationSpec):
        self.vars = vars_
        self.spec = spec
        self.den = 1
        self.nums: dict[tuple[int, ...], int] = {}
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

    def _scale(self, num: int, den: int) -> int:
        """The factor that puts ``num / den`` over the running denominator,
        rescaling the numerators once when den does not divide it."""
        g = gcd(num, den)
        num, den = num // g, den // g
        if self.den % den:
            new = lcm(self.den, den)
            f = new // self.den
            if self.nums:
                self.nums = {m: n * f for m, n in self.nums.items()}
            self.den = new
        return num * (self.den // den)

    def _keys(self) -> tuple[bool, bool]:
        """Whether buckets are keyed by u, else by p-weight (else one bucket)."""
        vars_, spec = self.vars, self.spec
        use_u = vars_.has_u and spec.u_max is not None
        return use_u, not use_u and spec.p_weight_max is not None and vars_.pcount > 0

    def buckets(self, items) -> list:
        """[(bucket key, items sorted by x-total)] in increasing key order."""
        use_u, use_w = self._keys()
        buckets: dict[int, list] = {}
        for item in items:
            met = item[1]
            kv = met[1] if use_u else (met[4] if use_w else 0)
            buckets.setdefault(kv, []).append(item)
        for lst in buckets.values():
            lst.sort(key=lambda it: it[1][0])
        return sorted(buckets.items())

    def add_items(self, num: int, den: int, items) -> None:
        """Add ``num / den`` times the integer items."""
        scale = self._scale(num, den)
        nums = self.nums
        get = nums.get
        for m, _met, n in items:
            nums[m] = get(m, 0) + scale * n

    def add(self, c, a: "TruncatedSeries") -> None:
        self._meet(a)
        if not c:
            return
        da, items = a._int_items()
        if items:
            self.add_items(c.numerator, c.denominator * da, items)

    def add_pairs(self, num: int, den: int, a_items, b_buckets) -> None:
        """Add ``num / den`` times every in-spec product of a term of
        ``a_items`` and a term of ``b_buckets`` (from :meth:`buckets`); the
        left items are scaled once.  Sums may cancel to 0, and ``series()``
        skips zero numerators."""
        scale = self._scale(num, den)
        if scale != 1:
            a_items = [(m, met, n * scale) for m, met, n in a_items]
        spec = self.spec
        use_u, use_w = self._keys()
        u_max = spec.u_max
        s_cap = spec.x_total_max
        zw, hw, w_cap = spec.z_window, spec.hbar_window, spec.p_weight_max
        add = operator.add
        out = self.nums
        get = out.get
        for m1, met1, c1 in a_items:
            xt1, u1, z1, h1, pw1 = met1
            if use_u:
                hi = u_max - u1
            elif use_w:
                hi = w_cap - pw1
            else:
                hi = None
            for kv, bucket in b_buckets:
                if hi is not None and kv > hi:
                    break
                for m2, met2, c2 in bucket:
                    if s_cap is not None and xt1 + met2[0] > s_cap:
                        break  # bucket sorted by x-total
                    if w_cap is not None and pw1 + met2[4] > w_cap:
                        continue
                    if zw is not None:
                        zz = z1 + met2[2]
                        if zz < zw[0] or zz > zw[1]:
                            continue
                    if hw is not None:
                        hb = h1 + met2[3]
                        if hb < hw[0] or hb > hw[1]:
                            continue
                    key = tuple(map(add, m1, m2))
                    out[key] = get(key, 0) + c1 * c2

    def add_product(self, c, a: "TruncatedSeries", b: "TruncatedSeries") -> None:
        self._meet(a, b)
        if not c:
            return
        da, a_items = a._int_items()
        db, b_items = b._int_items()
        if not a_items or not b_items:
            return
        if len(a_items) > len(b_items):
            a_items, b_items = b_items, a_items
        self.add_pairs(c.numerator, c.denominator * da * db, a_items, self.buckets(b_items))

    def series(self) -> "TruncatedSeries":
        vars_, spec = self.vars, self.spec
        metric = vars_.metric
        items = [(m, metric(m), n) for m, n in self.nums.items() if n]
        if self._mixed:
            items = [item for item in items if not _outside(spec, item[1])]
        return TruncatedSeries._from_ints(vars_, spec, self.den, items)


class TruncatedSeries:
    """Sparse map monomial -> coefficient, with no stored zeros.

    A series holds its terms in one or both of two forms: ``coeffs``, a dict
    of ``QQ``, and the integer form of :meth:`_int_items`.  A series built
    from coefficients starts with ``coeffs``; one built by ``*``, ``exp``,
    ``log`` or a :class:`_LinearSum` starts with the integer form only, and
    folds ``coeffs`` from it the first time they are read.
    """

    __slots__ = ("vars", "spec", "_coeffs", "_ints")

    def __init__(
        self,
        vars_: VariableSet,
        spec: TruncationSpec,
        coeffs: Mapping[tuple[int, ...], object] | None = None,
        *,
        _trusted: bool = False,
    ):
        self.vars = vars_
        self.spec = spec
        self._ints = None
        if coeffs is None:
            self._coeffs = {}
        elif _trusted:
            self._coeffs = dict(coeffs)
        else:
            clean = {}
            for mono, c in coeffs.items():
                if len(mono) != vars_.nvars:
                    raise SeriesError(
                        f"monomial {mono} has wrong arity for {vars_.names}"
                    )
                if _outside(spec, vars_.metric(mono)):
                    continue
                q = QQ(c)
                if q != 0:
                    clean[tuple(mono)] = q
            self._coeffs = clean

    @classmethod
    def _from_ints(
        cls, vars_: VariableSet, spec: TruncationSpec, den: int, items: list
    ) -> "TruncatedSeries":
        """The series with the terms ``n / den * monomial`` of ``items``
        ``[(monomial, metric, n)]``, every n nonzero and every monomial in
        the spec.  The integer form is reduced by ``gcd(den, *numerators)``,
        which makes den the lcm of the coefficients' denominators, and is
        kept as the series' :meth:`_int_items`; ``coeffs`` waits until read.
        """
        if den > 1:
            r = gcd(den, *[n for _m, _met, n in items])
            if r > 1:
                den //= r
                items = [(m, met, n // r) for m, met, n in items]
        series = cls.__new__(cls)
        series.vars = vars_
        series.spec = spec
        series._coeffs = None
        series._ints = (den, items)
        return series

    @property
    def coeffs(self) -> dict:
        """``{monomial: QQ}``, folded from the integer form on first read."""
        coeffs = self._coeffs
        if coeffs is None:
            den, items = self._ints
            coeffs = self._coeffs = {m: QQ(n, den) for m, _met, n in items}
        return coeffs

    # ---------------------------------------------------------------- base

    @classmethod
    def zero(cls, vars_: VariableSet, spec: TruncationSpec) -> "TruncatedSeries":
        return cls(vars_, spec, {}, _trusted=True)

    @classmethod
    def constant(cls, vars_: VariableSet, spec: TruncationSpec, c) -> "TruncatedSeries":
        return cls(vars_, spec, {(0,) * vars_.nvars: c})

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
        mono = [0] * vars_.nvars
        for name, e in exponents.items():
            mono[vars_.index(name)] = e
        return cls(vars_, spec, {tuple(mono): coeff})

    def is_zero(self) -> bool:
        if self._coeffs is None:
            return not self._ints[1]
        return not self._coeffs

    def constant_term(self):
        origin = (0,) * self.vars.nvars
        if self._coeffs is None:
            den, items = self._ints
            for m, _met, n in items:
                if m == origin:
                    return QQ(n, den)
            return QQ(0)
        return self._coeffs.get(origin, QQ(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):  # pragma: no cover - series used as values, not keys
        return hash((self.vars, frozenset(self.coeffs.items())))

    def _require_same_vars(self, other: "TruncatedSeries"):
        if self.vars != other.vars:
            raise SeriesError(
                f"variable sets differ: {self.vars.names} vs {other.vars.names}"
            )

    # ---------------------------------------------------------- ring ops

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_vars(other)
        spec = self.spec.meet(other.spec)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = c
            else:
                acc = acc + c
                if acc == 0:
                    del out[mono]
                else:
                    out[mono] = acc
        if spec != self.spec or spec != other.spec:
            vars_ = self.vars
            out = {m: c for m, c in out.items() if not _outside(spec, vars_.metric(m))}
        return TruncatedSeries(self.vars, spec, out, _trusted=True)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.vars, self.spec, {m: -c for m, c in self.coeffs.items()}, _trusted=True
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scaled(self, c) -> "TruncatedSeries":
        q = QQ(c)
        if q == 0:
            return TruncatedSeries.zero(self.vars, self.spec)
        return TruncatedSeries(
            self.vars, self.spec, {m: q * v for m, v in self.coeffs.items()}, _trusted=True
        )

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self._mul_series(other)
        return self.scaled(other)

    __rmul__ = __mul__

    def _int_items(self) -> tuple[int, list]:
        """The integer form ``(D, [(monomial, metric, D * coefficient)])``,
        with D the lcm of the denominators so that every numerator is an
        ``int``.  A series built by an operation starts with it; one built
        from coefficients computes it on first use, and keeps it."""
        ints = self._ints
        if ints is None:
            metric = self.vars.metric
            den = 1
            for c in self._coeffs.values():
                if den % c.denominator:
                    den = lcm(den, c.denominator)
            ints = self._ints = den, [
                (m, metric(m), c.numerator * (den // c.denominator))
                for m, c in self._coeffs.items()
            ]
        return ints

    def _mul_series(self, other: "TruncatedSeries") -> "TruncatedSeries":
        acc = _LinearSum(self.vars, self.spec)
        acc.add_product(1, self, other)
        return acc.series()

    def __pow__(self, n: int) -> "TruncatedSeries":
        if not isinstance(n, int) or n < 0:
            raise SeriesError("only nonnegative integer powers")
        result = TruncatedSeries.one(self.vars, self.spec)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------- exp / log

    def _grades(self) -> tuple[dict[int, list], int]:
        """Homogeneous pieces under the nilpotence weight, and the top weight.

        Returns ``({k: [(monomial, metric, numerator)]}, top)``: the terms
        of weight k >= 1 as integer numerators over the series' common
        denominator (:meth:`_int_items`), and the largest weight an in-spec
        monomial can have.  A direction counts toward the weight when the spec
        bounds it above and no monomial of the series has a negative
        exponent there (so powers of the series can only climb and
        eventually leave the spec).  u, total x and p-weight are
        structurally nonnegative; the z/hbar windows qualify per series.
        A monomial of weight 0 is never nilpotent and raises.
        """
        spec, vars_ = self.spec, self.vars
        _den, items = self._int_items()
        use_z = (
            vars_.has_z
            and spec.z_window is not None
            and all(met[2] >= 0 for _m, met, _c in items)
        )
        use_h = (
            vars_.has_hbar
            and spec.hbar_window is not None
            and all(met[3] >= 0 for _m, met, _c in items)
        )
        grades: dict[int, list] = {}
        for item in items:
            w = _trunc_weight(spec, item[1], use_z, use_h)
            if w == 0:
                raise SeriesError(
                    f"monomial {item[0]} is not nilpotent under the truncation spec"
                )
            grades.setdefault(w, []).append(item)
        # the heaviest in-spec monomial sits at every upper bound at once
        corner = (
            spec.x_total_max or 0,
            spec.u_max or 0,
            spec.z_window[1] if use_z else 0,
            spec.hbar_window[1] if use_h else 0,
            spec.p_weight_max or 0,
        )
        return grades, _trunc_weight(spec, corner, use_z, use_h)

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

        Grade n sums its products in one :class:`_LinearSum`, w_k as the left
        items and g_{n-k} bucketed as the right operand, each an integer
        numerator over its own denominator (f's lcm for the given side,
        reduced by a gcd for the solved side).  Output grade n is the solved
        side's numerators over ``den * n``, den the grade sum's denominator;
        the result takes the lcm of these and keeps the integer form.
        """
        vars_, spec = self.vars, self.spec
        metric = vars_.metric
        origin = (0,) * vars_.nvars
        f = self
        d_self, terms = self._int_items()
        rest = [term for term in terms if term[0] != origin]
        if len(rest) < len(terms):
            f = TruncatedSeries._from_ints(vars_, spec, d_self, rest)
        grades, top = f._grades()
        d_f = f._int_items()[0]
        buckets = _LinearSum(vars_, spec).buckets  # every grade sums under this spec
        w: dict[int, tuple[int, list]] = {}  # n -> (den, numerators of w_n)
        g: dict[int, tuple[int, list]] = {}  # n -> (den, buckets of g_n)
        if exp:
            for k, items in grades.items():
                w[k] = (d_f, [(m, met, k * c) for m, met, c in items])
        else:
            for k, items in grades.items():
                g[k] = (d_f, buckets(items))
        sign = 1 if exp else -1
        kmax = max(grades, default=0)
        out = [(1, [(origin, metric(origin), 1)])] if exp else []  # (den, grade)
        empty_run = 0
        for n in range(1, top + 1):
            grade = _LinearSum(vars_, spec)
            for k in range(1, n):
                if k in w and n - k in g:
                    d_w, w_k = w[k]
                    d_g, g_nk = g[n - k]
                    grade.add_pairs(sign, d_w * d_g, w_k, g_nk)
            if n in grades:
                grade.add_items(n, d_f, grades[n])
            den = grade.den
            piece = [(m, metric(m), c) for m, c in grade.nums.items() if c]
            if not piece:
                empty_run += 1
                if empty_run >= kmax:
                    break  # every later grade multiplies only empty grades
                continue
            empty_run = 0
            d_n = den * n if exp else den  # of g_n, or of w_n
            r = gcd(d_n, *(c for _m, _met, c in piece))
            if r > 1:
                d_n //= r
                piece = [(m, met, c // r) for m, met, c in piece]
            if exp:
                g[n] = (d_n, buckets(piece))
                out.append((d_n, piece))
            else:
                w[n] = (d_n, piece)
                out.append((d_n * n, piece))
        den = lcm(*(d for d, _piece in out))
        items = [(m, met, c * (den // d)) for d, piece in out for m, met, c in piece]
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
        """Simultaneous substitution, evaluated monomial by monomial.

        All replacement series must share one (VariableSet, spec) — that
        pair defines the result.  Variables of ``self`` not being
        substituted must exist under the same name in the result set.
        Substituting ``u`` requires the replacement to have positive
        order in some direction the result spec bounds above, so that the
        source truncation at u^T stays sound.  A variable occurring with
        negative exponents can only be replaced by an invertible term
        (single monomial with nonzero coefficient).
        """
        if not assignments:
            return self
        repls = dict(assignments)
        first = next(iter(repls.values()))
        tvars, tspec = first.vars, first.spec
        for name, s in repls.items():
            self.vars.index(name)  # must exist in source
            if s.vars != tvars or s.spec != tspec:
                raise SeriesError("replacement series must share one variable set and spec")

        if "u" in repls:
            u_repl = repls["u"]
            if not _has_positive_bounded_order(u_repl):
                raise SeriesError(
                    "substituting u requires a replacement of positive order "
                    "in a truncated direction (u <- constant is unsound)"
                )

        src_names = self.vars.names
        carried: list[tuple[int, int]] = []  # (source position, target position)
        subst_pos: dict[int, TruncatedSeries] = {}
        for i, name in enumerate(src_names):
            if name in repls:
                subst_pos[i] = repls[name]
            else:
                carried.append((i, tvars.index(name)))

        power_cache: dict[tuple[int, int], TruncatedSeries] = {}

        def repl_power(i: int, e: int) -> TruncatedSeries:
            key = (i, e)
            got = power_cache.get(key)
            if got is None:
                series = subst_pos[i]
                if e >= 0:
                    got = series ** e
                else:
                    got = _invert_term(series) ** (-e)
                power_cache[key] = got
            return got

        nt = tvars.nvars
        out = _LinearSum(tvars, tspec)
        for mono, c in self.coeffs.items():
            base = [0] * nt
            for i_src, i_tgt in carried:
                base[i_tgt] = mono[i_src]
            term = TruncatedSeries(tvars, tspec, {tuple(base): 1})
            for i in subst_pos:
                e = mono[i]
                if e:
                    term = term * repl_power(i, e)
                if term.is_zero():
                    break
            out.add(c, term)
        return out.series()

    # ------------------------------------------------------- extraction

    def coefficient(self, exponents: Mapping[str, int]):
        """Coefficient of the given monomial; out-of-bounds is an error, never 0."""
        mono = [0] * self.vars.nvars
        for name, e in exponents.items():
            mono[self.vars.index(name)] = e
        mono = tuple(mono)
        if _outside(self.spec, self.vars.metric(mono)):
            raise OutOfBoundsError(
                f"monomial {dict(exponents)} lies outside the truncation spec {self.spec}"
            )
        return self.coeffs.get(mono, QQ(0))

    def grade_extract(self, name: str, degree: int) -> "TruncatedSeries":
        """Sub-series with the exact exponent ``degree`` in ``name``, factor removed."""
        i = self.vars.index(name)
        out = {}
        for mono, c in self.coeffs.items():
            if mono[i] == degree:
                m = list(mono)
                m[i] = 0
                out[tuple(m)] = c
        return TruncatedSeries(self.vars, self.spec, out, _trusted=True)

    def exponents_of(self, name: str) -> set[int]:
        i = self.vars.index(name)
        return {mono[i] for mono in self.coeffs}

    def truncate(self, spec: TruncationSpec) -> "TruncatedSeries":
        """Re-truncate to a (smaller) spec, in the integer form."""
        spec = self.spec.meet(spec)
        den, items = self._int_items()
        kept = [item for item in items if not _outside(spec, item[1])]
        return TruncatedSeries._from_ints(self.vars, spec, den, kept)

    def regrade(self, vars_: VariableSet, spec: TruncationSpec, fn) -> "TruncatedSeries":
        """Map every monomial to another grading: ``fn(mono) -> (mono', sign)``.

        The result lives over ``(vars_, spec)`` and holds ``sign * c`` at
        ``mono'`` for each term ``c * mono``.  A monomial past an upper
        bound of ``spec`` is dropped (ordinary truncation); one below a
        lower bound raises :class:`SeriesError`, because the spec promised
        to keep it.  ``fn`` must be injective (two monomials sent to one
        raise) and may raise itself for a monomial it has no image for.
        """
        out: dict[tuple[int, ...], object] = {}
        for mono, c in self.coeffs.items():
            m2, sign = fn(mono)
            side = _outside(spec, vars_.metric(m2))
            if side > 0:
                continue
            if side < 0:
                names = dict(zip(vars_.names, m2))
                raise SeriesError(
                    f"monomial {names} (from {mono}) lies below the lower bounds of {spec}"
                )
            if m2 in out:
                raise SeriesError(f"regrading sends two monomials to {m2}")
            out[m2] = c if sign == 1 else sign * c
        return TruncatedSeries(vars_, spec, out, _trusted=True)

    # ------------------------------------------------------ presentation

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        """Graded-lex order: weighted total degree first (weight(p_l) = l), then lex."""
        vars_ = self.vars
        p_start = vars_.p_start()

        def grade(mono):
            g = sum(abs(e) for e in mono[:p_start])
            for l in range(vars_.pcount):
                g += (l + 1) * mono[p_start + l]
            return g

        return sorted(self.coeffs, key=lambda m: (grade(m), m))

    def monomial_str(self, mono: tuple[int, ...]) -> str:
        parts = []
        for name, e in zip(self.vars.names, mono):
            if e == 1:
                parts.append(name)
            elif e != 0:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def to_text(self) -> str:
        """Canonical text form: graded-lex monomials, rational coefficients."""
        if not self.coeffs:
            return "0"
        terms = []
        for mono in self.sorted_monomials():
            c = self.coeffs[mono]
            ms = self.monomial_str(mono)
            cs = qq_str(c)
            if ms == "1":
                terms.append(cs)
            elif cs == "1":
                terms.append(ms)
            elif cs == "-1":
                terms.append(f"-{ms}")
            else:
                terms.append(f"{cs}*{ms}")
        return " + ".join(terms)

    def __repr__(self):
        text = self.to_text()
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<TruncatedSeries {text}>"


def _has_positive_bounded_order(series: TruncatedSeries) -> bool:
    """True if every monomial has positive degree in a direction bounded above."""
    spec, vars_ = series.spec, series.vars
    if series.is_zero():
        return True
    for mono in series.coeffs:
        xtot, u, _z, hb, pw = vars_.metric(mono)
        ok = False
        if spec.u_max is not None and u >= 1:
            ok = True
        if spec.x_total_max is not None and xtot >= 1:
            ok = True
        if spec.p_weight_max is not None and pw >= 1:
            ok = True
        if spec.hbar_window is not None and hb >= 1:
            ok = True
        if not ok:
            return False
    return True


def _invert_term(series: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a single-term series (negate exponents, invert coefficient)."""
    if len(series.coeffs) != 1:
        raise SeriesError(
            "negative exponents only substitutable by a single invertible term"
        )
    (mono, c), = series.coeffs.items()
    inv = tuple(-e for e in mono)
    if _outside(series.spec, series.vars.metric(inv)):
        raise OutOfBoundsError(f"inverse monomial {inv} falls outside the spec")
    return TruncatedSeries(series.vars, series.spec, {inv: QQ(1) / QQ(c)}, _trusted=True)
