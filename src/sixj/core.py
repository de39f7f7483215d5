"""Exact half-integer arithmetic, exact reference values, and the
double-precision d-matrix.

Quantum numbers are stored as twice their value so triangle and parity
checks stay in integer arithmetic; the HalfInt of each |2j| <= 4096 is
one shared instance.  Inside the package a symbol's lattice rules
(validate, the limits of its square by _square, the uniform map) run on
its six twice-values, read once by _twice; HalfInts and the Bounds of
bounds() are built at the public entry points and for the records a
caller reads.

The 6j symbol is the Racah single sum, summed exactly by a Horner
recurrence over the integer ratios of consecutive terms, times a
leading term that is an integer multinomial, with no factorial taken.
The triangle integers of its square-root prefactor are kept for the
last few pairs of triangles that share an edge; a j12 or a j23 row
holds one such pair fixed.  The double of the symbol is rounded once
from the integers of that sum and of its prefactor, with no Fraction
and no mpmath; the reduced rationals and the 50-digit mpf are built
only when read.

The Wigner d-matrix element comes two ways.  wigner_d, the one the
uniform approximation calls, runs the three-term recurrence in m in
double precision, O(j) steps with a power-of-two scale carried along.
exact_wigner_d is the reference: Wigner's sum in mpmath, stepping from
term to term by the exact term ratio, at a precision raised until 17
digits survive the cancellation, so the double it returns is correct to
about a unit in the last place.  Both share one entry check, _d_entry;
behind it wigner_d's body, _wigner_d, takes the checked twice-values,
and the uniform approximation calls that body on the (j, m, m') its map
puts on the lattice.

The per-symbol records here and in tetra, prasym and uniform (Bounds,
RegionClass, PRResult, UniformResult, ...) are typing.NamedTuples:
immutable tuples with named fields.

mpmath work runs on one shared context per precision (see _mp).  The
contexts are set up once and never changed afterwards, and the code
calls on them only operations that read their precision, never set it.
mpmath is imported by the first _mp call, so a process that reads only
doubles never loads it.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import NamedTuple

MP_DPS = 50            # emission precision for exact 6j values
_TINY_SIN_BETA = 2.0 ** -900  # below it wigner_d takes first order in beta
_RESCALE_ABOVE = 256.0        # wigner_d renormalizes its running pair above
                              # this; one step can grow it by 4j * 2**901


class SixJError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(SixJError, ValueError):
    """Invalid quantum numbers, lengths, or arguments (CLI exit 2)."""


class WrongRegionError(SixJError):
    """Operation applied in a region where it is not defined."""


class OnCausticError(WrongRegionError):
    """Primitive asymptotic form requested exactly on a caustic."""


class InvariantError(SixJError):
    """Internal invariant violated; indicates a bug (CLI exit 3)."""


class SolverError(InvariantError):
    """Root finder failed to converge within its iteration budget."""


@functools.lru_cache(maxsize=64)
def _mp(dps):
    """The shared mpmath context at the given precision.

    One context per dps, made on first use (a clone costs about 0.6 ms
    and 41 KB).  Callers must not change it: no setting of dps or prec,
    and no mpmath function that raises the working precision for a
    while (the special functions wrapped by mpmath's _wrap_specfun do).
    Arithmetic, mpf, sqrt, cos, sin and log10 only read ctx.prec, so a
    shared context is safe to use from several threads at once.
    """
    import mpmath
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


_SHARED_TWICE_MAX = 4096
_shared_halfints = {}   # twice -> HalfInt, filled on first use


@functools.total_ordering
class HalfInt:
    """Integer or half-odd-integer, stored as twice its value.

    Instances with |twice| <= 4096 are shared: HalfInt(t) returns the
    same object each time, so symbol pools hold six pointers per symbol.
    Never assign to ``twice``.
    """

    __slots__ = ("twice",)

    def __new__(cls, twice):
        if not isinstance(twice, int):
            raise ValidationError(f"HalfInt stores 2j as int, got {twice!r}")
        twice = int(twice)   # a bool is an int; store the plain int
        self = _shared_halfints.get(twice)
        if self is None:
            self = super().__new__(cls)
            self.twice = twice
            if abs(twice) <= _SHARED_TWICE_MAX:
                self = _shared_halfints.setdefault(twice, self)
        return self

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, so shared stays shared
        return (self.twice,)

    @classmethod
    def of(cls, x):
        """Coerce an int, Fraction, HalfInt, or a string like '7', '39/2'
        or '3.5', with no exponent: no more digits than the string."""
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return cls(2 * x)
        if isinstance(x, (str, Fraction)):
            try:
                if isinstance(x, str) and "e" in x.lower():
                    raise ValueError(x)
                f = Fraction(x)
            except (ValueError, ZeroDivisionError):
                raise ValidationError(f"not a half-integer: {x!r}") from None
            if f.denominator not in (1, 2):
                raise ValidationError(f"not a half-integer: {x!r}")
            return cls(f.numerator * (2 // f.denominator))
        raise ValidationError(f"cannot interpret {x!r} as a half-integer")

    def as_fraction(self):
        return Fraction(self.twice, 2)

    def __float__(self):
        return self.twice / 2

    def __int__(self):
        if self.twice % 2:
            raise ValidationError(f"{self} is not an integer")
        return self.twice // 2

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt.of('{self}')"

    @staticmethod
    def _twice_of(other):
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return None

    # == and < are written out: comparing the label tuples of symbols
    # calls them on every symbol; total_ordering derives <=, > and >=
    def __eq__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else self.twice == t

    def __hash__(self):
        return hash(self.as_fraction())

    def __lt__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else self.twice < t

    def __add__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else HalfInt(self.twice + t)

    __radd__ = __add__

    def __sub__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else HalfInt(self.twice - t)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __abs__(self):
        return HalfInt(abs(self.twice))


def phase(k):
    """(-1)**k for an integer-valued k (int or integral HalfInt)."""
    if isinstance(k, HalfInt):
        if k.twice % 2:
            raise InvariantError(f"(-1)**k needs integer k, got {k}")
        k = k.twice // 2
    return -1 if k % 2 else 1


# Triangle triples of the 6j layout {j1 j2 j12; j3 j4 j23}.
TRIANGLES = (
    ("j1", "j2", "j12"),
    ("j2", "j3", "j23"),
    ("j3", "j4", "j12"),
    ("j1", "j4", "j23"),
)

LABEL_NAMES = ("j1", "j2", "j12", "j3", "j4", "j23")


@dataclass(frozen=True, slots=True)
class SixJLabels:
    """The six quantum numbers of {j1 j2 j12; j3 j4 j23}."""

    j1: HalfInt
    j2: HalfInt
    j12: HalfInt
    j3: HalfInt
    j4: HalfInt
    j23: HalfInt

    @classmethod
    def of(cls, j1, j2, j12, j3, j4, j23):
        return cls(*(HalfInt.of(x) for x in (j1, j2, j12, j3, j4, j23)))

    def as_tuple(self):
        return (self.j1, self.j2, self.j12, self.j3, self.j4, self.j23)

    def columns(self):
        """The three columns ((j1,j3), (j2,j4), (j12,j23))."""
        return ((self.j1, self.j3), (self.j2, self.j4), (self.j12, self.j23))

    def with_columns(self, cols):
        (a, d), (b, e), (c, f) = cols
        return SixJLabels(a, b, c, d, e, f)

    def swapped_updown(self, i, k):
        """Swap upper and lower entries in columns i and k (a 6j symmetry)."""
        cols = [list(c) for c in self.columns()]
        for c in (i, k):
            cols[c][0], cols[c][1] = cols[c][1], cols[c][0]
        return self.with_columns(tuple(tuple(c) for c in cols))

    def __str__(self):
        t = self.as_tuple()
        return ("{%s %s %s; %s %s %s}" % tuple(str(x) for x in t))


# The triangles as positions in LABEL_NAMES order.
_TRIANGLE_AT = tuple(tuple(LABEL_NAMES.index(n) for n in names)
                     for names in TRIANGLES)


def _twice(labels):
    """The six twice-values of labels, in LABEL_NAMES order."""
    return (labels.j1.twice, labels.j2.twice, labels.j12.twice,
            labels.j3.twice, labels.j4.twice, labels.j23.twice)


def validate(labels):
    """None if labels form a valid 6j symbol, else a report naming the
    first violated triple."""
    t = _twice(labels)
    if min(t) < 0:
        name, x = next((n, x) for n, x in zip(LABEL_NAMES, t) if x < 0)
        return f"{name} = {HalfInt(x)} is negative"
    for names, (a, b, c) in zip(TRIANGLES, _TRIANGLE_AT):
        ta, tb, tc = t[a], t[b], t[c]
        if (ta + tb + tc) % 2:
            return ("triangle (%s,%s,%s): perimeter %s/2 is not an integer"
                    % (*names, ta + tb + tc))
        if not abs(ta - tb) <= tc <= ta + tb:
            return ("triangle (%s,%s,%s): |%s - %s| <= %s <= %s + %s fails"
                    % (*names, *(HalfInt(x) for x in (ta, tb, tc, ta, tb))))
    return None


def require_valid(labels):
    report = validate(labels)
    if report is not None:
        raise ValidationError(report)


class Bounds(NamedTuple):
    """Quantum and classical limits of j12 and j23 at fixed (j1..j4).

    The classical window of the continuous length J12 is
    [J12_min, J12_max] = [j12_min, j12_max + 1]; quantized values
    J = j + 1/2 sit half a unit inside it.  four holds the fixed
    lengths (J1, J2, J3, J4).
    """

    j12_min: HalfInt
    j12_max: HalfInt
    j23_min: HalfInt
    j23_max: HalfInt
    D: int
    j12_avg: HalfInt
    j23_avg: HalfInt
    four: tuple

    @property
    def J12_min(self):
        return float(self.j12_min)

    @property
    def J12_max(self):
        return float(self.j12_max) + 1.0

    @property
    def J23_min(self):
        return float(self.j23_min)

    @property
    def J23_max(self):
        return float(self.j23_max) + 1.0

    @property
    def J12_avg(self):
        return float(self.j12_avg) + 0.5

    @property
    def J23_avg(self):
        return float(self.j23_avg) + 0.5


def bounds(j1, j2, j3, j4):
    """Classical and quantum bounds of the (j12, j23) lattice."""
    return _bounds(*(HalfInt.of(x).twice for x in (j1, j2, j3, j4)))


def _bounds(t1, t2, t3, t4):
    """bounds() of the twice-values of (j1, j2, j3, j4)."""
    if min(t1, t2, t3, t4) < 0:
        name = next(name for t, name in zip((t1, t2, t3, t4),
                                            ("j1", "j2", "j3", "j4")) if t < 0)
        raise ValidationError(f"{name} is negative")
    if (t1 + t2 - t3 - t4) % 2:
        raise ValidationError(
            "degenerate range: j1+j2 and j3+j4 differ in integer/half-integer "
            "character, no valid j12 exists")
    t12min, t12max, t23min, t23max = _square(t1, t2, t3, t4)
    if t12max < t12min:
        raise ValidationError("degenerate range: j12_max < j12_min")
    if t23max < t23min:
        raise ValidationError("degenerate range: j23_max < j23_min")
    return Bounds(
        j12_min=HalfInt(t12min), j12_max=HalfInt(t12max),
        j23_min=HalfInt(t23min), j23_max=HalfInt(t23max),
        D=(t12max - t12min) // 2 + 1,
        j12_avg=HalfInt((t12min + t12max) // 2),
        j23_avg=HalfInt((t23min + t23max) // 2),
        four=(t1 / 2 + 0.5, t2 / 2 + 0.5, t3 / 2 + 0.5, t4 / 2 + 0.5),
    )


def _square(t1, t2, t3, t4):
    """The twice-limits (t12min, t12max, t23min, t23max) of the (j12, j23)
    square of the twice-values of (j1, j2, j3, j4), not negative and with
    an even sum.  Where neither range is empty (max < min), both must hold
    D values and obey the two bound theorems, else InvariantError."""
    t12min = max(abs(t1 - t2), abs(t3 - t4))
    t12max = min(t1 + t2, t3 + t4)
    t23min = max(abs(t2 - t3), abs(t1 - t4))
    t23max = min(t2 + t3, t1 + t4)
    if t12min <= t12max and t23min <= t23max:
        if t12max - t12min != t23max - t23min:
            raise InvariantError(f"D mismatch: {(t12max - t12min) // 2 + 1} "
                                 f"on j12 axis, {(t23max - t23min) // 2 + 1} "
                                 "on j23 axis")
        # The two bound theorems: which pair limits one axis fixes the other
        expect_12max = t3 + t4 if t23min in (t1 - t4, t2 - t3) else t1 + t2
        expect_23max = t2 + t3 if t12min in (t1 - t2, t4 - t3) else t1 + t4
        if t12max != expect_12max or t23max != expect_23max:
            raise InvariantError("bound theorems violated for (%s,%s,%s,%s)"
                                 % tuple(HalfInt(t) for t in (t1, t2, t3, t4)))
    return t12min, t12max, t23min, t23max


def lengths(labels):
    """The six classical edge lengths J_i = j_i + 1/2, in the order
    (J1, J2, J3, J4, J12, J23)."""
    return tuple(x.twice / 2 + 0.5 for x in
                 (labels.j1, labels.j2, labels.j3, labels.j4,
                  labels.j12, labels.j23))


_ROOT_CUT = 160     # bits of |num|, den and 1/P the double is computed from
_ROOT_BITS = 72     # bits of the integer square root it is rounded from
_kept_lock = threading.Lock()


class ExactValue:
    """Exact 6j value R*sqrt(P) with R, P rational.

    Holds the integers of the Racah sum, R = num/den unreduced and
    P = 1/inv with inv the product of the four triangle integers, and the
    double nearest R*sqrt(P), rounded once from them (_root_double),
    which float() returns.  ``rational`` (R) and ``radicand`` (P) as
    reduced Fractions, and ``value``, an mpf of the shared MP_DPS context
    (see _mp), are built on first read and kept: a second read returns
    the same object.  Callers must not change that context, e.g. through
    ``value.context.dps``.  == and hash compare R and P.
    """

    __slots__ = ("_num", "_den", "_inv", "_double",
                 "_rational", "_radicand", "_value")

    def __init__(self, num, den, inv):
        self._num, self._den, self._inv = num, den, inv
        self._double = _root_double(num, den, inv)
        self._rational = self._radicand = self._value = None

    def _kept(self, slot, build):
        """The field in `slot`, set to build() on its first read."""
        x = getattr(self, slot)
        if x is None:
            with _kept_lock:
                x = getattr(self, slot)
                if x is None:
                    x = build()
                    setattr(self, slot, x)
        return x

    @property
    def rational(self):
        return self._kept("_rational", lambda: Fraction(self._num, self._den))

    @property
    def radicand(self):
        return self._kept("_radicand", lambda: Fraction(1, self._inv))

    @property
    def value(self):
        """R*sqrt(P) as an mpmath.mpf at MP_DPS significant digits."""
        r, p = self.rational, self.radicand
        return self._kept("_value", lambda: _root_form(r, p, MP_DPS))

    @property
    def sign(self):
        return (self._num > 0) - (self._num < 0)

    def __eq__(self, other):
        if not isinstance(other, ExactValue):
            return NotImplemented
        return (self.rational == other.rational
                and self.radicand == other.radicand)

    def __hash__(self):
        return hash((self.rational, self.radicand))

    def __float__(self):
        return self._double

    def __repr__(self):
        return (f"ExactValue(rational={self.rational!r}, "
                f"radicand={self.radicand!r})")


def _root_double(num, den, inv):
    """The double nearest num / (den * sqrt(inv)), rounded once, for
    integers den, inv > 0 and a quotient of magnitude at most 1.

    |num|, den and inv are cut to their top _ROOT_CUT bits, which moves
    the quotient by less than 2**-157 of itself.  y is the floor of
    num^2 / (den^2 inv) * 2**-2E, with E chosen so that s = isqrt(y) has
    about _ROOT_BITS bits; then |quotient| * 2**-E lies in [s, s + 1),
    on s exactly when the division left no remainder and y is a square.
    (2s + 1) / 2**(1 - E) stands for an inexact quotient: it rounds the
    same way, since a double keeps at most 53 of the bits of s, so each
    of its rounding boundaries is a multiple of 2**E.  The int division
    rounds once, to a subnormal or to zero as well.
    """
    if not num:
        return 0.0
    a = abs(num)
    ca = max(0, a.bit_length() - _ROOT_CUT)
    cd = max(0, den.bit_length() - _ROOT_CUT)
    ci = max(0, inv.bit_length() - _ROOT_CUT)
    n, d = (a >> ca) ** 2, (den >> cd) ** 2 * (inv >> ci)
    e2 = 2 * ca - 2 * cd - ci        # quotient^2 = n / d * 2**e2
    t = 2 * _ROOT_BITS - n.bit_length() + d.bit_length()
    t += (e2 - t) % 2
    if t >= 0:
        y, rem = divmod(n << t, d)
    else:
        y, rem = divmod(n, d << -t)
    s = isqrt(y)
    x = (2 * s + (rem != 0 or s * s != y)) / (1 << (1 - (e2 - t) // 2))
    return x if num > 0 else -x


# A j12 row keeps the triangles (j1 j4 j23) and (j2 j3 j23) fixed, a j23
# row (j1 j2 j12) and (j3 j4 j12).  exact_sixj takes its four triangle
# integers as two pairs and the last few pairs are kept, so a symbol
# after the first of a row builds two of the four.  8 holds the fixed
# pairs of two rows evaluated in turn.
_PAIRS_KEPT = 8


@functools.lru_cache(maxsize=_PAIRS_KEPT)
def _inverse_delta_sq_pair(ta, tb, td, te, tc):
    """1/(Delta^2(a,b,c) Delta^2(d,e,c)) for two triangles on the edge c.

    1/Delta^2(a,b,c) = (a+b+c+1)!/((a+b-c)!(a-b+c)!(-a+b+c)!) is an
    integer: (n+1) times a multinomial coefficient, n = a+b+c.
    """
    x, y, n = (ta + tb - tc) // 2, (ta - tb + tc) // 2, (ta + tb + tc) // 2
    u, v, m = (td + te - tc) // 2, (td - te + tc) // 2, (td + te + tc) // 2
    return ((n + 1) * comb(n, x) * comb(n - x, y)
            * (m + 1) * comb(m, u) * comb(m - u, v))


def _multinomial(parts):
    """(sum of parts)! / prod part!, as a product of binomials.  Taking
    the parts largest first keeps the lower index of each binomial
    small."""
    out, n = 1, 0
    for p in sorted(parts, reverse=True):
        n += p
        out *= comb(n, p)
    return out


def _root_form(rational, radicand, dps):
    """R*sqrt(P) as an mpmath.mpf at dps significant digits."""
    ctx = _mp(dps)
    return (ctx.mpf(rational.numerator) / rational.denominator
            * ctx.sqrt(ctx.mpf(radicand.numerator) / radicand.denominator))


def exact_sixj(labels):
    """The 6j symbol by the Racah single sum, exactly.

    The sum over k of (-1)^k (k+1)! / (prod (k-s_i)! prod (q_j-k)!) is
    t_kmin times a Horner sum over the ratios t_{k+1}/t_k =
    -(k+2)(q1-k)(q2-k)(q3-k) / prod (k+1-s_i), evaluated from the top in
    integers.  The seven factorial arguments of t_kmin sum to kmin (the
    q_j and the s_i both add up to the sum of the six labels), so
    |t_kmin| is the integer (kmin+1) times a multinomial coefficient; it
    goes into the numerator, and the denominator is the product of the
    Horner steps alone.  The radicand P is 1 over the product of the
    four triangle integers, taken as two pairs from
    _inverse_delta_sq_pair.  The ExactValue keeps the three integers and
    rounds its double from them.
    """
    require_valid(labels)
    ta, tb, tc, td, te, tf = _twice(labels)
    s1 = (ta + tb + tc) // 2
    s2 = (ta + te + tf) // 2
    s3 = (td + tb + tf) // 2
    s4 = (td + te + tc) // 2
    q1 = (ta + tb + td + te) // 2
    q2 = (tb + tc + te + tf) // 2
    q3 = (ta + tc + td + tf) // 2
    kmin, kmax = max(s1, s2, s3, s4), min(q1, q2, q3)
    num = den = 1
    for k in range(kmax - 1, kmin - 1, -1):
        up = (k + 2) * (q1 - k) * (q2 - k) * (q3 - k)
        down = (k + 1 - s1) * (k + 1 - s2) * (k + 1 - s3) * (k + 1 - s4)
        den *= down
        num = den - num * up
    num *= phase(kmin) * (kmin + 1) * _multinomial(
        (kmin - s1, kmin - s2, kmin - s3, kmin - s4,
         q1 - kmin, q2 - kmin, q3 - kmin))
    return ExactValue(num, den, _inverse_delta_sq_pair(ta, tb, td, te, tc)
                      * _inverse_delta_sq_pair(ta, te, td, tb, tf))


def _wigner_d_mp(tj, tm, tmp, beta, dps0):
    """Wigner's sum for d at twice-valued (j, m, m'), in mpmath passes
    from dps0 digits (at least 30) up.  The terms alternate in sign;
    their magnitudes start from the exact factorial coefficient of the
    first and step by the exact ratio (j+m'-k)(j-m-k) / ((k+1)(m-m'+k+1))
    times tan^2(beta/2).  Summing the two signs apart gives the sum and
    the sum of magnitudes from the same two partial sums; their ratio is
    the cancellation.  A pass left with fewer than 17 digits after the
    cancellation is repeated at 30 digits more than it lost, up to 8
    passes."""
    jm, jpmp, mm = (tj - tm) // 2, (tj + tmp) // 2, (tm - tmp) // 2
    smin, smax = max(0, -mm), min(jpmp, jm)
    N = (factorial((tj + tm) // 2) * factorial(jm) * factorial(jpmp)
         * factorial((tj - tmp) // 2))
    den0 = (factorial(jpmp - smin) * factorial(smin) * factorial(mm + smin)
            * factorial(jm - smin))
    dps = max(30, dps0)
    for _ in range(8):
        ctx = _mp(dps)
        half = ctx.mpf(beta) / 2
        c = ctx.cos(half)
        s = ctx.sin(half)
        tan2 = (s / c) ** 2
        mag = (ctx.sqrt(ctx.mpf(N)) / den0 * c ** (tj - 2 * smin - mm)
               * s ** (mm + 2 * smin))
        same, other = mag, ctx.mpf(0)   # |terms| with the first's sign, rest
        for k in range(smin, smax):
            mag = (mag * tan2 * ((jpmp - k) * (jm - k))
                   / ((k + 1) * (mm + k + 1)))
            if (k - smin) % 2:
                same += mag
            else:
                other += mag
        total = same - other
        if (mm + smin) % 2:
            total = -total
        absum = same + other
        if total == 0:
            lost = dps
        else:
            lost = max(0.0, float(ctx.log10(absum / abs(total))))
        if dps - lost >= 17:
            return float(total)
        if total != 0 and abs(total) < ctx.mpf("1e-330") and dps - lost >= 3:
            return float(total)  # underflows double anyway
        dps = int(lost) + 30
    raise InvariantError(
        f"wigner d escalation did not stabilize at dps={dps}")


def _d_indices(j, m, mp):
    """(j, m, m') as HalfInts, checked for a d-matrix element here and in
    dasym: |m|, |m'| <= j, and j - m, j - m' integers."""
    j, m, mp = HalfInt.of(j), HalfInt.of(m), HalfInt.of(mp)
    tj, tm, tmp = j.twice, m.twice, mp.twice
    if tj < 0 or abs(tm) > tj or abs(tmp) > tj:
        raise ValidationError(f"need |m|, |m'| <= j, got j={j} m={m} m'={mp}")
    if (tj - tm) % 2 or (tj - tmp) % 2:
        raise ValidationError(f"j-m and j-m' must be integers: j={j} m={m} m'={mp}")
    return j, m, mp


def _d_entry(j, m, mp, beta):
    """The entry check of the d-matrix functions: (tj, tm, tmp, beta),
    the twice-values of (j, m, m') and beta as a float in [0, pi]."""
    j, m, mp = _d_indices(j, m, mp)
    beta = float(beta)
    if not 0.0 <= beta <= math.pi:
        raise ValidationError(f"beta must be in [0, pi], got {beta}")
    return j.twice, m.twice, mp.twice, beta


def _d_edge(tj, tm, tmp, beta):
    """The exact element at beta = 0 or pi; None for 0 < beta < pi."""
    if beta == 0.0:
        return 1.0 if tm == tmp else 0.0
    if beta == math.pi:
        return float(phase((tj - tmp) // 2)) if tm == -tmp else 0.0
    return None


def exact_wigner_d(j, m, mp, beta):
    """d^j_{mm'}(beta) = <jm| exp(-i beta Jy) |jm'>, as a double.

    The reference value: Wigner's sum in mpmath by _wigner_d_mp, with a
    first pass at 40 + j/2 digits.  The sum is kept only when at least
    17 digits are left after its cancellation, so the double is within
    about a unit in the last place of the element at this beta; tested
    to 1e-15 relative against Wigner's sum with every term from its
    factorials, for 2j <= 800.  An element below 1e-330
    underflows to 0.0, so 3 digits suffice there.
    """
    tj, tm, tmp, beta = _d_entry(j, m, mp, beta)
    edge = _d_edge(tj, tm, tmp, beta)
    if edge is not None:
        return edge
    return _wigner_d_mp(tj, tm, tmp, beta, 40 + tj // 4)


def _pow_scaled(x, n):
    """x**n for 0 < x <= 1 as (mantissa, exponent), with no underflow."""
    f, e = math.frexp(x)
    mant, expo = 1.0, e * n
    while n:
        step = min(n, 1000)     # f**1000 >= 2**-1000 is still normal
        mant, k = math.frexp(mant * f ** step)
        expo += k
        n -= step
    return mant, expo


def wigner_d(j, m, mp, beta):
    """d^j_{mm'}(beta) in double precision, by the three-term recurrence
    in m at fixed j, m' and beta (Schulten and Gordon):

        A(m) d_{m+1} = 2 (m' - m cos beta) / sin beta * d_m - A(m-1) d_{m-1},
        A(m) = sqrt((j + m + 1)(j - m)).

    An m above the band centre m' cos beta is reflected by
    d_{mm'} = (-1)^(m-m') d_{-m,-m'}, so the recurrence always runs up
    from m = -j, where d_{-j,m'} = sqrt(C(2j, j+m')) cos^(j-m')(beta/2)
    sin^(j+m')(beta/2).  That way it grows through the forbidden zone
    and stays neutral inside the band.  The start value is a mantissa
    times a power of two and the running pair is rescaled by powers of
    two, so the exponential tails reach the subnormal range and round to
    0.0 below it.  Argument checks and the exact values at beta = 0 and
    pi are those of exact_wigner_d.

    Tolerance, against exact_wigner_d for 2j <= 2000: relative error at
    most 1e-11 wherever |d| >= 1e-300 in the tails; inside the band and
    next to the turning points, where d has nodes, the error is at most
    1e-11 times the largest |d| at m - 1, m and m + 1.
    """
    return _wigner_d(*_d_entry(j, m, mp, beta))


def _wigner_d(tj, tm, tmp, beta):
    """wigner_d of checked arguments: the twice-values of a d-matrix
    index triple and a float beta in [0, pi] (_d_entry)."""
    edge = _d_edge(tj, tm, tmp, beta)
    if edge is not None:
        return edge
    sign = 1.0
    if tm > tmp * math.cos(beta):
        tm, tmp = -tm, -tmp
        sign = float(phase((tm - tmp) // 2))
    sin_b = math.sin(beta)
    if sin_b < _TINY_SIN_BETA:
        # the recurrence coefficient would overflow.  Here cos beta = 1.0,
        # so tm <= tmp, and to first order in beta d is 1 on the diagonal,
        # (beta/2) sqrt((j + m')(j - m' + 1)) at m = m' - 1 and 0 beyond
        if tm == tmp:
            return 1.0
        if tm == tmp - 2:
            return sign * beta * math.sqrt((tj + tmp) * (tj - tmp + 2)) / 4.0
        return 0.0
    binom = comb(tj, (tj + tmp) // 2)
    shift = max(0, binom.bit_length() - 64) & ~1
    mc, ec = _pow_scaled(math.cos(beta / 2), (tj - tmp) // 2)
    ms, es = _pow_scaled(math.sin(beta / 2), (tj + tmp) // 2)
    cur, k = math.frexp(math.sqrt(binom >> shift) * mc * ms)
    expo = shift // 2 + ec + es + k
    prev = a_prev = 0.0
    cos_b, two_over_sin = math.cos(beta), 2.0 / sin_b
    sqrt = math.sqrt
    for t in range(-tj, tm, 2):     # t = 2m; each pass gives d at m + 1
        a = sqrt((tj + t + 2) * (tj - t))      # 2 A(m)
        prev, cur = cur, ((tmp - t * cos_b) * two_over_sin * cur
                          - a_prev * prev) / a
        a_prev = a
        if abs(cur) > _RESCALE_ABOVE:
            cur, k = math.frexp(cur)
            prev = math.ldexp(prev, -k)
            expo += k
    return sign * math.ldexp(cur, expo)
