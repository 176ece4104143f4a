"""Fixed-point phase arithmetic and the unit-circle kernel behind the Weyl sums.

Phases live on the torus [0,1) as 128-bit binary fractions, so frac(n*alpha)
is computed by exact integer multiplication modulo 2^128 instead of lossy
binary64 reduction (x^3*alpha for x near 2^21 would already lose ~63 bits
in a double).  The sums run through one numpy kernel: `phase_limbs` forms
each term's phase exactly as two uint64 limbs from 32-bit limb products with
carries, and `unit_terms` folds it into the first quadrant with 128-bit
borrows and exact quarter points before taking cos and sin.  A phase and
its negative fold to the same bits, which makes complex conjugation an
exact bit-level symmetry of eval_g/eval_f.  Terms are added with math.fsum,
so every sum is correctly rounded and independent of term order; blocks of
at most BLOCK_TERMS terms bound the memory without changing any sum.
eval_g and eval_f share one working range, eval_g counting as k = 3:
1 <= X <= 10^8 terms, which keeps x below 2^32 as the limb multiply needs,
and X^k < 2^80.  The scalar `unit` is the reference the kernel is tested
against.  The same limb arithmetic serves `bounds.k_counts` and
`counting.reciprocal_sum_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

import numpy as np

SCALE_BITS = 128
SCALE = 1 << SCALE_BITS
_MASK = SCALE - 1
_QUARTER = SCALE >> 2
_HALF = SCALE >> 1
_THREE_QUARTER = _QUARTER * 3

# Multiplier guard.  The stated working range is n < 2^64 (error n*2^-128 <=
# 2^-64); the cap is set wider so that x^k for k=6, X=2048 (x^k < 2^67) stays
# evaluable, at phase error still below 2^-48.
_N_CAP = 1 << 80

BLOCK_TERMS = 1 << 16  # terms per kernel call
_M32 = 0xFFFFFFFF
_HALF64 = np.uint64(1 << 63)  # the high limb of 1/2
_QUARTER64 = np.uint64(1 << 62)  # the high limb of 1/4

RealLike = Union[int, float, str, Fraction]


@dataclass(frozen=True)
class FixedPhase:
    """A point of [0,1) stored as frac/2^128; arithmetic wraps modulo 1."""

    frac: int

    def __post_init__(self) -> None:
        if not isinstance(self.frac, int):
            raise TypeError("frac must be an integer")
        if not 0 <= self.frac < SCALE:
            raise ValueError("frac out of [0, 2^128)")

    @staticmethod
    def from_rational(a: int, q: int) -> "FixedPhase":
        """floor((a/q) * 2^128) / 2^128; error < 2^-128.

        Requires 0 <= a < q and 0 < q < 2^63.
        """
        if q <= 0 or q >= (1 << 63):
            raise ValueError("q must satisfy 0 < q < 2^63")
        if not 0 <= a < q:
            raise ValueError("a must lie in [0, q)")
        return FixedPhase((a << SCALE_BITS) // q)

    @staticmethod
    def from_real(x: RealLike) -> "FixedPhase":
        """Parse a real number (float, decimal string, or Fraction) mod 1.

        Floats and decimal strings are converted through exact rational
        arithmetic, so the only rounding is the final floor to 2^-128.
        """
        r = Fraction(x)
        r -= math.floor(r)
        return FixedPhase((r.numerator << SCALE_BITS) // r.denominator)

    def mul_int(self, n: int) -> "FixedPhase":
        """frac(n * alpha); exact modular arithmetic, wraps for negative n."""
        if abs(n) >= _N_CAP:
            raise ValueError("multiplier too large (|n| >= 2^80)")
        return FixedPhase((n * self.frac) & _MASK)

    def add(self, other: "FixedPhase") -> "FixedPhase":
        return FixedPhase((self.frac + other.frac) & _MASK)

    def complement(self) -> "FixedPhase":
        """frac(1 - alpha) = frac(-alpha)."""
        return FixedPhase((-self.frac) & _MASK)

    def as_fraction(self) -> Fraction:
        return Fraction(self.frac, SCALE)

    def to_float(self) -> float:
        return self.frac / SCALE


def unit(frac: int) -> Tuple[float, float]:
    """(cos, sin) of 2*pi*frac/2^128.

    Quarter points are exact, and unit(2^128 - frac) is the exact conjugate
    of unit(frac): the reduction below maps both arguments to the identical
    folded value, so the cosine bits agree and the sine is negated.  That
    symmetry is what makes the conjugation invariant of eval_g bit-level.
    """
    if frac == 0:
        return (1.0, 0.0)
    if frac == _QUARTER:
        return (0.0, 1.0)
    if frac == _HALF:
        return (-1.0, 0.0)
    if frac == _THREE_QUARTER:
        return (0.0, -1.0)
    s_sign = 1.0
    m = frac
    if m > _HALF:
        m = SCALE - m
        s_sign = -1.0
    c_sign = 1.0
    if m > _QUARTER:
        m = _HALF - m
        c_sign = -1.0
    # m is now strictly inside (0, 2^126): the angle is in (0, pi/2), where
    # binary64 sin/cos are well conditioned.
    t = math.tau * (m / SCALE)
    return (c_sign * math.cos(t), s_sign * math.sin(t))


def phase_limbs(frac: int, m: np.ndarray, k: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """(m^k * frac) mod 2^128, exactly, as (high, low) uint64 limbs.

    m is an int64 array with |m| < 2^32 and k >= 1.  Each step multiplies
    the four 32-bit limbs by |m|^e with carries (a product plus a carry stays
    below 2^64), e as large as keeps max |m|^e below 2^32: k = 6 at
    |m| < 2^16 takes three steps, k = 3 at |m| <= 1625 one.  Odd powers of
    negative m are negated mod 2^128.
    """
    mag = np.abs(m).astype(np.uint64)
    top = int(mag.max(initial=0))
    e = 1
    while e < k and top ** (e + 1) < 1 << 32:
        e += 1
    limbs = split_limbs(frac)
    for done in range(0, k, e):
        limbs, _carry = mul_limbs(limbs, mag ** min(e, k - done))
    l0, l1, l2, l3 = limbs
    hi, lo = (l3 << 32) | l2, (l1 << 32) | l0
    if k % 2:
        neg = m < 0
        nh, nl = _negate(hi, lo)
        hi, lo = np.where(neg, nh, hi), np.where(neg, nl, lo)
    return hi, lo


def split_limbs(frac: int) -> List[int]:
    """A 128-bit fraction as four little-endian 32-bit limbs."""
    return [(frac >> shift) & _M32 for shift in (0, 32, 64, 96)]


def mul_limbs(limbs: List, mag) -> Tuple[List, np.ndarray]:
    """limbs * mag on four little-endian 32-bit limbs of a 128-bit fraction,
    with mag < 2^32: the product's low 128 bits as four limbs, and the
    carry out of the top limb, floor(limbs * mag / 2^128)."""
    out = []
    carry = 0
    for a in limbs:
        t = a * mag + carry
        out.append(t & _M32)
        carry = t >> 32
    return out, carry


def add_limbs(p: Tuple[np.ndarray, np.ndarray],
              q: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """(p + q) mod 2^128 on (high, low) uint64 limbs."""
    lo = p[1] + q[1]
    return p[0] + q[0] + (lo < q[1]), lo


def _negate(hi: np.ndarray, lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(-x) mod 2^128 on (high, low) uint64 limbs."""
    return ~hi + (lo == 0), ~lo + 1


def fold_half(phase: Tuple[np.ndarray, np.ndarray]
              ) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Phases past 1/2 negated, with 128-bit borrows, and where that
    happened: the folded phase is the distance to the nearest integer."""
    hi, lo = phase
    past_half = (hi > _HALF64) | ((hi == _HALF64) & (lo != 0))
    nh, nl = _negate(hi, lo)
    return (np.where(past_half, nh, hi), np.where(past_half, nl, lo)), past_half


def unit_terms(phase: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of 2*pi*x/2^128 for phases x given as (high, low) uint64 limbs.

    The array form of `unit`, with the same fold: past 1/2 the phase is
    negated and past 1/4 reflected to 1/2 - x, both with 128-bit borrows,
    and the quarter points come out exact.  A phase and its negative fold
    to the same bits, so their cosines agree and their sines are negatives,
    bit for bit.  The folded phase reaches the angle through two binary64
    limb conversions, so a value can differ from `unit`'s in the last bit.
    """
    (hi, lo), past_half = fold_half(phase)
    past_quarter = (hi > _QUARTER64) | ((hi == _QUARTER64) & (lo != 0))
    nh, nl = _negate(hi, lo)
    hi, lo = np.where(past_quarter, nh + _HALF64, hi), np.where(past_quarter, nl, lo)
    # the folded phase lies in [0, 2^126], an angle in [0, pi/2]
    t = (hi.astype(np.float64) + lo.astype(np.float64) * 2.0 ** -64) * (math.tau * 2.0 ** -64)
    c, s = np.cos(t), np.sin(t)
    quarter = (hi == _QUARTER64) & (lo == 0)
    c[quarter], s[quarter] = 0.0, 1.0
    return np.where(past_quarter, -c, c), np.where(past_half, -s, s)


def fsum_carry(terms: List[float], values: np.ndarray) -> List[float]:
    """A short float list with the exact sum of `terms` (which it consumes),
    followed by `values`.

    Feeding blocks through this keeps math.fsum of the result equal to
    math.fsum over every value fed so far: the carried floats are a
    non-overlapping expansion of the exact running total, each the
    correctly rounded remainder of the ones before it.
    """
    carried = []
    rest = math.fsum(terms)
    while rest:
        carried.append(rest)
        terms.append(-rest)
        rest = math.fsum(terms)
    return carried + values.tolist()


def _unit_sum(phases: Iterable[Tuple[np.ndarray, np.ndarray]]) -> complex:
    """math.fsum of the kernel's cos and sin over blocks of limb phases."""
    re: List[float] = []
    im: List[float] = []
    for phase in phases:
        c, s = unit_terms(phase)
        re, im = fsum_carry(re, c), fsum_carry(im, s)
    return complex(math.fsum(re), math.fsum(im))


def _blocks(lo: int, hi: int) -> Iterable[np.ndarray]:
    """lo..hi as int64 arrays of at most BLOCK_TERMS values."""
    for start in range(lo, hi + 1, BLOCK_TERMS):
        yield np.arange(start, min(start + BLOCK_TERMS, hi + 1), dtype=np.int64)


def _check_range(k: int, X: int) -> None:
    """The one working range of eval_g (k = 3) and eval_f.  The stated range
    is X^k < 2^64 (phase error < 2^-64); X^k < 2^80 is admitted (phase error
    still < 2^-48).  The term cap also keeps x below 2^32, so a limb product
    a*x plus its carry stays below 2^64."""
    if X < 1:
        raise ValueError("X must be positive")
    if X > 10 ** 8:  # about 0.4 us (eval_f) to 0.55 us (eval_g) a term: 40-55 s
        raise ValueError(f"X = {X:,} terms exceeds the 10^8 term cap")
    if X ** k >= _N_CAP:
        raise ValueError("x^k overflows the multiplier cap (X^k >= 2^80)")


def eval_g(alpha: FixedPhase, beta: FixedPhase, X: int,
           span: Tuple[int, int] | None = None) -> complex:
    """Sum of e(alpha*x^3 + beta*x) for x in span (default [1, X]).

    X lies in the working range that eval_f has at k = 3: at most 10^8
    terms and X^3 < 2^80.  Phases are exact mod 2^128, each term comes from
    the unit-circle kernel, and the real and imaginary parts are math.fsum
    sums: correctly rounded and independent of term order.
    """
    _check_range(3, X)
    lo, hi = (1, X) if span is None else span
    if not (1 <= lo and hi <= X):
        raise ValueError("span must lie inside [1, X]")
    return _unit_sum(add_limbs(phase_limbs(alpha.frac, x, 3), phase_limbs(beta.frac, x))
                     for x in _blocks(lo, hi))


def eval_f(alpha: FixedPhase, k: int, X: int) -> complex:
    """Sum of e(alpha*x^k) for 1 <= x <= X, by the same kernel, fsum
    contract and working range as eval_g: at most 10^8 terms and
    X^k < 2^80, refused beyond that before any term is summed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_range(k, X)
    return _unit_sum(phase_limbs(alpha.frac, x, k) for x in _blocks(1, X))
