"""Fixed-point phase arithmetic and the unit-circle kernel behind the Weyl sums.

Phases live on the torus [0,1) as 128-bit binary fractions, so frac(n*alpha)
is computed by exact integer multiplication modulo 2^128 instead of lossy
binary64 reduction (x^3*alpha for x near 2^21 would already lose ~63 bits
in a double).  The sums run through one numpy kernel: `phase_limbs` forms
each term's phase exactly as two uint64 limbs from 32-bit limb products with
carries, and `unit_terms` folds it into the first quadrant with one 128-bit
borrow and exact quarter points before taking cos and sin.  A phase and its
negative fold to the same bits, which makes complex conjugation an exact
bit-level symmetry of eval_g/eval_f.  Terms are summed exactly in integer
chunks (`_exact_sums`), so every sum is correctly rounded, as by math.fsum,
and independent of term order; blocks of BLOCK_TERMS bound the memory.
eval_g and eval_f share one working range, eval_g counting as k = 3:
1 <= X <= 10^8 terms, which keeps x below 2^32 as the limb multiply needs,
and X^k < 2^80.  The scalar `unit` is the reference the kernel is tested
against.  The same limb arithmetic serves `bounds.k_counts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

import numpy as np

SCALE_BITS = 128
SCALE = 1 << SCALE_BITS
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
_LOW62 = np.uint64((1 << 62) - 1)  # the high limb of x mod 1/4
_SUM_SCALE = 1 << 1105  # the unit of exact sums, 2^-1105: 31 bits below 2^-1074

RealLike = Union[int, float, str, Fraction]


@dataclass(frozen=True)
class FixedPhase:
    """A point of [0,1) stored as frac/2^128."""

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

    m is an int64 array with 0 <= m < 2^32, a negative m refused, and k >= 1.
    Each step multiplies the four 32-bit limbs by m^e with carries (a product
    plus a carry stays below 2^64), e as large as keeps max m^e below 2^32:
    k = 6 at m < 2^16 takes three steps, k = 3 at m <= 1625 one.  m^e is
    formed once; only a last step short of e takes its own power.
    """
    if int(m.min(initial=0)) < 0:
        raise ValueError("phase_limbs takes multipliers m >= 0")
    mag = m.astype(np.uint64)
    top = int(mag.max(initial=0))
    e = 1
    while e < k and top ** (e + 1) < 1 << 32:
        e += 1
    step = mag ** e
    limbs = split_limbs(frac)
    for done in range(0, k, e):
        limbs, _carry = mul_limbs(limbs, step if k - done >= e else mag ** (k - done))
    l0, l1, l2, l3 = limbs
    return (l3 << 32) | l2, (l1 << 32) | l0


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


def unit_terms(phase: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """cos and sin of 2*pi*x/2^128, the two rows of one array, for phases x
    given as (high, low) uint64 limbs.  The array form of `unit`: quadrant
    q = floor(4x) folds r = x mod 2^126 to r for even q and to 2^126 - r for
    odd q, the bits `unit` folds to.  So quarter points are exact, and a phase
    and its negative have equal cosines and negated sines, bit for bit.  The
    angle comes from two binary64 limb conversions, so a value can differ
    from `unit`'s in the last bit."""
    hi, lo = phase
    rh, odd = hi & _LOW62, (hi & _QUARTER64) != 0
    fh, fl = np.where(odd, _QUARTER64 - rh - (lo != 0), rh), np.where(odd, -lo, lo)
    # the folded phase lies in [0, 2^126], an angle in [0, pi/2]
    t = (fh.astype(np.float64) + fl.astype(np.float64) * 2.0 ** -64) * (math.tau * 2.0 ** -64)
    cs = np.empty((2,) + t.shape)
    np.cos(t, out=cs[0])
    np.sin(t, out=cs[1])
    cs[:, fh == _QUARTER64] = [[0.0], [1.0]]  # the fold 2^126 is the one with this high limb
    bits = cs.view(np.uint64)  # cos < 0 for q = 1, 2 (bits 63, 62 differ), sin for q = 2, 3
    bits[0] ^= (hi ^ (hi << 1)) & _HALF64
    bits[1] ^= hi & _HALF64
    cs += 0.0  # -0.0 (cos at 1/4, sin at 1/2) becomes +0.0, as `unit` has it
    return cs


def _exact_sums(values: np.ndarray, starts=(0,), totals=0) -> np.ndarray:
    """totals (default 0) plus the exact sum of each segment of the float
    block `values` (segment i from starts[i], as np.add.reduceat cuts it), as
    Python ints in units of 2^-1105 in an object array: total / _SUM_SCALE is
    the correctly rounded sum, as by math.fsum.  With 2^e > max |value|, the
    block is scaled by 2^(31-e) and peeled into 31-bit digits f = trunc(y),
    y = (y - f) * 2^31, until nothing is left.  Each step is exact (floor
    would round y - f up to 1 for tiny negative y), and a digit sum over a
    segment of at most 2^16 terms stays below 2^47, so numpy adds it exactly.
    Exact for blocks of multiples of 2^(e-1105)."""
    e = math.frexp(float(np.abs(values).max(initial=0.0)))[1]
    y = np.ldexp(values, 31 - e)
    sums = np.zeros(len(starts), dtype=object)  # the digit sums so far, by Horner's rule
    while True:
        f = np.trunc(y)
        sums = (sums << 31) + np.add.reduceat(f, starts).astype(np.int64).astype(object)
        y -= f
        if not y.any():  # the last digit's unit, 2^(e-31), is 2^(1074+e) units of 2^-1105
            return (sums << (1074 + e)) + totals
        y *= 2.0 ** 31
        e -= 31


def _unit_sum(phases: Iterable[Tuple[np.ndarray, np.ndarray]]) -> complex:
    """The kernel's cos and sin over blocks of limb phases, summed exactly."""
    totals = np.zeros(2, dtype=object)
    for phase in phases:
        cs = unit_terms(phase)
        totals = _exact_sums(cs.ravel(), (0, cs.shape[1]), totals)
    return complex(totals[0] / _SUM_SCALE, totals[1] / _SUM_SCALE)


def _blocks(n: int) -> Iterable[np.ndarray]:
    """1..n as int64 arrays of at most BLOCK_TERMS values."""
    for start in range(1, n + 1, BLOCK_TERMS):
        yield np.arange(start, min(start + BLOCK_TERMS, n + 1), dtype=np.int64)


def _check_range(k: int, X: int) -> None:
    """The one working range of eval_g (k = 3) and eval_f.  The stated range
    is X^k < 2^64 (phase error < 2^-64); X^k < 2^80 is admitted (phase error
    still < 2^-48).  The term cap also keeps x below 2^32, so a limb product
    a*x plus its carry stays below 2^64."""
    if X < 1:
        raise ValueError("X must be positive")
    if X > 10 ** 8:  # about 0.06 us (eval_f, k = 1) to 0.16 us (eval_g) a term: 6-16 s
        raise ValueError(f"X = {X:,} terms exceeds the 10^8 term cap")
    if X ** k >= _N_CAP:
        raise ValueError("x^k overflows the multiplier cap (X^k >= 2^80)")


def eval_g(alpha: FixedPhase, beta: FixedPhase, X: int) -> complex:
    """Sum of e(alpha*x^3 + beta*x) for 1 <= x <= X.

    X lies in the working range that eval_f has at k = 3: at most 10^8
    terms and X^3 < 2^80.  Phases are exact mod 2^128, each term comes from
    the unit-circle kernel, and the real and imaginary parts are exact
    integer-chunk sums: correctly rounded and independent of term order.
    """
    _check_range(3, X)
    return _unit_sum(add_limbs(phase_limbs(alpha.frac, x, 3), phase_limbs(beta.frac, x))
                     for x in _blocks(X))


def eval_f(alpha: FixedPhase, k: int, X: int) -> complex:
    """Sum of e(alpha*x^k) for 1 <= x <= X, by the same kernel, exact sum
    and working range as eval_g: at most 10^8 terms and
    X^k < 2^80, refused beyond that before any term is summed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_range(k, X)
    return _unit_sum(phase_limbs(alpha.frac, x, k) for x in _blocks(X))
