"""Upper-bound calculus for the degree-k Weyl sum f_k(alpha; X), k >= 6.

Three bounds are compared, each with implicit constant set to 1 and an
epsilon supplied by the caller (default 0.05):

  new:       X^(1+eps) * Theta^(2^-k) + X^(1+eps) * (Theta/X)^((2/3)2^-k),
             Theta = 1/q + 1/X^3 + q/X^k
  hb15:      X^(1+eps) * (X*Theta)^((4/3)2^-k)
  classical: X^(1+eps) * (1/q + 1/X + q/X^k)^(2^(1-k))

with (a, q) the canonical Dirichlet approximation of alpha at denominator
cap X^(k/2).  In the regime q + X^k|q*alpha - a| of size X^theta the three
exponents of X reduce, with mu = min(theta, 3, k - theta), to

  exp_new       = 1 - 2^-k * min(mu, (2/3)(mu + 1))
  exp_hb        = 1 + (4/3) * 2^-k * (1 - mu)
  exp_classical = 1 - 2^(1-k) * min(theta, 1, k - theta)

(the mu collapse: q ~ X^theta makes Theta ~ X^-min(theta,3,k-theta), and
the second new term carries the extra (2/3)-power of X).  The module also
counts, for kappa = k! 2^(k-3) / 6, how the multiples h*alpha for
h <= kappa X^(k-3) fall into intervals of width X^-3: the bucket counts
K(m) whose maximum the bound calculus controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .arcs import dirichlet_approx
from .phase import FixedPhase, _blocks, eval_f, mul_limbs, split_limbs

# caps on k_counts' multiples h of alpha (about 1.5 s at k = 6, X = 21) and
# on the buckets it can return, min(H, X^3): at k = 4 almost every multiple
# fills its own bucket, and 10^6 buckets took 2.4 s at 220 MiB peak RSS
K_COUNTS_GUARD = 10 ** 7
K_COUNTS_BUCKETS = 10 ** 6


@dataclass(frozen=True)
class BoundProfile:
    """Exponents of X for the three bounds in the X^theta regime.

    exp_hb exceeds 1 for theta < 1 (the formula is what it is there; the
    bound only beats trivial once mu >= 1)."""

    theta: float
    exp_classical: float
    exp_hb: float
    exp_thm13: float


@dataclass(frozen=True)
class BoundComparison:
    thm13: float
    hb15: float
    classical: float
    actual: float
    a: int
    q: int


@dataclass(frozen=True)
class HCount:
    """Bucket index m (interval [m/X^3, (m+1)/X^3)) and its cardinality."""

    m: int
    K: int


def theta_quantity(q: int, X: int, k: int) -> float:
    """Theta = 1/q + 1/X^3 + q/X^k, the variant that depends on q alone."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if X < 1:
        raise ValueError("X must be positive")
    if k < 6:
        raise ValueError("k must be >= 6 (the bounds are stated for k >= 6)")
    return 1.0 / q + 1.0 / X ** 3 + q / float(X) ** k


def bound_values(alpha: FixedPhase, X: int, k: int, eps: float = 0.05) -> BoundComparison:
    """Evaluate the three bounds and the true |f_k(alpha; X)|.

    The rational point is the Dirichlet convergent at cap X^(k/2); when
    several convergents satisfy |alpha - a/q| <= 1/q^2 the bounds differ
    between them, and this canonical largest-q choice is the one reported.
    """
    if k < 6:
        raise ValueError("k must be >= 6")
    if X < 1:
        raise ValueError("X must be positive")
    approx = dirichlet_approx(alpha, math.isqrt(X ** k))
    theta = theta_quantity(approx.q, X, k)
    amp = float(X) ** (1.0 + eps)
    tiny = 2.0 ** -k
    thm13 = amp * theta ** tiny + amp * (theta / X) ** ((2.0 / 3.0) * tiny)
    hb15 = amp * (X * theta) ** ((4.0 / 3.0) * tiny)
    classical_base = 1.0 / approx.q + 1.0 / X + approx.q / float(X) ** k
    classical = amp * classical_base ** (2.0 * tiny)
    actual = abs(eval_f(alpha, k, X))
    return BoundComparison(thm13, hb15, classical, actual, approx.a, approx.q)


def exponent_curves(k: int, theta_grid: Sequence[float]) -> List[BoundProfile]:
    """Exponent-of-X profiles over a grid of theta in [0, k/2]."""
    if k < 6:
        raise ValueError("k must be >= 6")
    out = []
    half = k / 2.0
    tiny = 2.0 ** -k
    for theta in theta_grid:
        t = float(theta)
        if t < 0.0 or t > half:
            raise ValueError("theta must lie in [0, k/2]")
        mu = min(t, 3.0, k - t)
        exp_thm13 = 1.0 - tiny * min(mu, (2.0 / 3.0) * (mu + 1.0))
        exp_hb = 1.0 + (4.0 / 3.0) * tiny * (1.0 - mu)
        exp_classical = 1.0 - 2.0 * tiny * min(t, 1.0, k - t)
        out.append(BoundProfile(t, exp_classical, exp_hb, exp_thm13))
    return out


def kappa(k: int) -> int:
    """k! * 2^(k-3) / 6, exactly."""
    if k < 4:
        raise ValueError("k must be >= 4")
    return math.factorial(k) * (1 << (k - 3)) // 6


def k_counts(alpha: FixedPhase, k: int, X: int) -> List[HCount]:
    """Bucket frac(h*alpha) for h = 1..kappa*X^(k-3) into intervals of
    width 1/X^3; returns the occupied buckets (m, K(m)) sorted by m.

    Bucketing is exact: with c = frac(h*alpha) as a 128-bit integer, the
    index is floor(c * X^3 / 2^128), the carry out of three multiply-by-X
    limb steps.  Multiples run through the limb kernel in blocks of at most
    BLOCK_TERMS and are counted block by block.  Refuses more than
    K_COUNTS_GUARD multiples, or more than K_COUNTS_BUCKETS possible buckets.
    """
    if k < 4:
        raise ValueError("k must be >= 4")
    if X < 1:
        raise ValueError("X must be positive")
    H = kappa(k) * X ** (k - 3)
    if H > K_COUNTS_GUARD:
        raise ValueError(f"k_counts(k={k}, X={X}) steps through {H:,} multiples of "
                         f"alpha, over the {K_COUNTS_GUARD:,} cap (1.5 s at k = 6)")
    buckets = min(H, X ** 3)
    if buckets > K_COUNTS_BUCKETS:
        raise ValueError(f"k_counts(k={k}, X={X}) can fill {buckets:,} buckets, over "
                         f"the {K_COUNTS_BUCKETS:,} cap (2.4 s and 220 MiB at k = 4)")
    # H <= 10^7 gives X < 2^32 and h < 2^32, as the limb multiply needs
    mag = np.uint64(X)
    indices, counts = [], []
    for h in _blocks(H):
        limbs, _ = mul_limbs(split_limbs(alpha.frac), h.astype(np.uint64))
        m = 0
        for _ in range(3):
            limbs, carry = mul_limbs(limbs, mag)
            m = m * mag + carry
        index, count = np.unique(m, return_counts=True)
        indices.append(index)
        counts.append(count)
    index, where = np.unique(np.concatenate(indices), return_inverse=True)
    K = np.zeros(len(index), dtype=np.int64)
    np.add.at(K, where, np.concatenate(counts))
    return list(map(HCount, index.tolist(), K.tolist()))


def k_bound_check(alpha: FixedPhase, k: int, X: int) -> float:
    """max_m K(m) / (Theta * X^(k-3)): the empirical constant in the bucket
    bound, reported for calibration (no rigor claimed)."""
    counts = k_counts(alpha, k, X)
    approx = dirichlet_approx(alpha, math.isqrt(X ** k))
    theta = theta_quantity(approx.q, X, k)
    peak = max(c.K for c in counts)
    return peak / (theta * float(X) ** (k - 3))
