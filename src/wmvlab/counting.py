"""Exact solution counting for cubic Weyl sums.

Even moments of g(alpha, beta; X) over the torus are integers: by
orthogonality the s-th moment counts s-tuples whose linear sums and cube
sums balance.  One slab-streamed counter gives these counts and those of
the three-equation system keyed by (sum, square-sum, cube-sum), at up to six
variables per side.  The module also evaluates the two-sided fourth-moment
identity together with its reciprocal-distance majorant.

Tuples with different linear sums n never balance, so the counter streams
over n: it enumerates the sorted h-multisets of a batch of consecutive
slabs as packed int64 keys, the last coordinate placed as an offset into
its prefix's key, weights each by its h!/prod(mult!) orderings, and sums
weight_a * weight_b over shared keys.  Memory is O(largest batch), not
O(unique keys).  At h = 1 slab n is the one value x = n, a key of weight 1,
so the count is X and nothing is enumerated.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Tuple

import numpy as np

from .phase import (BLOCK_TERMS, FixedPhase, add_limbs, fold_half, fsum_carry,
                    phase_limbs, unit_terms)

MULTISET_GUARD = 10 ** 8  # cap on sorted h-multisets per count (7 s at h = 3, 11-13 s at h = 6)
IDENTITY_GUARD = 10 ** 8  # cap on u_identity_rhs terms, (2X^3 + X)/3: X <= 531, 3-4 s there
RECIPROCAL_GUARD = 200_010_000  # cap on reciprocal_sum_bound terms, X(2X + 1) (X <= 10^4)
_BATCH = 1 << 14  # multisets per numpy call; 2^16 took ~480 page faults a call at X = 10^5
_INT64_MAX = int(np.iinfo(np.int64).max)
# h!/d at index d <= h!, for h <= 6: multiset weights by a gather, not a division
_ORDERINGS = [math.factorial(h) // np.maximum(np.arange(math.factorial(h) + 1), 1)
              for h in range(7)]


# -- slab-streamed counting ---------------------------------------------------

def _multisets(X: int, h: int, n_lo: int, n_hi: int, tail: np.ndarray, slab_span: int):
    """The sorted h-multisets x1 <= ... <= xh over [1, X], h <= 6, whose
    linear sum lies in [n_lo, n_hi], a range that must meet [h, hX], as packed
    int64 keys (linear sum - n_lo) * slab_span + sum tail[x] + weight, the
    weight h!/prod(mult!) being the number of ordered h-tuples each stands for."""
    # the (h-1)-prefixes, one coordinate placed per pass from the empty one;
    # every partial kept extends to at least one full multiset, so nothing is
    # enumerated twice or in vain
    lin, key, run = np.zeros((3, 1), dtype=np.int64)  # key: sum of tail[x] so far
    last = denom = np.ones(1, dtype=np.int64)  # run: multiplicity of `last`; denom: prod(mult!)
    for left in range(h - 1, -1, -1):  # coordinates still to place after this one
        lo = np.maximum(last, n_lo - left * X - lin)
        span = np.minimum(X, (n_hi - lin) // (left + 1)) - lo + 1
        starts = np.cumsum(span) - span
        if left == 0:
            break
        parent = np.repeat(np.arange(len(lo)), span)
        v = np.arange(len(parent), dtype=np.int64) - (starts - lo)[parent]  # lo..hi per parent
        run = np.where(v == last[parent], run[parent] + 1, 1)
        denom = denom[parent] * run
        lin = lin[parent] + v
        key = key[parent] + tail[v]
        last = v
    # the last coordinate v = lo + j adds j * slab_span + tail[v] to its
    # prefix's key at v = lo, every term non-negative and at most the full
    # key; only v = lo can repeat `last`, and then weighs h!/(denom (run + 1))
    weight = _ORDERINGS[h][denom]
    first = np.flatnonzero(lo == last)
    fix = weight[first] - _ORDERINGS[h][denom[first] * (run[first] + 1)]
    key += (lin + lo - n_lo) * slab_span + weight
    del lin, run, last, denom, weight  # freed before the batch's largest arrays
    parent = np.repeat(np.arange(len(lo)), span)
    v = np.arange(len(parent), dtype=np.int64) - (starts - lo)[parent]
    packed = tail[v]
    packed += key[parent]
    v -= lo[parent]
    v *= slab_span
    packed += v
    packed[starts[first]] -= fix
    return packed


def _shared_key_count(X: int, h: int, square: bool) -> int:
    """Sum over keys (linear sum, square-sum if `square`, cube-sum) of
    W(key)^2, where W(key) counts the ordered h-tuples over [1, X] with that
    key: the number of solutions with h variables on each side.

    Batches of consecutive slabs hold about 2^14 multisets, fewer where the
    packed int64 sort key (slab offset, square-sum, cube-sum, weight) would
    overflow.  `_multisets` places each last coordinate v as an offset into
    its prefix's key, reading v's square and cube terms from tail, one table
    per count.  Refuses more than MULTISET_GUARD multisets, or one slab's
    keys past the int64 width, saying why; at h = 1 too, which then
    returns X without enumerating (one key of weight 1 per slab).
    """
    if X < 1:
        raise ValueError("X must be positive")
    multisets = math.comb(X + h - 1, h)
    if multisets > MULTISET_GUARD:
        raise ValueError(f"{multisets:,} sorted {h}-multisets over [1, {X}] "
                         f"exceed the 10^8 guard")
    wbits = math.factorial(h).bit_length()
    sq_span, cube_span = h * X * X + 1, h * X ** 3 + 1
    slab_span = ((sq_span if square else 1) * cube_span) << wbits
    if slab_span > _INT64_MAX:
        raise ValueError(f"keys of {h}-multisets over [1, {X}] exceed the packed int64 width")
    if h == 1:
        # one value x = n per slab, its own key of weight 1, so sum W^2 = X
        return X
    width = min(max(1, _BATCH * (h * (X - 1) + 1) // multisets), _INT64_MAX // slab_span)
    v = np.arange(X + 1, dtype=np.int64)
    tail = ((v * v * cube_span if square else 0) + v * v * v) << wbits  # value v's key terms

    def weights(n_lo: int, n_hi: int) -> np.ndarray:
        # ordered tuples per key of slabs n_lo..n_hi
        packed = _multisets(X, h, n_lo, n_hi, tail, slab_span)
        packed.sort()
        key = packed >> wbits
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        return np.add.reduceat(packed & ((1 << wbits) - 1), starts)

    lo, hi = h, h * X
    ranges = [(lo, hi, 1)]
    if square:
        # x -> X+1-x maps slab n onto slab lo+hi-n, and its keys one to one:
        # the new cube-sum depends on n and the square-sum only.  Without
        # the square-sum in the key that fails, so (sum, cube) counts run in full.
        top = lo + hi
        ranges = [(lo, (top - 1) // 2, 2)] + ([(top // 2, top // 2, 1)] if top % 2 == 0 else [])
    total = 0
    for r_lo, r_hi, factor in ranges:
        for n_lo in range(r_lo, r_hi + 1, width):
            weight = weights(n_lo, min(n_lo + width - 1, r_hi))
            total += factor * int(np.dot(weight, weight))
    return total


def moment_count(X: int, s: int, workers: int = 1) -> int:
    """Exact s-th even moment of |g| over the torus: number of s-tuples with
    balanced linear and cube sums.  s in {2, 4, ..., 12}; MULTISET_GUARD
    caps X at 842, 219, 101 and 62 for s = 6, 8, 10 and 12."""
    # `workers` is unused; perfbench/selftest.py still passes it positionally
    if s not in (2, 4, 6, 8, 10, 12):
        raise ValueError("s must be 2, 4, 6, 8, 10 or 12")
    return _shared_key_count(X, s // 2, square=False)


def ninth_moment_bracket(X: int) -> Tuple[float, float]:
    """(lower, upper) bounds on I9(X) from exact even moments.  s -> log I_s
    is convex (Hoelder), so I9 <= sqrt(I8 I10), and I8 <= I9^(2/3) I6^(1/3),
    I10 <= I9^(2/3) I12^(1/3) give I9 >= I8^(3/2)/I6^(1/2), I10^(3/2)/I12^(1/2).
    MULTISET_GUARD on I12 caps X at 62."""
    i6, i8, i10, i12 = (moment_count(X, s) for s in (6, 8, 10, 12))
    return max(i8 ** 1.5 / i6 ** 0.5, i10 ** 1.5 / i12 ** 0.5), math.sqrt(i8 * i10)


def vinogradov_count(X: int, s: int) -> int:
    """Exact count of s-variable solutions of the three-equation system
    sum x^j = sum y^j (j = 1, 2, 3), with ceil(s/2) variables on the left
    and floor(s/2) on the right.  s in {2,..,6}.

    s counts the variables on both sides, so s = 6 is three per side:
    J_{3,3}(X) = 6X^3 - 9X^2 + 4X, the permutation pairs.  For h variables
    per side up to six, the critical case J_{6,3}, use `vinogradov_j`.

    For odd s the count is zero without enumeration: power sums up to
    degree 3 pin down multisets of size <= 3, and padding the short side
    with 0, which lies outside [1, X], would have to match the long one."""
    if s not in (2, 3, 4, 5, 6):
        raise ValueError("s must be in {2, 3, 4, 5, 6}")
    if X < 1:
        raise ValueError("X must be positive")
    return 0 if s % 2 else _shared_key_count(X, s // 2, square=True)


def vinogradov_j(X: int, h: int) -> int:
    """J_{h,3}(X): the number of 2h-tuples over [1,X], h variables per side,
    with sum x^j = sum y^j for j = 1, 2, 3.  h in {1,..,6}; h = 6 is the
    critical case s = k(k+1)/2 of Vinogradov's mean value theorem for cubes.
    """
    if h not in range(1, 7):
        raise ValueError("h must be in {1, ..., 6}")
    return _shared_key_count(X, h, square=True)


def brute_force_moment(X: int, s: int) -> int:
    """Independent oracle: literal enumeration of all X^s tuples, read as
    (left half, right half) pairs.  The X^(s/2) ordered half-tuples' linear
    and cube sums are tabulated, and each left half counts the right halves
    whose two sums equal its own.  Shares nothing with the counter."""
    if s % 2 or s > 8:
        raise ValueError("s must be even and at most 8")
    if not 1 <= X <= 12:
        raise ValueError("X must be in [1, 12]")
    if X ** s > 10 ** 7:  # X^(s/2) half-tuples: 2,401 at X = 7, s = 8, about 4 ms
        raise ValueError(f"X^s = {X ** s:,} tuples exceeds the 10^7 oracle cap")
    halves = [(sum(t), sum(x ** 3 for x in t))
              for t in itertools.product(range(1, X + 1), repeat=s // 2)]
    right = Counter(halves)
    return sum(right[sums] for sums in halves)


# -- fourth-moment identity --------------------------------------------------

def _runs(counts: np.ndarray):
    """Cut consecutive groups of counts[i] >= 1 terms into runs of whole
    groups holding at most BLOCK_TERMS terms (a larger group runs alone).
    Yields, per term of each run, its group and its offset in the group."""
    ends = np.cumsum(counts)
    g0 = 0
    while g0 < len(counts):
        base = int(ends[g0 - 1]) if g0 else 0
        g1 = max(g0 + 1, int(np.searchsorted(ends, base + BLOCK_TERMS, side="right")))
        rep = counts[g0:g1]
        group = np.repeat(np.arange(g0, g1), rep)
        yield group, np.arange(len(group)) - np.repeat(np.cumsum(rep) - rep, rep)
        g0 = g1


def beta_fourth_moment(alpha: FixedPhase, X: int) -> float:
    """Integral over beta of |g(alpha, beta; X)|^4, done exactly in beta.

    Orthogonality in beta leaves the sum of e((x1^3+x2^3-x3^3-x4^3) alpha)
    over quadruples with x1+x2 = x3+x4; grouping by the shared pair sum n
    turns it into sum_n |c_n|^2 with c_n the cube-phase pair sum, which is
    exactly real and O(X^2) work.  Each c_n and the outer sum are math.fsum
    sums of unit-circle kernel terms.
    """
    if not 1 <= X <= 3000:
        raise ValueError("X must be in [1, 3000]")
    cube_hi, cube_lo = phase_limbs(alpha.frac, np.arange(X + 1, dtype=np.int64), 3)
    n = np.arange(2, 2 * X + 1)
    first = np.maximum(1, n - X)
    squares = []
    for group, offset in _runs(np.minimum(X, n - 1) - first + 1):
        x1 = first[group] + offset
        x2 = n[group] - x1
        c, s = unit_terms(add_limbs((cube_hi[x1], cube_lo[x1]), (cube_hi[x2], cube_lo[x2])))
        c, s = c.tolist(), s.tolist()
        cuts = np.flatnonzero(offset == 0).tolist() + [len(c)]
        for a, b in zip(cuts, cuts[1:]):
            cre, cim = math.fsum(c[a:b]), math.fsum(s[a:b])
            squares.append(cre * cre + cim * cim)
    return math.fsum(squares)


def u_identity_rhs(alpha: FixedPhase, X: int) -> float:
    """The same fourth moment after the substitution u1 = x2-x3, u2 = x1-x3,
    u3 = x1+x2: a sum of e(-3 u1 u2 u3 alpha) over integer triples in
    (-X, 2X]^3 subject to u3+u2-u1, u3+u1-u2, u3-u1-u2, u3+u1+u2 all being
    even and in [1, 2X]: the pairs with |u1| + |u2| <= X - 1, each with u3 =
    2 + |u1| + |u2|, ..., 2X - |u1| - |u2| in steps of 2, (2X^3 + X)/3 terms.
    Sign changes of u1, u2 and their swap permute the four forms and keep
    each cosine bit for bit (a negated multiplier gives the exactly negated
    phase, which the kernel folds to the same cosine), so one pair 0 <= u1 <=
    u2 per orbit is enumerated and weighted by the orbit size: 1 for (0, 0),
    4 for (0, u2) and (u, u), 8 otherwise.  Scaling by 4 or 8 is exact, so the
    math.fsum total has the bits of the unfolded sum.  The four constraints
    are asserted array-wise on every enumerated triple, and the weighted
    count against (2X^3 + X)/3.  Refuses more than IDENTITY_GUARD terms.
    """
    if not 1 <= X <= 3000:
        raise ValueError("X must be in [1, 3000]")
    terms = (2 * X ** 3 + X) // 3
    if terms > IDENTITY_GUARD:
        raise ValueError(f"u_identity_rhs(X={X}) sums {terms:,} terms, over the "
                         f"{IDENTITY_GUARD:,} cap (X <= 531)")
    two_x = 2 * X
    u = np.arange(X, dtype=np.int64)
    u1, u2 = np.repeat(u, X), np.tile(u, X)
    keep = (u1 <= u2) & (u1 + u2 <= X - 1)
    u1, u2 = u1[keep], u2[keep]
    a = u1 + u2
    w = (1 + (u1 != u2)) << (2 - (u1 == 0) - (u2 == 0))  # x2 per nonzero u, x2 if u1 != u2
    assert int(np.dot(w, X - a)) == terms
    total = []
    for group, offset in _runs(X - a):
        v1, v2 = u1[group], u2[group]
        v3 = 2 + a[group] + 2 * offset
        for q in (v3 + v2 - v1, v3 + v1 - v2, v3 - v1 - v2, v3 + v1 + v2):
            assert np.all(q % 2 == 0) and np.all((1 <= q) & (q <= two_x))
        # |3 u1 u2 u3| <= 1.5 X (X-1)^2 < 2^32 for X <= 531, as phase_limbs needs
        c, _ = unit_terms(phase_limbs(alpha.frac, -3 * v1 * v2 * v3))
        total = fsum_carry(total, w[group] * c)
    return math.fsum(total)


def reciprocal_sum_bound(alpha: FixedPhase, X: int) -> float:
    """Majorant sum over 1 <= u1, u2 <= 2X of min(X, 1/||6 alpha u1 u2||),
    with || . || the distance to the nearest integer taken on the exact
    fixed-point value of alpha.

    Each phase 6 u1 u2 alpha mod 2^128 comes from the limb kernel and is
    folded to its distance by `fold_half`.  The pairs u1 < u2 stand for
    their mirror images with weight 2, and the terms are summed with
    math.fsum.  Refuses more than RECIPROCAL_GUARD terms."""
    if X < 1:
        raise ValueError("X must be positive")
    terms = X * (2 * X + 1)
    if terms > RECIPROCAL_GUARD:
        raise ValueError(f"reciprocal_sum_bound(X={X}) sums {terms:,} terms, over the "
                         f"{RECIPROCAL_GUARD:,} cap (X <= 10^4)")
    xf = float(X)
    u = np.arange(1, 2 * X + 1, dtype=np.int64)
    total = []
    for group, offset in _runs(2 * X + 1 - u):  # row u1 holds u2 = u1..2X
        u1 = u[group]
        # 6 u1 u2 <= 24 X^2 < 2^32 for X <= 10^4, as phase_limbs needs
        (hi, lo), _ = fold_half(phase_limbs(alpha.frac, 6 * u1 * (u1 + offset)))
        dist = hi.astype(np.float64) * 2.0 ** -64 + lo.astype(np.float64) * 2.0 ** -128
        with np.errstate(divide="ignore"):  # distance 0: min(X, inf) = X
            term = np.minimum(xf, 1.0 / dist)
        total = fsum_carry(total, np.where(offset == 0, term, 2.0 * term))
    return math.fsum(total)
