"""Exact solution counting for cubic Weyl sums.

Even moments of g(alpha, beta; X) over the torus are integers: by
orthogonality the s-th moment counts s-tuples whose linear sums and cube
sums balance.  One slab-streamed counter gives these counts and those of
the three-equation system keyed by (sum, square-sum, cube-sum), at up to six
variables per side.  The module also evaluates the two-sided fourth-moment
identity together with its reciprocal-distance majorant.

Tuples with different linear sums n never balance, so the counter streams
over n: it enumerates the sorted h-multisets of a batch of consecutive
slabs, weights each by its h!/prod(mult!) orderings, and sums
weight_a * weight_b over shared keys.  Memory is O(largest batch), not
O(unique keys).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .phase import FixedPhase, SCALE, kahan_add, unit

_MASK = SCALE - 1

MULTISET_GUARD = 10 ** 8  # cap on sorted h-multisets per count (~10 s)
_BATCH = 1 << 16  # about this many multisets per numpy call
_INT64_MAX = int(np.iinfo(np.int64).max)


# -- slab-streamed counting ---------------------------------------------------

def _multisets(X: int, h: int, n_lo: int, n_hi: int, square: bool):
    """The sorted h-multisets x1 <= ... <= xh over [1, X] whose linear sum
    lies in [n_lo, n_hi], a range that must meet [h, hX].  Returns their
    linear, square (None unless `square`) and cube sums, and their weights
    h!/prod(mult!), the number of ordered h-tuples each one stands for."""
    # one coordinate placed per pass; every partial kept extends to at least
    # one full multiset, so nothing is enumerated twice or in vain
    v = np.arange(max(1, n_lo - (h - 1) * X), min(X, n_hi // h) + 1, dtype=np.int64)
    lin = last = v
    sq = v * v if square else None
    cube = v * v * v
    run = denom = np.ones_like(v)  # multiplicity of `last`; prod(mult!) so far
    for k in range(1, h):
        left = h - k - 1  # coordinates still to place after this one
        lo = np.maximum(last, n_lo - left * X - lin)
        hi = np.minimum(X, (n_hi - lin) // (left + 1))
        span = hi - lo + 1
        parent = np.repeat(np.arange(len(lo)), span)
        # v runs lo..hi under each parent
        v = np.arange(len(parent), dtype=np.int64) - np.repeat(np.cumsum(span) - span - lo, span)
        run = np.where(v == last[parent], run[parent] + 1, 1)
        denom = denom[parent] * run
        lin = lin[parent] + v
        if square:
            sq = sq[parent] + v * v
        cube = cube[parent] + v * v * v
        last = v
    return lin, sq, cube, math.factorial(h) // denom


def _shared_key_count(X: int, a: int, b: int, square: bool) -> int:
    """Sum over keys (linear sum, square-sum if `square`, cube-sum) of
    W_a(key) * W_b(key), where W_h(key) counts the ordered h-tuples over
    [1, X] with that key: the number of solutions with a variables on the
    left and b on the right.

    Batches of consecutive slabs hold about 2^16 multisets, fewer where the
    packed int64 sort key (slab offset, square-sum, cube-sum, weight) would
    overflow.  Refuses more than MULTISET_GUARD multisets, or one slab's
    keys past the int64 width, saying why.
    """
    if X < 1:
        raise ValueError("X must be positive")
    h = max(a, b)
    multisets = math.comb(X + h - 1, h)
    if multisets > MULTISET_GUARD:
        raise ValueError(f"{multisets:,} sorted {h}-multisets over [1, {X}] "
                         f"exceed the 10^8 guard")
    wbits = math.factorial(h).bit_length()
    sq_span, cube_span = h * X * X + 1, h * X ** 3 + 1
    slab_span = ((sq_span if square else 1) * cube_span) << wbits
    if slab_span > _INT64_MAX:
        raise ValueError(f"keys of {h}-multisets over [1, {X}] exceed the packed int64 width")
    width = max(1, _BATCH * (h * (X - 1) + 1) // multisets)
    if h > 1:
        width = min(width, _INT64_MAX // slab_span)

    def per_key(arity: int, n_lo: int, n_hi: int):
        # unique packed keys of slabs n_lo..n_hi, and ordered tuples per key
        lin, sq, cube, weight = _multisets(X, arity, n_lo, n_hi, square)
        key = lin - n_lo
        if square:
            key = key * sq_span + sq
        packed = ((key * cube_span + cube) << wbits) | weight
        packed.sort()
        key = packed >> wbits
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        return key[starts], np.add.reduceat(packed & ((1 << wbits) - 1), starts)

    lo, hi = h, min(a, b) * X
    ranges = [(lo, hi, 1)]
    if a == b and square:
        # x -> X+1-x maps slab n onto slab lo+hi-n, and its keys one to one:
        # the new cube-sum depends on n and the square-sum only.  Without
        # the square-sum in the key that fails, so (sum, cube) counts run in full.
        top = lo + hi
        ranges = [(lo, (top - 1) // 2, 2)] + ([(top // 2, top // 2, 1)] if top % 2 == 0 else [])
    total = 0
    for r_lo, r_hi, factor in ranges:
        for n_lo in range(r_lo, r_hi + 1, width):
            n_hi = min(n_lo + width - 1, r_hi)
            if h == 1:
                # one value per slab: keys already strictly increasing, no sort
                weight = _multisets(X, 1, n_lo, n_hi, False)[3]
                total += factor * int(np.dot(weight, weight))
            elif a == b:
                _, weight = per_key(a, n_lo, n_hi)
                total += factor * int(np.dot(weight, weight))
            else:
                ka, wa = per_key(a, n_lo, n_hi)
                kb, wb = per_key(b, n_lo, n_hi)
                _, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
                total += factor * int(np.dot(wa[ia], wb[ib]))
    return total


def moment_count(X: int, s: int, workers: int = 1) -> int:
    """Exact s-th even moment of |g| over the torus: number of s-tuples with
    balanced linear and cube sums.  s in {2, 4, 6}."""
    # `workers` is unused; perfbench/selftest.py still passes it positionally
    if s not in (2, 4, 6):
        raise ValueError("s must be 2, 4, or 6 (torusgrid covers other moments)")
    return _shared_key_count(X, s // 2, s // 2, square=False)


def vinogradov_count(X: int, s: int) -> int:
    """Exact count of s-variable solutions of the three-equation system
    sum x^j = sum y^j (j = 1, 2, 3), with ceil(s/2) variables on the left
    and floor(s/2) on the right.  s in {2,..,6}.

    s counts the variables on both sides, so s = 6 is three per side:
    J_{3,3}(X) = 6X^3 - 9X^2 + 4X, the permutation pairs.  For h variables
    per side up to six, the critical case J_{6,3}, use `vinogradov_j`.

    For odd s the two sides have different arities; both are enumerated and
    their keys compared, which returns the true count (zero: power sums up
    to degree 3 pin down multisets of size <= 3, and padding the short side
    with 0 leaves [1,X])."""
    if s not in (2, 3, 4, 5, 6):
        raise ValueError("s must be in {2, 3, 4, 5, 6}")
    return _shared_key_count(X, (s + 1) // 2, s // 2, square=True)


def vinogradov_j(X: int, h: int) -> int:
    """J_{h,3}(X): the number of 2h-tuples over [1,X], h variables per side,
    with sum x^j = sum y^j for j = 1, 2, 3.  h in {1,..,6}; h = 6 is the
    critical case s = k(k+1)/2 of Vinogradov's mean value theorem for cubes.
    """
    if h not in range(1, 7):
        raise ValueError("h must be in {1, ..., 6}")
    return _shared_key_count(X, h, h, square=True)


def brute_force_moment(X: int, s: int) -> int:
    """Independent oracle: literal enumeration of all X^s tuples, checking
    the linear and cubic equations directly.  Kept deliberately naive."""
    if s % 2 or s > 8:
        raise ValueError("s must be even and at most 8")
    if not 1 <= X <= 12:
        raise ValueError("X must be in [1, 12]")
    if X ** s > 10 ** 9:
        raise ValueError("X^s exceeds the 10^9 oracle guard")
    cubes = [0] + [x ** 3 for x in range(1, X + 1)]
    h = s // 2
    count = 0
    for tup in itertools.product(range(1, X + 1), repeat=s):
        if sum(tup[:h]) != sum(tup[h:]):
            continue
        if sum(cubes[x] for x in tup[:h]) != sum(cubes[x] for x in tup[h:]):
            continue
        count += 1
    return count


# -- fourth-moment identity --------------------------------------------------

def beta_fourth_moment(alpha: FixedPhase, X: int) -> float:
    """Integral over beta of |g(alpha, beta; X)|^4, done exactly in beta.

    Orthogonality in beta leaves the sum of e((x1^3+x2^3-x3^3-x4^3) alpha)
    over quadruples with x1+x2 = x3+x4; grouping by the shared pair sum n
    turns it into sum_n |c_n|^2 with c_n the cube-phase pair sum, which is
    exactly real and O(X^2) work.
    """
    if not 1 <= X <= 3000:
        raise ValueError("X must be in [1, 3000]")
    fa = alpha.frac
    cube_phase = [(x * x * x * fa) & _MASK for x in range(0, X + 1)]
    total = comp = 0.0
    for n in range(2, 2 * X + 1):
        cre = cim = 0.0
        for x1 in range(max(1, n - X), min(X, n - 1) + 1):
            c, sn = unit((cube_phase[x1] + cube_phase[n - x1]) & _MASK)
            cre += c
            cim += sn
        total, comp = kahan_add(total, comp, cre * cre + cim * cim)
    return total


def u_identity_rhs(alpha: FixedPhase, X: int) -> float:
    """The same fourth moment after the substitution u1 = x2-x3, u2 = x1-x3,
    u3 = x1+x2: a sum of e(-3 u1 u2 u3 alpha) over integer triples in
    (-X, 2X]^3 subject to u3+u2-u1, u3+u1-u2, u3-u1-u2, u3+u1+u2 all being
    even and in [1, 2X].  Those four constraints are asserted literally for
    every term; the loop bounds merely enumerate their solution set.
    """
    if not 1 <= X <= 3000:
        raise ValueError("X must be in [1, 3000]")
    fa = alpha.frac
    total = comp = 0.0
    two_x = 2 * X
    for u1 in range(1 - X, two_x + 1):
        a1 = abs(u1)
        f1 = (-3 * u1 * fa) & _MASK
        for u2 in range(1 - X, two_x + 1):
            lo = 2 + a1 + abs(u2)
            hi = two_x - a1 - abs(u2)
            if lo > hi:
                continue
            f12 = (u2 * f1) & _MASK
            step = (2 * f12) & _MASK
            cur = (lo * f12) & _MASK
            for u3 in range(lo, hi + 1, 2):
                q1 = u3 + u2 - u1
                q2 = u3 + u1 - u2
                q3 = u3 - u1 - u2
                q4 = u3 + u1 + u2
                assert q1 % 2 == 0 and 1 <= q1 <= two_x
                assert q2 % 2 == 0 and 1 <= q2 <= two_x
                assert q3 % 2 == 0 and 1 <= q3 <= two_x
                assert q4 % 2 == 0 and 1 <= q4 <= two_x
                c, _ = unit(cur)
                total, comp = kahan_add(total, comp, c)
                cur = (cur + step) & _MASK
    return total


def reciprocal_sum_bound(alpha: FixedPhase, X: int) -> float:
    """Majorant sum over 1 <= u1, u2 <= 2X of min(X, 1/||6 alpha u1 u2||),
    with || . || the distance to the nearest integer taken on the exact
    fixed-point value of alpha."""
    if not 1 <= X <= 10 ** 4:
        raise ValueError("X must be in [1, 10^4]")
    fa = alpha.frac
    xf = float(X)
    total = comp = 0.0
    two_x = 2 * X
    for u1 in range(1, two_x + 1):
        step = (6 * u1 * fa) & _MASK
        # row sum over u2 >= u1 once; (u1, u2) and (u2, u1) contribute equally
        cur = (step * u1) & _MASK
        row = rcomp = 0.0
        first = True
        for _u2 in range(u1, two_x + 1):
            d = cur if cur <= SCALE - cur else SCALE - cur
            term = xf if d == 0 else min(xf, SCALE / d)
            if first:
                diag = term
                first = False
            else:
                row, rcomp = kahan_add(row, rcomp, term)
            cur = (cur + step) & _MASK
        total, comp = kahan_add(total, comp, 2.0 * row + diag)
    return total
