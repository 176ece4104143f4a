"""Arc dissection: Dirichlet approximation, classification, the measure of
the major union and its Fourier coefficients.

The exhaustive membership oracles below scan every denominator q directly
(not just convergents), so they independently confirm the convergent-scan
sufficiency argument in the module docstring.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wmvlab.arcs import (
    _ramanujan,
    classify,
    dirichlet_approx,
    major_kernel,
    major_measure,
)
from wmvlab.phase import SCALE, FixedPhase

SQRT2_MINUS_1 = FixedPhase.from_real(
    Fraction(math.isqrt(2 * 10 ** 72), 10 ** 36) - 1)


def exhaustive_major(frac, Q_num, Q_den, X):
    """Smallest q <= Q with min_a |q*alpha - a| <= Q/X^3, scanning all q."""
    x3 = X ** 3
    qmax = Q_num // Q_den
    for q in range(1, qmax + 1):
        f = (q * frac) % SCALE
        d = min(f, SCALE - f)
        if d * Q_den * x3 <= Q_num * SCALE:
            return q
    return None


def test_dirichlet_examples():
    r = dirichlet_approx(FixedPhase.from_real("0.14159265"), 100)
    assert (r.a, r.q) == (1, 7)
    assert abs(0.14159265 - 1 / 7) == pytest.approx(r.err / r.q, rel=1e-6)
    assert r.err / r.q <= 1 / 700
    r0 = dirichlet_approx(FixedPhase(0), 50)
    assert (r0.a, r0.q, r0.err) == (0, 1, 0.0)
    rh = dirichlet_approx(FixedPhase.from_rational(1, 2), 10)
    assert (rh.a, rh.q, rh.err) == (1, 2, 0.0)


def test_dirichlet_guarantee_random_sample():
    """|alpha - a/q| <= 1/(qN), i.e. err*N <= 1, on 10^5 random (alpha, N);
    checked in exact integer arithmetic."""
    rng = random.Random(61)
    for _ in range(10 ** 5):
        frac = rng.getrandbits(128)
        N = rng.randrange(1, 1000)
        r = dirichlet_approx(FixedPhase(frac), N)
        assert r.q <= N
        d = abs(r.q * frac - (r.a << 128))
        assert d * N <= SCALE


def test_classify_examples():
    lab = classify(FixedPhase.from_rational(1, 2), 10, 10)
    assert lab.major and (lab.approx.a, lab.approx.q) == (1, 2)
    assert str(lab) == "Major(a=1, q=2, err=0)"
    assert not classify(SQRT2_MINUS_1, 10, 10).major
    assert str(classify(SQRT2_MINUS_1, 10, 10)) == "Minor"
    lab0 = classify(FixedPhase(0), 5, 10)
    assert lab0.major and (lab0.approx.a, lab0.approx.q) == (0, 1)


def test_classify_q_range_guard():
    with pytest.raises(ValueError):
        classify(FixedPhase(0), Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        classify(FixedPhase(0), 32, 10)  # above X^1.5
    assert classify(FixedPhase(0), Fraction(10 ** 3), 100).major  # boundary ok


def test_classify_matches_exhaustive_scan():
    rng = random.Random(67)
    for X, Q in ((5, 3), (12, 12), (27, 16)):
        for _ in range(300):
            frac = rng.getrandbits(128)
            lab = classify(FixedPhase(frac), Q, X)
            q = exhaustive_major(frac, Q, 1, X)
            if q is None:
                assert not lab.major
            else:
                assert lab.major and lab.approx.q == q  # smallest witness


def test_classify_rational_centers_major():
    # a rational a/q with q <= Q sits in its own arc; the stored phase may
    # floor a/q by up to (q-1) ulps, so err is bounded by q*2^-128, not 0
    rng = random.Random(71)
    for _ in range(200):
        q = rng.randrange(1, 40)
        a = rng.randrange(q)
        lab = classify(FixedPhase.from_rational(a, q), 40, 12)
        assert lab.major
        assert lab.approx.q <= q
        assert lab.approx.err <= q / SCALE


def test_classify_monotone_in_q():
    rng = random.Random(73)
    X = 6  # X^1.5 = 14.7
    for _ in range(400):
        a = FixedPhase(rng.getrandbits(128))
        labels = [classify(a, Q, X).major for Q in (2, 4, 8, 14)]
        for small, big in zip(labels, labels[1:]):
            assert big or not small  # Major at Q implies Major at Q' >= Q


def test_major_measure_examples():
    assert major_measure(1, 10) == pytest.approx(0.002, rel=1e-15)
    assert major_measure(1, 100) == pytest.approx(2e-6, rel=1e-15)
    assert major_measure(2, 10) == pytest.approx(0.006, rel=1e-15)


def test_major_measure_guards():
    with pytest.raises(ValueError):
        major_measure(Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        major_measure(23, 10)  # 2Q^2 > X^3


def arc_intervals(Q, X):
    """All arcs at cutoff Q as exact closed intervals inside [0, 1]."""
    width = Fraction(Q) / X ** 3
    out = []
    for q in range(1, int(Q) + 1):
        for a in range(q + 1):
            if math.gcd(a, q) != 1:
                continue
            lo = max(Fraction(0), Fraction(a, q) - width / q)
            hi = min(Fraction(1), Fraction(a, q) + width / q)
            out.append((lo, hi))
    return sorted(out)


def test_major_measure_against_interval_union():
    for Q, X in ((2, 10), (3, 7), (5, 12), (8, 30)):
        ivs = arc_intervals(Q, X)
        total = Fraction(0)
        cur_lo, cur_hi = ivs[0]
        for lo, hi in ivs[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        total += cur_hi - cur_lo
        assert abs(major_measure(Q, X) - float(total)) <= 1e-7


def test_ramanujan_sums_against_the_cosine_sum():
    for q in range(1, 31):
        literal = [sum(math.cos(2 * math.pi * a * r / q) for a in range(q)
                       if math.gcd(a, q) == 1) for r in range(q)]
        assert np.allclose(_ramanujan(q), literal, rtol=0, atol=1e-9), q

    # exactly the divisor sum over every e <= q, with mu by its definition
    def mu(n):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
        return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    for q in list(range(1, 100)) + [128, 210, 243, 256, 289, 360, 997, 1000]:
        want = [sum(mu(q // e) * e for e in range(1, q + 1) if q % e == 0 and r % e == 0)
                for r in range(q)]
        assert _ramanujan(q).tolist() == want, q


def _arc_integral(Q, X, m):
    """The integral of e(m alpha) over the major arcs, interval by interval:
    each arc's (sin(2 pi m hi) - sin(2 pi m lo))/(2 pi m), the real part (the
    arcs are mirror symmetric), with m*hi reduced mod 1 in exact fractions."""
    if m == 0:
        return float(sum(hi - lo for lo, hi in arc_intervals(Q, X)))
    return sum(math.sin(2 * math.pi * float(m * hi % 1)) - math.sin(2 * math.pi * float(m * lo % 1))
               for lo, hi in arc_intervals(Q, X)) / (2 * math.pi * m)


def test_major_kernel_at_zero_is_the_major_measure():
    for Q, X in ((1, 10), (2, 10), (3, 7), (Fraction(5, 2), 8), (8, 30), (1.1, 32)):
        assert major_kernel(Q, X, [0])[0] == major_measure(Q, X), (Q, X)


def test_major_kernel_against_arc_integrals():
    # integer and fractional cutoffs, m near Malpha/2 of X = 32's doubled
    # s = 12 grid, and Q = 1.1, whose Fraction has denominator 2^51: its
    # reduction m*Q mod q*X^3 passes int64 and runs on Python ints
    for Q, X, ms in ((2, 6, range(-13, 40)), (6, 6, range(0, 700, 7)),
                     (Fraction(5, 2), 8, range(0, 3000, 61)),
                     (32, 32, range(2 ** 18 - 30, 2 ** 18 + 1, 6)),
                     (1.1, 32, [1, 6, 12345, 2 ** 18])):
        ms = list(ms)
        got = major_kernel(Q, X, ms)
        want = [_arc_integral(Q, X, m) for m in ms]
        scale = major_measure(Q, X)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * scale), (Q, X)


def test_major_kernel_at_x1_covers_the_circle():
    assert list(major_kernel(1, 1, [0, 1, 6, -6])) == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        major_kernel(23, 10, [0])  # 2Q^2 > X^3: the arcs overlap


def test_arcs_pairwise_disjoint():
    # sorted exact intervals must not overlap (X <= 30, Q <= X regime)
    for X in (4, 9, 17, 30):
        for Q in (2, X // 2 or 1, X):
            ivs = arc_intervals(Q, X)
            for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
                assert hi1 < lo2
