"""Bound calculus: regime exponent curves, bound-vs-truth comparisons, and
the h-multiple bucket counts."""

import math
import random
from fractions import Fraction

import pytest

from wmvlab.bounds import (
    HCount,
    bound_values,
    exponent_curves,
    k_bound_check,
    k_counts,
    kappa,
    theta_quantity,
)
from wmvlab.phase import FixedPhase


def test_theta_quantity_plug_in():
    assert theta_quantity(1, 100, 6) == pytest.approx(1 + 1e-6 + 1e-12, rel=1e-15)
    assert theta_quantity(7, 100, 6) == pytest.approx(1 / 7 + 1e-6 + 7e-12, rel=1e-15)
    for X, k in ((10, 6), (50, 8)):
        assert theta_quantity(1, X, k) == pytest.approx(1 + X ** -3 + float(X) ** -k, rel=1e-15)
    rng = random.Random(89)
    for _ in range(50):
        q, X = rng.randrange(1, 1000), rng.randrange(1, 500)
        assert theta_quantity(q, X, 6) >= X ** -3


def test_theta_quantity_guards():
    with pytest.raises(ValueError):
        theta_quantity(0, 10, 6)
    with pytest.raises(ValueError):
        theta_quantity(1, 0, 6)
    with pytest.raises(ValueError):
        theta_quantity(1, 10, 5)


def test_exponent_curves_spec_points():
    (p,) = exponent_curves(6, [2.5])
    assert p.exp_thm13 == pytest.approx(1 - (7 / 3) / 64, abs=1e-12)
    assert p.exp_hb == pytest.approx(1 - 2 / 64, abs=1e-12)
    assert p.exp_classical == pytest.approx(1 - 1 / 32, abs=1e-12)
    (p1,) = exponent_curves(6, [1.0])
    assert p1.exp_classical == pytest.approx(0.96875, abs=1e-12)
    assert p1.exp_thm13 == pytest.approx(1 - 1 / 64, abs=1e-12)
    assert p1.exp_classical < p1.exp_thm13
    (p3,) = exponent_curves(6, [3.0])
    assert p3.exp_thm13 == pytest.approx(1 - (8 / 3) / 64, abs=1e-12)
    assert p3.exp_hb == pytest.approx(p3.exp_thm13, abs=1e-15)


def test_exponent_curves_regime_properties():
    # the full k = 6..12 sweep at step 0.01 is acceptance criterion 8
    k = 6
    thetas = [i / 100 for i in range(0, 301)]
    for p in exponent_curves(k, thetas):
        t = p.theta
        if 3.0 <= t <= k / 2:
            assert abs(p.exp_thm13 - p.exp_hb) <= 1e-12
        if 2.0 < t < 3.0:
            assert p.exp_thm13 < p.exp_hb and p.exp_thm13 < p.exp_classical
        if 0.0 < t < 2.0:
            assert p.exp_classical < min(p.exp_thm13, p.exp_hb)
        if 0.0 < t:
            assert p.exp_thm13 < 1.0
    # hb exceeds the trivial exponent below theta = 1; documented oddity
    (low,) = exponent_curves(6, [0.5])
    assert low.exp_hb > 1.0


def test_exponent_curves_guards():
    with pytest.raises(ValueError):
        exponent_curves(5, [1.0])
    with pytest.raises(ValueError):
        exponent_curves(6, [3.5])
    with pytest.raises(ValueError):
        exponent_curves(6, [-0.1])


def test_kappa_values():
    assert kappa(4) == 8  # 24 * 2 / 6
    assert kappa(6) == 960  # 720 * 8 / 6
    assert kappa(7) == math.factorial(7) * 16 // 6
    with pytest.raises(ValueError):
        kappa(3)


def test_k_counts_at_zero_phase():
    counts = k_counts(FixedPhase(0), 6, 4)
    assert len(counts) == 1
    assert counts[0].m == 0 and counts[0].K == 61440  # 960 * 4^3


def test_k_counts_at_half():
    # frac(h/2) alternates between 0 and 1/2: two buckets within 1 of equal
    counts = k_counts(FixedPhase.from_rational(1, 2), 6, 4)
    assert len(counts) == 2
    ms = {c.m: c.K for c in counts}
    assert set(ms) == {0, 32}  # buckets holding 0 and 1/2 at X^3 = 64
    assert abs(ms[0] - ms[32]) <= 1
    assert ms[0] + ms[32] == 61440


def test_k_counts_mass_conservation():
    rng = random.Random(97)
    for X in (2, 3, 5):
        for _ in range(5):
            a = FixedPhase(rng.getrandbits(128))
            counts = k_counts(a, 6, X)
            assert sum(c.K for c in counts) == kappa(6) * X ** 3
            assert all(c.K >= 1 for c in counts)
            ms = [c.m for c in counts]
            assert ms == sorted(ms)
            assert all(0 <= m < X ** 3 for m in ms)


def _k_counts_loop(alpha, k, X):
    """The literal scalar loop: frac(h*alpha) stepped in exact 128-bit
    integers, bucket index floor(frac * X^3 / 2^128)."""
    buckets = {}
    cur = 0
    for _ in range(kappa(k) * X ** (k - 3)):
        cur = (cur + alpha.frac) % (1 << 128)
        m = (cur * X ** 3) >> 128
        buckets[m] = buckets.get(m, 0) + 1
    return [HCount(m, buckets[m]) for m in sorted(buckets)]


def test_k_counts_match_the_scalar_loop():
    rng = random.Random(101)
    zero, half = FixedPhase(0), FixedPhase.from_rational(1, 2)
    for X in range(1, 10):
        for alpha in (FixedPhase(rng.getrandbits(128)), zero, half):
            assert k_counts(alpha, 6, X) == _k_counts_loop(alpha, 6, X), X
    # X^3 > 2^32: the bucket index carries across all three multiply-by-X steps
    for alpha in (FixedPhase(rng.getrandbits(128)), FixedPhase.from_rational(2, 3), half):
        assert k_counts(alpha, 4, 3000) == _k_counts_loop(alpha, 4, 3000)


def test_k_counts_guard():
    with pytest.raises(ValueError):
        k_counts(FixedPhase(0), 6, 200)  # 960 * 200^3 = 7.7e9 over the cap


def test_k_counts_guard_at_ten_million():
    # 960 * 22^3 = 10,222,080 steps is over the cap; 960 * 21^3 is under it
    with pytest.raises(ValueError, match="10,222,080 multiples of alpha, over the 10,000,000 cap"):
        k_counts(FixedPhase(0), 6, 22)


def test_k_counts_bucket_guard():
    # min(H, X^3) buckets: 8X at k = 4 and 80 X^2 at k = 5 (X >= 80), each
    # under the multiples cap here
    with pytest.raises(ValueError, match="1,000,008 buckets, over the 1,000,000 cap"):
        k_counts(FixedPhase(0), 4, 125_001)
    with pytest.raises(ValueError, match="1,003,520 buckets"):
        k_counts(FixedPhase(0), 5, 112)
    assert sum(c.K for c in k_counts(FixedPhase(0), 4, 125_000)) == 10 ** 6


def test_k_bound_check_properties():
    golden = FixedPhase.from_real(Fraction(math.isqrt(5 * 10 ** 72), 10 ** 36) - 1)
    r = k_bound_check(golden, 6, 8)
    assert 0 < r <= 1e4
    assert k_bound_check(FixedPhase(0), 6, 4) > 0


def test_bound_values_at_zero():
    cmp0 = bound_values(FixedPhase(0), 100, 6)
    assert (cmp0.a, cmp0.q) == (0, 1)
    assert cmp0.actual == pytest.approx(100.0, abs=1e-9)
    amp = 100.0 ** 1.05
    assert cmp0.thm13 >= amp  # Theta ~ 1 at q = 1
    assert cmp0.actual <= cmp0.thm13


def test_bound_values_at_half_even_x():
    cmph = bound_values(FixedPhase.from_rational(1, 2), 512, 6)
    assert cmph.actual == 0.0
    assert min(cmph.thm13, cmph.hb15, cmph.classical) > 0


def test_bound_values_random_sample():
    # acceptance criterion 9 runs 200 phases at X in {512, 2048}
    rng = random.Random(101)
    for _ in range(20):
        a = FixedPhase(rng.getrandbits(128))
        c = bound_values(a, 512, 6)
        assert c.actual <= 100 * min(c.thm13, c.hb15, c.classical)
        assert c.q <= math.isqrt(512 ** 6)


def test_bound_values_guards():
    with pytest.raises(ValueError):
        bound_values(FixedPhase(0), 100, 5)
    with pytest.raises(ValueError):
        bound_values(FixedPhase(0), 0, 6)
