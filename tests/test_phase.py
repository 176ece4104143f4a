"""Phase arithmetic and Weyl-sum evaluation against independent oracles."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from wmvlab import counting, phase
from wmvlab.phase import (
    BLOCK_TERMS,
    SCALE,
    FixedPhase,
    add_limbs,
    eval_f,
    eval_g,
    fsum_carry,
    phase_limbs,
    unit,
    unit_terms,
)

HALF = FixedPhase.from_rational(1, 2)
ZERO = FixedPhase(0)


def rand_phase(rng):
    return FixedPhase(rng.getrandbits(128))


def to_limbs(fracs):
    """Python-int phases as (high, low) uint64 limb arrays."""
    return (np.array([f >> 64 for f in fracs], dtype=np.uint64),
            np.array([f & ((1 << 64) - 1) for f in fracs], dtype=np.uint64))


def from_limbs(hi, lo):
    return [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]


def test_from_rational_small_cases():
    assert FixedPhase.from_rational(0, 1).frac == 0
    assert FixedPhase.from_rational(1, 2).frac == 1 << 127
    third = FixedPhase.from_rational(1, 3)
    # floor division: 3*frac is within 3 units of 2^128
    assert 0 <= (1 << 128) - 3 * third.frac < 3


def test_from_rational_rejects_bad_input():
    with pytest.raises(ValueError):
        FixedPhase.from_rational(1, 0)
    with pytest.raises(ValueError):
        FixedPhase.from_rational(3, 3)
    with pytest.raises(ValueError):
        FixedPhase.from_rational(-1, 5)
    with pytest.raises(ValueError):
        FixedPhase.from_rational(1, 1 << 63)


def test_multiply_back_recovers_zero():
    # q * floor(a*2^128/q) differs from a*2^128 by (a*2^128 mod q) < q,
    # so the wrapped product sits within q ulps of 0.
    rng = random.Random(101)
    for _ in range(500):
        q = rng.randrange(1, 1 << 40)
        a = rng.randrange(q)
        f = FixedPhase.from_rational(a, q).mul_int(q).frac
        assert min(f, SCALE - f) < q


def test_from_real_parses_exactly():
    assert FixedPhase.from_real("0.5").frac == 1 << 127
    assert FixedPhase.from_real(0.25).frac == 1 << 126
    assert FixedPhase.from_real(Fraction(1, 3)) == FixedPhase.from_rational(1, 3)
    # negative reals wrap onto the torus
    assert FixedPhase.from_real(Fraction(-1, 4)).frac == 3 << 126
    assert FixedPhase.from_real("1.75").frac == 3 << 126


def test_mul_int_cap():
    with pytest.raises(ValueError):
        HALF.mul_int(1 << 80)
    with pytest.raises(ValueError):
        HALF.mul_int(-(1 << 80))
    assert HALF.mul_int((1 << 80) - 1) is not None


def test_complement_and_add():
    rng = random.Random(7)
    for _ in range(50):
        p = rand_phase(rng)
        assert p.add(p.complement()) == ZERO
    assert ZERO.complement() == ZERO


def test_unit_quarter_points_exact():
    assert unit(0) == (1.0, 0.0)
    assert unit(SCALE >> 2) == (0.0, 1.0)
    assert unit(SCALE >> 1) == (-1.0, 0.0)
    assert unit(3 * (SCALE >> 2)) == (0.0, -1.0)


def test_unit_conjugation_is_bitwise():
    rng = random.Random(13)
    for _ in range(2000):
        f = rng.getrandbits(128)
        if f == 0:
            continue
        c1, s1 = unit(f)
        c2, s2 = unit(SCALE - f)
        assert c1 == c2
        assert s1 == -s2


def test_unit_against_mpmath():
    rng = random.Random(17)
    with mpmath.workdps(40):
        for _ in range(300):
            f = rng.getrandbits(128)
            c, s = unit(f)
            t = 2 * mpmath.pi * mpmath.mpf(f) / mpmath.mpf(SCALE)
            assert abs(c - float(mpmath.cos(t))) < 1e-15
            assert abs(s - float(mpmath.sin(t))) < 1e-15


def test_unit_terms_against_scalar_unit():
    """The kernel is the array form of `unit`: within 2.3e-16 (the folded
    phase reaches the angle through two binary64 limb conversions instead of
    one correctly rounded division), exact at the quarter points."""
    rng = random.Random(59)
    quarters = [0, SCALE >> 2, SCALE >> 1, 3 * (SCALE >> 2)]
    fracs = [rng.getrandbits(128) for _ in range(20000)]
    fracs += quarters + [(q + d) % SCALE for q in quarters for d in (-1, 1)]
    # a zero low limb at and next to each fold boundary, and elsewhere
    fracs += [((q >> 64) + d) % (1 << 64) << 64 for q in quarters for d in (-1, 0, 1)]
    fracs += [rng.getrandbits(64) << 64 for _ in range(200)]
    c, s = unit_terms(to_limbs(fracs))
    want = np.array([unit(f) for f in fracs])
    assert np.max(np.abs(c - want[:, 0])) <= 2.3e-16
    assert np.max(np.abs(s - want[:, 1])) <= 2.3e-16
    # the same fold: the signs agree even where cos or sin is below 2.3e-16
    assert np.array_equal(np.signbit(c), np.signbit(want[:, 0]))
    assert np.array_equal(np.signbit(s), np.signbit(want[:, 1]))
    n = len(quarters)
    assert c[20000:20000 + n].tolist() == [1.0, 0.0, -1.0, 0.0]
    assert s[20000:20000 + n].tolist() == [0.0, 1.0, 0.0, -1.0]


def test_unit_terms_conjugation_is_bitwise():
    rng = random.Random(61)
    fracs = [rng.getrandbits(128) for _ in range(5000)]
    fracs += [1, SCALE - 1, SCALE >> 2, SCALE >> 1, 3 * (SCALE >> 2), rng.getrandbits(64) << 64]
    c1, s1 = unit_terms(to_limbs(fracs))
    c2, s2 = unit_terms(to_limbs([(-f) % SCALE for f in fracs]))
    assert np.array_equal(c1, c2)
    assert np.array_equal(s1, -s2)


def test_phase_limbs_are_exact():
    rng = random.Random(67)
    for _ in range(5):
        a = rng.getrandbits(128)
        # signed multipliers, |m| < 2^32, odd and even powers
        m = np.array([rng.randrange(1 - (1 << 32), 1 << 32) for _ in range(500)]
                     + [0, 1, -1, (1 << 32) - 1, 1 - (1 << 32)], dtype=np.int64)
        for k in (1, 2, 3):
            got = from_limbs(*phase_limbs(a, m, k))
            assert got == [(int(v) ** k * a) % SCALE for v in m]
        # x^k up to the 2^80 multiplier cap
        for k in (1, 2, 3, 4, 5, 6):
            top = min(1 << 32, math.ceil(2 ** (80 / k))) - 1
            while top ** k >= 1 << 80:
                top -= 1
            x = np.array([top, top - 1, 2, 1] + [rng.randrange(1, top) for _ in range(200)],
                         dtype=np.int64)
            assert from_limbs(*phase_limbs(a, x, k)) == [(int(v) ** k * a) % SCALE for v in x]
        # addition carries out of the low limb and wraps past 2^128
        p = [rng.getrandbits(128) for _ in range(300)] + [SCALE - 1, (1 << 64) - 1]
        q = [rng.getrandbits(128) for _ in range(300)] + [1, 1]
        got = from_limbs(*add_limbs(to_limbs(p), to_limbs(q)))
        assert got == [(x + y) % SCALE for x, y in zip(p, q)]


def test_fsum_carry_matches_one_fsum():
    """Blocks fed through fsum_carry give math.fsum over all of them."""
    rng = random.Random(71)
    values = [rng.choice([1e16, -1e16, 1.0, 1e-16, -3e-17]) * rng.random()
              for _ in range(5000)] + [1e100, 1.0, -1e100, 2.0 ** -60]
    rng.shuffle(values)
    for size in (1, 7, 256, 5000):
        terms = []
        for i in range(0, len(values), size):
            terms = fsum_carry(terms, np.array(values[i:i + size]))
        assert math.fsum(terms) == math.fsum(values)


def test_blocks_do_not_change_the_sum():
    # three kernel blocks against one whole-array fsum, bit for bit
    rng = random.Random(73)
    a, b = rand_phase(rng), rand_phase(rng)
    X = 2 * BLOCK_TERMS + 5
    x = np.arange(1, X + 1, dtype=np.int64)
    c, s = unit_terms(add_limbs(phase_limbs(a.frac, x, 3), phase_limbs(b.frac, x)))
    assert eval_g(a, b, X) == complex(math.fsum(c), math.fsum(s))
    c, s = unit_terms(phase_limbs(a.frac, x, 2))
    assert eval_f(a, 2, X) == complex(math.fsum(c), math.fsum(s))


def test_sums_make_no_scalar_unit_call(monkeypatch):
    def scalar_unit(frac):
        raise AssertionError("scalar unit() called")

    monkeypatch.setattr(phase, "unit", scalar_unit)
    monkeypatch.setattr(counting, "unit", scalar_unit, raising=False)
    rng = random.Random(79)
    a, b = rand_phase(rng), rand_phase(rng)
    eval_f(a, 6, 300)
    eval_g(a, b, 300)
    counting.beta_fourth_moment(a, 20)
    counting.u_identity_rhs(a, 20)


def test_eval_g_examples():
    assert eval_g(ZERO, ZERO, 7) == 7 + 0j
    v = eval_g(ZERO, HALF, 4)
    assert v == 0 + 0j  # exact alternating +-1 cancellation
    assert eval_g(HALF, ZERO, 2) == 0 + 0j  # x^3 parity equals x parity


def test_eval_f_examples():
    assert eval_f(ZERO, 6, 100) == 100 + 0j
    assert eval_f(HALF, 6, 100) == 0 + 0j
    quarter = FixedPhase.from_rational(1, 4)
    assert eval_f(quarter, 1, 4) == 0 + 0j  # full 4th-root cycle, exact points


def test_eval_guards(monkeypatch):
    def refuse(terms):
        raise AssertionError("a sum started")

    monkeypatch.setattr(phase, "_unit_sum", refuse)
    with pytest.raises(ValueError, match="10\\^8 term cap"):
        eval_g(ZERO, ZERO, 10 ** 8 + 1)
    with pytest.raises(ValueError):
        eval_g(ZERO, ZERO, 10, span=(0, 5))
    with pytest.raises(ValueError):
        eval_g(ZERO, ZERO, 10, span=(1, 11))
    with pytest.raises(ValueError):
        eval_f(ZERO, 6, 1 << 14)  # X^k = 2^84 over the cap
    with pytest.raises(ValueError):
        eval_f(ZERO, 0, 5)


def test_eval_f_limb_guard():
    # the limb multiply takes x < 2^32; the term cap refuses these before
    # any work starts
    with pytest.raises(ValueError, match="terms exceeds the 10\\^8 term cap"):
        eval_f(ZERO, 1, 1 << 32)
    with pytest.raises(ValueError, match="terms exceeds the 10\\^8 term cap"):
        eval_f(ZERO, 2, (1 << 32) + 5)


def test_eval_f_term_cap(monkeypatch):
    # more than 10^8 terms is refused before the kernel sums any
    def refuse(terms):
        raise AssertionError("eval_f started summing")

    monkeypatch.setattr(phase, "_unit_sum", refuse)
    with pytest.raises(ValueError, match="100,000,001 terms exceeds the 10\\^8"):
        eval_f(ZERO, 1, 10 ** 8 + 1)


def test_eval_g_admits_the_range_eval_f_admits(monkeypatch):
    # the limb kernel never forms x^3, so X past 2^21 reaches it, up to the
    # shared 10^8 term cap, where X^3 = 10^24 < 2^80
    monkeypatch.setattr(phase, "_unit_sum", lambda terms: "summed")
    for X in ((1 << 21) + 1, 10 ** 8):
        assert eval_g(ZERO, ZERO, X) == "summed"
        assert eval_f(ZERO, 3, X) == "summed"


def test_eval_g_past_the_old_cube_cap_against_exact_phases():
    # 100 terms at the top of [1, X], where x^3 passes 2^63 (X = 2^21 + 1)
    # and nears 2^80 (X = 10^8): exact integer phases through the scalar unit
    rng = random.Random(41)
    for X in ((1 << 21) + 1, 10 ** 8):
        a, b = rand_phase(rng), rand_phase(rng)
        units = [unit((a.frac * x ** 3 + b.frac * x) % SCALE) for x in range(X - 99, X + 1)]
        want = complex(math.fsum(c for c, _ in units), math.fsum(s for _, s in units))
        assert abs(eval_g(a, b, X, span=(X - 99, X)) - want) <= 1e-12


def test_periodicity_bit_for_bit():
    rng = random.Random(23)
    for _ in range(20):
        r = Fraction(rng.getrandbits(60), (rng.getrandbits(60) | 1))
        a1 = FixedPhase.from_real(r)
        a2 = FixedPhase.from_real(r + 1)
        assert a1 == a2
        b = rand_phase(rng)
        assert eval_g(a1, b, 30) == eval_g(a2, b, 30)


def test_conjugation_invariant():
    """eval_g(1-a, 1-b, X) is the conjugate, well inside the 2X*2^-60 budget
    (the folded unit-circle evaluation makes it bitwise here)."""
    rng = random.Random(29)
    for _ in range(25):
        a, b = rand_phase(rng), rand_phase(rng)
        X = rng.randrange(1, 300)
        v = eval_g(a, b, X)
        w = eval_g(a.complement(), b.complement(), X)
        assert abs(w.real - v.real) <= 2 * X * 2.0 ** -60
        assert abs(w.imag + v.imag) <= 2 * X * 2.0 ** -60
        assert w == v.conjugate()


def test_triangle_bound():
    rng = random.Random(31)
    for _ in range(25):
        a, b = rand_phase(rng), rand_phase(rng)
        X = rng.randrange(1, 2000)
        assert abs(eval_g(a, b, X)) <= X + 1e-6


def test_splitting_small_all_cuts():
    rng = random.Random(37)
    X = 50
    a, b = rand_phase(rng), rand_phase(rng)
    whole = eval_g(a, b, X)
    for m in range(1, X):
        left = eval_g(a, b, X, span=(1, m))
        right = eval_g(a, b, X, span=(m + 1, X))
        assert abs(whole - (left + right)) <= X * 2.0 ** -50


def test_splitting_and_triangle_at_full_scale():
    # the compensated accumulation is sized for X = 2^21
    rng = random.Random(41)
    X = 1 << 21
    a, b = rand_phase(rng), rand_phase(rng)
    whole = eval_g(a, b, X)
    assert abs(whole) <= X + X * 2.0 ** -40
    m = rng.randrange(X // 3, 2 * X // 3)
    parts = eval_g(a, b, X, span=(1, m)) + eval_g(a, b, X, span=(m + 1, X))
    assert abs(whole - parts) <= X * 2.0 ** -50


def test_eval_g_against_quad_precision_oracle():
    """100 random (alpha, beta) pairs, X <= 1000: coordinatewise 1e-9
    agreement with a 40-digit reference summation."""
    rng = random.Random(43)
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        for _ in range(100):
            a, b = rand_phase(rng), rand_phase(rng)
            X = rng.randrange(1, 1001)
            got = eval_g(a, b, X)
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            for x in range(1, X + 1):
                f = (x * x * x * a.frac + x * b.frac) % SCALE
                t = two_pi * mpmath.mpf(f) / SCALE
                re += mpmath.cos(t)
                im += mpmath.sin(t)
            assert abs(got.real - float(re)) < 1e-9
            assert abs(got.imag - float(im)) < 1e-9


def test_eval_f_against_quad_precision_oracle():
    """k = 6, X <= 2048: within X * 2^-50 of a 40-digit reference sum (each
    kernel term is within 2.3e-16 and the sum is correctly rounded)."""
    rng = random.Random(83)
    cases = [(rand_phase(rng), 2048), (rand_phase(rng), 2048),
             (rand_phase(rng), 1000), (FixedPhase.from_rational(1, 7), 512)]
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        for a, X in cases:
            got = eval_f(a, 6, X)
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            for x in range(1, X + 1):
                t = two_pi * mpmath.mpf((x ** 6 * a.frac) % SCALE) / SCALE
                re += mpmath.cos(t)
                im += mpmath.sin(t)
            assert abs(got.real - float(re)) <= X * 2.0 ** -50
            assert abs(got.imag - float(im)) <= X * 2.0 ** -50


def test_as_fraction_to_float_roundtrip():
    p = FixedPhase.from_rational(3, 8)
    assert p.as_fraction() == Fraction(3, 8)
    assert p.to_float() == 0.375
