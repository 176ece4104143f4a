"""Acceptance suite: ten end-to-end criteria, one test and one verdict line
each.  Run with -s to see the verdict lines; each carries the measured
quantities and its wall time.  Expected totals: a few minutes, dominated by
the hundred-thousand-point counting sweep of criterion 1.
"""

import random
import time
from fractions import Fraction
from math import gcd

from wmvlab import bounds
from wmvlab.arcs import classify
from wmvlab.counting import (beta_fourth_moment, brute_force_moment,
                             moment_count, ninth_moment_bracket,
                             u_identity_rhs, vinogradov_count, vinogradov_j)
from wmvlab.fitting import fit_powerlaw, fit_segre
from wmvlab.phase import SCALE, FixedPhase, eval_f
from wmvlab.torusgrid import even_moment_exact, moment_estimate, restricted_profile


def _verdict(num, ok, detail, t0):
    wall = time.perf_counter() - t0
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}  ({wall:.1f}s)"
    print(line)
    return line


def test_c01_exact_counting_against_oracles():
    t0 = time.perf_counter()
    for x in range(1, 13):
        for s in (2, 4, 6):
            assert moment_count(x, s) == brute_force_moment(x, s), (x, s)
    for x in range(1, 201):
        assert moment_count(x, 4) == 2 * x * x - x, x
    for x in range(1, 100_001):
        assert moment_count(x, 2) == x, x
    line = _verdict(1, True, "brute force X<=12, I4 closed form X<=200, "
                             "I2=X X<=100000", t0)
    assert line


def test_c02_grid_cross_validates_counts():
    t0 = time.perf_counter()
    worst = 0.0
    for x in (2, 4, 8, 12, 16):
        for s in (2, 4, 6, 8, 10, 12):
            exact = moment_count(x, s)
            est = even_moment_exact(x, s)
            worst = max(worst, abs(est.value - exact) / exact)
    ok = worst <= 1e-9
    line = _verdict(2, ok, f"30 grid/count pairs, worst rel dev {worst:.2e}", t0)
    assert ok, line


I6_SERIES = {50: 757_724, 100: 6_159_610, 150: 20_849_190,
             200: 49_464_200, 300: 166_796_922, 400: 394_846_798}


def test_c03_sixth_moment_growth_model():
    t0 = time.perf_counter()
    points = []
    for x, expected in I6_SERIES.items():
        value = moment_count(x, 6)
        assert value == expected, (x, value)  # pinned engine output
        points.append((x, float(value)))
    a, b, resid = fit_segre(points)
    ok = 4.5 <= a <= 7.5 and b > 0 and resid < 0.05
    line = _verdict(3, ok, f"a={a:.4f} in [4.5,7.5], b={b:.4f} > 0, "
                           f"max rel resid {resid:.4f} < 0.05", t0)
    assert ok, line


def test_c04_vinogradov_sixth_moment_slope():
    # The critical case of Vinogradov's mean value theorem for cubes has six
    # variables per side (s = k(k+1)/2 = 6): J_{6,3}(X) << X^{6+eps}, and
    # its log-log slope must sit in [5.8, 6.9].  vinogradov_count(x, 6)
    # counts three per side, J_{3,3} = 6X^3 - 9X^2 + 4X with slope near 3;
    # its closed form stays pinned here and its slope is recorded.  Exact
    # J_{6,3} beyond X = 40 needs over 10^8 sorted multisets, so the
    # doubling ladder for the band runs over X = 10, 20, 40.
    t0 = time.perf_counter()
    points3 = []
    for x in (20, 40, 80, 160):
        value = vinogradov_count(x, 6)
        assert value == 6 * x ** 3 - 9 * x ** 2 + 4 * x, (x, value)
        points3.append((x, float(value)))
    slope3 = fit_powerlaw(points3).slope
    points6 = []
    for x, pinned in ((10, 346_411_900), (20, 38_255_402_400),
                      (40, 3_380_955_911_200)):
        value = vinogradov_j(x, 6)
        assert value == pinned, (x, value)
        points6.append((x, float(value)))
    slope6 = fit_powerlaw(points6).slope
    ok = 5.8 <= slope6 <= 6.9
    line = _verdict(4, ok, f"J_6,3 slope {slope6:.4f}, required band [5.8, 6.9]; "
                           f"J_3,3 slope {slope3:.4f}", t0)
    assert ok, line


def test_c05_fourth_moment_identity_two_sided():
    t0 = time.perf_counter()
    rng = random.Random(0xC5)
    failures = 0
    worst = 0.0
    for x in (5, 10, 20, 40):
        for _ in range(50):
            alpha = FixedPhase(rng.getrandbits(128))
            lhs = beta_fourth_moment(alpha, x)
            rhs = u_identity_rhs(alpha, x)
            rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
            worst = max(worst, rel)
            if rel > 1e-8:
                failures += 1
    ok = failures == 0
    line = _verdict(5, ok, f"200 checks, {failures} failures, "
                           f"worst rel dev {worst:.2e}", t0)
    assert ok, line


def test_c06_minor_arc_moment_slopes():
    t0 = time.perf_counter()
    xs = (8, 12, 16, 24, 32)
    i9, i12, i12r, lows, ups = [], [], [], [], []
    for x in xs:
        est = moment_estimate(x, 9, 1e-3)
        assert est.converged, x
        # s -> log I_s is convex, so exact I6..I12 bracket I9
        lower, upper = ninth_moment_bracket(x)
        assert lower <= est.value <= upper, x
        i9.append((x, est.value))
        lows.append((x, lower))
        ups.append((x, upper))
    for x in xs:
        grid, exact = even_moment_exact(x, 12).value, moment_count(x, 12)
        assert abs(grid - exact) <= 1e-9 * exact, x  # the counter's exact I12
        i12.append((x, grid))
    for x in xs:
        est = restricted_profile(x, 12, [x], 1e-3)[0]
        assert est.converged and est.exact, x
        i12r.append((x, est.value))
    s9 = fit_powerlaw(i9).slope
    s12 = fit_powerlaw(i12).slope
    s12r = fit_powerlaw(i12r).slope
    ok = 4.6 <= s9 <= 5.8 and s12r <= 8.2 and s12 - s12r >= 0.3
    line = _verdict(6, ok, f"I9 inside its exact bracket (slopes "
                           f"{fit_powerlaw(lows).slope:.4f} .. "
                           f"{fit_powerlaw(ups).slope:.4f}), slope {s9:.4f} in "
                           f"[4.6,5.8], restricted I12 "
                           f"slope {s12r:.4f} <= 8.2, unrestricted exceeds by "
                           f"{s12 - s12r:.4f} >= 0.3", t0)
    assert ok, line


def test_c07_q_decay_of_restricted_moment():
    t0 = time.perf_counter()
    qs = [2, 4, 8, 16, 24]
    profile = restricted_profile(24, 12, qs, 1e-3)
    assert all(est.converged and est.exact for est in profile)
    vals = [est.value for est in profile]
    mono = all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    drop = vals[0] / vals[-1]
    ok = mono and drop >= 2.0
    line = _verdict(7, ok, f"X=24 s=12 nonincreasing over Q={qs}, "
                           f"drop {drop:.3f} >= 2", t0)
    assert ok, line


def test_c08_exponent_regime_comparison():
    t0 = time.perf_counter()
    for k in range(6, 13):
        top = 50 * k  # theta grid in exact hundredths up to k/2
        grid = [i / 100 for i in range(top + 1)]
        profiles = bounds.exponent_curves(k, grid)
        for i, prof in enumerate(profiles):
            if 300 <= i <= top:
                assert abs(prof.exp_thm13 - prof.exp_hb) <= 1e-12, (k, i)
            if 201 <= i <= 299:
                assert prof.exp_thm13 < prof.exp_hb, (k, i)
                assert prof.exp_thm13 < prof.exp_classical, (k, i)
            if 1 <= i <= 199:
                assert prof.exp_classical < prof.exp_thm13, (k, i)
                assert prof.exp_classical < prof.exp_hb, (k, i)
            if 1 <= i <= top:
                assert prof.exp_thm13 < 1, (k, i)
    line = _verdict(8, True, "k=6..12, step 0.01: equality on [3,k/2], "
                             "regime orderings strict, exp < 1 off theta=0", t0)
    assert line


def test_c09_bound_dominates_true_sum():
    t0 = time.perf_counter()
    rng = random.Random(0xC9)
    alphas = [FixedPhase(rng.getrandbits(128)) for _ in range(200)]
    worst = 0.0
    for x in (512, 2048):
        for alpha in alphas:
            cmp_ = bounds.bound_values(alpha, x, 6, 0.05)
            assert cmp_.actual <= 100.0 * cmp_.thm13, (x, alpha.frac)
            worst = max(worst, cmp_.actual / cmp_.thm13)
        half = eval_f(FixedPhase.from_rational(1, 2), 6, x)
        assert half == 0, x  # exact cancellation at alpha = 1/2, even X
    line = _verdict(9, True, f"400 bound checks, worst |f|/thm13 ratio "
                             f"{worst:.3f} <= 100; f(1/2) = 0 exactly", t0)
    assert line


def _exhaustive_major(alpha, Q, X):
    """Smallest q <= Q whose multiple of alpha sits within Q/X^3 of an
    integer, by direct scan; None when the angle is minor-arc."""
    x3 = X ** 3
    for q in range(1, Q + 1):
        prod = (alpha.frac * q) % SCALE
        dist = min(prod, SCALE - prod)
        if dist * x3 <= Q * SCALE:
            return q
    return None


def test_c10_arc_machinery():
    t0 = time.perf_counter()
    rng = random.Random(0xC10)

    for _ in range(10_000):
        x = rng.randint(1, 30)
        q_cut = rng.randint(1, x)
        alpha = FixedPhase(rng.getrandbits(128))
        label = classify(alpha, q_cut, x)
        witness_q = _exhaustive_major(alpha, q_cut, x)
        if witness_q is None:
            assert not label.major, (x, q_cut, alpha.frac)
        else:
            assert label.major, (x, q_cut, alpha.frac)
            a, q = label.approx.a, label.approx.q
            assert q == witness_q, (x, q_cut, alpha.frac)
            # the reported numerator really witnesses the arc inequality
            assert 0 <= a <= q
            assert abs(q * alpha.frac - (a << 128)) * x ** 3 <= q_cut * SCALE

    # pairwise disjointness of the arc intervals, exact arithmetic
    for x, q_cut in ((4, 4), (9, 9), (17, 13), (30, 30)):
        radius = Fraction(q_cut, x ** 3)
        intervals = []
        for q in range(1, q_cut + 1):
            for a in range(0, q + 1):
                if gcd(a, q) != 1:
                    continue
                center = Fraction(a, q)
                intervals.append((center - radius / q, center + radius / q))
        intervals.sort()
        for (lo1, hi1), (lo2, _) in zip(intervals, intervals[1:]):
            assert hi1 < lo2, (x, q_cut, hi1, lo2)

    # every h <= kappa * X^3 lands in exactly one frac bucket
    kappa6 = bounds.kappa(6)
    assert kappa6 == 960
    for trial in range(20):
        x = trial % 8 + 1
        alpha = FixedPhase(rng.getrandbits(128))
        counts = bounds.k_counts(alpha, 6, x)
        assert sum(c.K for c in counts) == kappa6 * x ** 3, (x, trial)
    line = _verdict(10, True, "classify vs exhaustive scan on 10^4 angles, "
                              "arcs disjoint, K(m) mass exact on 20 angles", t0)
    assert line
