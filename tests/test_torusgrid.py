"""Torus-grid quadrature: FFT rows against direct summation, band-limited
exactness, refinement, and minor-arc restriction."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from wmvlab import torusgrid
from wmvlab.arcs import classify, major_kernel
from wmvlab.counting import moment_count
from wmvlab.phase import FixedPhase, eval_g
from wmvlab.torusgrid import (
    GridSpec,
    amplitude_row,
    arc_mask,
    auto_spec_even,
    auto_spec_start,
    even_moment_exact,
    moment_estimate,
    restricted_profile,
)


def test_gridspec_floors():
    GridSpec(17, 5, 2)  # the smallest legal grid for X=2
    with pytest.raises(ValueError):
        GridSpec(16, 5, 2)
    with pytest.raises(ValueError):
        GridSpec(17, 4, 2)
    with pytest.raises(ValueError):
        GridSpec(17, 5, 0)


def test_amplitude_row_small_example():
    spec = GridSpec(17, 5, 2)
    row = amplitude_row(2, spec, 0)
    assert row[0] == pytest.approx(2.0, abs=1e-12)
    for i in range(17):
        want = abs(np.exp(2j * np.pi * i / 17) + np.exp(2j * np.pi * 8 * i / 17))
        assert row[i] == pytest.approx(want, abs=1e-12)


def test_amplitude_row_at_origin_is_x():
    for X in (1, 3, 7):
        spec = auto_spec_even(X, 2)
        assert amplitude_row(X, spec, 0)[0] == pytest.approx(float(X), rel=1e-12)


def test_amplitude_row_matches_eval_g():
    rng = random.Random(83)
    X = 6
    spec = auto_spec_even(X, 2)
    for j in (0, 1, spec.Mbeta // 2, spec.Mbeta - 1):
        row = amplitude_row(X, spec, j)
        beta = FixedPhase.from_rational(j, spec.Mbeta)
        for _ in range(40):
            i = rng.randrange(spec.Malpha)
            alpha = FixedPhase.from_rational(i, spec.Malpha)
            assert abs(row[i] - abs(eval_g(alpha, beta, X))) < 1e-8


def test_amplitude_row_guards():
    spec = GridSpec(17, 5, 2)
    with pytest.raises(ValueError):
        amplitude_row(3, spec, 0)
    with pytest.raises(ValueError):
        amplitude_row(2, spec, 5)
    big = GridSpec(1 << 29, 5, 2)
    with pytest.raises(ValueError):
        amplitude_row(2, big, 0)


def test_even_moment_exact_examples():
    assert even_moment_exact(5, 2).value == pytest.approx(5.0, rel=1e-9)
    assert even_moment_exact(2, 6).value == pytest.approx(20.0, rel=1e-9)
    assert even_moment_exact(8, 4).value == pytest.approx(120.0, rel=1e-9)
    est = even_moment_exact(5, 2)
    assert est.exact and est.err_est == 0.0


def test_even_moment_agrees_with_counts():
    # the acceptance suite runs the full {2,4,8,12,16} x {2,4,6} table
    for X in (2, 4, 8):
        for s in (2, 4, 6):
            want = moment_count(X, s)
            got = even_moment_exact(X, s).value
            assert got == pytest.approx(float(want), rel=1e-9)


def test_even_moment_guards():
    with pytest.raises(ValueError):
        even_moment_exact(5, 3)
    with pytest.raises(ValueError):
        even_moment_exact(500, 6)  # 3X^3 past the driver's 2^28 Malpha gate


def _no_grid_work(monkeypatch):
    def refuse(X, spec, j):
        raise AssertionError(f"grid work started on {spec}")

    monkeypatch.setattr(torusgrid, "amplitude_row", refuse)


def test_even_moments_pass_the_drivers_first_level_gate(monkeypatch):
    _no_grid_work(monkeypatch)
    # 76 rows x 21,233,664 = 1.6e9 (X = 150) and 151 rows x 169,869,312 =
    # 2.6e10 (X = 300) computed points
    for X in (150, 300):
        with pytest.raises(ValueError, match="first grid level .* 2\\^28 Malpha or 2\\^30 points"):
            even_moment_exact(X, 12)
    # I4 at X = 3 is exact on 72 x 12: 2 rows x 72 = 144 computed points
    monkeypatch.setattr(torusgrid, "GRID_POINTS_GUARD", 50)
    for run in (lambda: even_moment_exact(3, 4), lambda: moment_estimate(3, 4, 1e-6)):
        with pytest.raises(ValueError, match="first grid level"):
            run()


def test_nan_tol_is_refused_before_any_work(monkeypatch):
    # no delta is ever <= NaN, so a NaN tol would walk the ladder to its guards
    _no_grid_work(monkeypatch)
    for tol in (float("nan"), 0.0, -1.0):
        for run in (lambda: moment_estimate(2, 3, tol), lambda: moment_estimate(2, 4, tol),
                    lambda: restricted_profile(4, 4, [2], tol)):
            with pytest.raises(ValueError, match="tol must be positive"):
                run()


def _means(X, s, spec, cutoffs):
    return torusgrid._grid_means(X, s, spec, cutoffs, torusgrid._row_orbits(spec))


def test_doubling_past_nyquist_is_stable():
    X, s = 6, 4
    base = auto_spec_even(X, s)
    v1 = _means(X, s, base, [None])[0]
    v2 = _means(X, s, GridSpec(base.Malpha * 2, base.Mbeta * 2, X), [None])[0]
    assert abs(v2 - v1) <= 1e-9 * abs(v1)


def _unfolded_means(X, s, spec, cutoffs):
    """Oracle for the folded grid means: every one of the Mbeta rows, and
    for a cutoff each row's full-length rfft against the minor-arc
    coefficients [m == 0] - K_Q(m) at every m, so it does not assume that
    only m = 0 (mod d) survive the fold."""
    M = spec.Malpha
    m = np.arange(M // 2 + 1)
    weight = np.where((m == 0) | (2 * m == M), 1.0, 2.0)
    sums, spectrum = [], np.zeros(M // 2 + 1)
    for j in range(spec.Mbeta):
        vals = amplitude_row(X, spec, j) ** s
        sums.append(vals.sum())
        spectrum += np.fft.rfft(vals).real
    return [(math.fsum(sums) if T is None else
             math.fsum(spectrum * weight * ((m == 0) - major_kernel(T, X, m))))
            / (M * spec.Mbeta) for T in cutoffs]


def test_folded_grid_means_match_every_row():
    # odd sizes, odd Malpha with even Mbeta (no shift), even sizes that are
    # not powers of two (Mbeta/4 not an integer), two power-of-two grids, and
    # grids with d = gcd(6, Malpha, Mbeta) = 6, 3, 6, 3, 6, the last the exact
    # even grid 216 x 18
    cases = [(GridSpec(17, 5, 2), 2), (GridSpec(17, 6, 2), 2),
             (GridSpec(60, 14, 3), 3), (auto_spec_start(4, 6), 3),
             (auto_spec_start(3, 9), 2), (GridSpec(24, 6, 2), 2),
             (GridSpec(27, 9, 2), 2), (GridSpec(96, 24, 3), 3),
             (GridSpec(576, 27, 4), 4), (auto_spec_even(4, 6), 3)]
    for spec, Q in cases:
        X = spec.X
        for s in (2, 3, 9):
            for cutoffs in ([None], [Q], [None, Q]):
                got = _means(X, s, spec, cutoffs)
                want = _unfolded_means(X, s, spec, cutoffs)
                for g, w in zip(got, want):
                    assert g == pytest.approx(w, rel=1e-13, abs=0), (spec, s, cutoffs)


def test_rows_repeat_under_the_mod_6_shift():
    # x^3 = x (mod 6): g(alpha + k/6, beta - k/6) = g, so row j - k*Mbeta/6
    # is row j shifted by k*Malpha/6
    for X, spec in ((2, GridSpec(24, 6, 2)), (3, GridSpec(96, 24, 3)),
                    (4, GridSpec(576, 36, 4))):
        for j in (0, 1, spec.Mbeta // 2 - 1, spec.Mbeta - 1):
            row = amplitude_row(X, spec, j)
            for k in range(1, 6):
                moved = amplitude_row(X, spec, (j - k * spec.Mbeta // 6) % spec.Mbeta)
                shifted = np.roll(row, k * spec.Malpha // 6)
                assert np.max(np.abs(moved - shifted)) <= 1e-12 * X, (spec, j, k)


def test_rows_per_grid_after_the_fold(monkeypatch):
    calls = []

    def counted(X, spec, j):
        calls.append(spec)
        return amplitude_row(X, spec, j)

    monkeypatch.setattr(torusgrid, "amplitude_row", counted)
    # an exact even grid folds by all six shifts: Mbeta/12 + 1 rows, one on
    # 18 x 6, two on 486 x 18 and three on 1,728 x 30
    for X, s, rows in ((2, 2, 1), (6, 4, 2), (8, 6, 3)):
        calls.clear()
        est = even_moment_exact(X, s)
        assert len(calls) == est.spec.Mbeta // 12 + 1 == rows, (X, s)
        # even s in moment_estimate: that one band-limited grid, no refinement
        calls.clear()
        est = moment_estimate(X, s, 1e-6)
        spec = auto_spec_even(X, s)
        assert est.spec == spec and est.exact and est.err_est == 0.0
        assert calls == [spec] * rows, (X, s)
    # every level, masked or not: one row per orbit under j -> -j and the d
    # shifts, d = gcd(6, Malpha, Mbeta), which is Mbeta/(2d) + 1 rows when
    # 2d | Mbeta (Burnside: of the 2d maps the identity fixes Mbeta rows, each
    # reflection two and each shift none).  24 x 6 (d = 6) is one orbit and
    # 36 x 9 (d = 3) two: {0, 3, 6} and the rest.  An odd ladder, masked or
    # not, runs 3/4 then 9/8 of the next even moment's power-of-two grid; a
    # masked even one runs one grid, Malpha the least 2^a 3^b past s X^3
    for rows, run in (
            ({GridSpec(24, 6, 2): 1, GridSpec(36, 9, 2): 2},
             lambda: moment_estimate(2, 3, 1e-4)),
            ({GridSpec(384, 24, 4): 3, GridSpec(576, 36, 4): 4},
             lambda: moment_estimate(4, 9, 1e-4)),
            ({GridSpec(2304, 18, 8): 2},
             lambda: restricted_profile(8, 4, [2, 4], 1e-3)[0]),
            ({GridSpec(768, 24, 6): 3, GridSpec(1152, 36, 6): 4},
             lambda: restricted_profile(6, 5, [2], 1e-3)[0])):
        calls.clear()
        est = run()
        assert Counter(calls) == rows
        assert est.spec == max(rows, key=lambda sp: sp.Malpha) and len(est.levels) == len(rows)


def test_moment_estimate_even_converges_immediately():
    est = moment_estimate(5, 2, 1e-6)
    assert est.value == pytest.approx(5.0, abs=1e-6 * 5)
    assert est.exact and est.converged
    est6 = moment_estimate(2, 6, 1e-6)
    assert est6.value == pytest.approx(20.0, rel=1e-6)


def test_moment_estimate_odd_reproducible_and_close_to_fine_grid():
    est1 = moment_estimate(2, 3, 1e-4)
    est2 = moment_estimate(2, 3, 1e-4)
    assert est1.value == est2.value  # bit-for-bit rerun
    assert not est1.exact
    # independent fine-grid quadrature oracle at X=2
    Ma, Mb = 8192, 64
    i = np.arange(Ma)
    cube = np.exp(2j * np.pi * i / Ma)[None, :]  # x=1 alpha factor
    cube8 = np.exp(2j * np.pi * (8 * i % Ma) / Ma)[None, :]
    j = np.arange(Mb)
    lin1 = np.exp(2j * np.pi * j / Mb)[:, None]
    lin2 = np.exp(2j * np.pi * (2 * j % Mb) / Mb)[:, None]
    g = np.abs(cube * lin1 + cube8 * lin2)
    oracle = float((g ** 3).mean())
    assert est1.value == pytest.approx(oracle, rel=5e-4)


def test_moment_estimate_guards():
    with pytest.raises(ValueError):
        moment_estimate(4, 0, 1e-3)
    with pytest.raises(ValueError):
        moment_estimate(4, 3, 0.0)


def test_refine_reports_nonconvergence(monkeypatch):
    # shrink the memory guard so the refinement ladder must give up
    monkeypatch.setattr(torusgrid, "MALPHA_GUARD", 256)
    est = moment_estimate(2, 3, 1e-12)
    assert not est.converged
    assert est.err_est > 0.0


def _ladder(monkeypatch, run):
    """The distinct grids a refinement visits, in order of Malpha."""
    calls = []

    def counted(X, spec, j):
        calls.append(spec)
        return amplitude_row(X, spec, j)

    monkeypatch.setattr(torusgrid, "amplitude_row", counted)
    run()
    monkeypatch.undo()
    return sorted(set(calls), key=lambda sp: sp.Malpha)


def test_even_ladder_keeps_its_exact_beta_grid(monkeypatch):
    # a masked even moment is one level: the exact grid's Mbeta, and Malpha
    # the least 2^a 3^b past s X^3 so the alpha spectrum is not aliased
    for X, s, Qs, Malpha in ((6, 4, [2], 972), (8, 4, [2, 4], 2304), (4, 6, [2], 432)):
        ests = []
        levels = _ladder(monkeypatch, lambda: ests.extend(restricted_profile(X, s, Qs, 1e-3)))
        start = auto_spec_even(X, s)
        assert levels == [GridSpec(Malpha, start.Mbeta, X)], (X, s)
        assert levels[0].Malpha > s * X ** 3
        for est in ests:
            assert est.exact and est.converged and est.err_est == 0.0
            assert est.levels == ((est.spec.Malpha, est.spec.Mbeta, est.value, None),)
    # the band-limited Mbeta already gives the exact beta mean of each alpha row
    X, s, Q = 6, 4, 2
    for spec in _ladder(monkeypatch, lambda: restricted_profile(X, s, [Q], 1e-3)):
        finer = GridSpec(spec.Malpha, spec.Mbeta * 2, X)
        v = _means(X, s, spec, [Q])[0]
        assert v == pytest.approx(_means(X, s, finer, [Q])[0], rel=1e-13, abs=0)


def test_odd_ladder_confirms_on_a_non_nested_grid(monkeypatch):
    # an unmasked odd ladder starts at 3/4 of auto_spec_start and confirms at
    # 9/8 of it, then steps by 4/3 where 9 | Malpha and by 3/2 elsewhere
    levels = _ladder(monkeypatch, lambda: moment_estimate(2, 3, 1e-12))
    start = auto_spec_start(2, 3)
    assert levels[0] == GridSpec(start.Malpha * 3 // 4, start.Mbeta * 3 // 4, 2)
    assert levels[1] == GridSpec(start.Malpha * 9 // 8, start.Mbeta * 9 // 8, 2)
    assert len(levels) >= 4
    for k, (a, b) in enumerate(zip(levels, levels[1:])):
        ratio = Fraction(3, 2) if k % 2 == 0 else Fraction(4, 3)
        assert Fraction(b.Malpha, a.Malpha) == ratio, k
        assert Fraction(b.Mbeta, a.Mbeta) == ratio, k
    # 6 divides both sides of both grids once the anchor's Mbeta is at least 16
    for X, s in ((4, 9), (8, 9), (4, 3)):
        grids = _ladder(monkeypatch, lambda: moment_estimate(X, s, 1e-3))[:2]
        assert all(sp.Malpha % 6 == 0 and sp.Mbeta % 6 == 0 for sp in grids), (X, s)


def test_level_history_ends_on_the_reported_grid():
    est = moment_estimate(4, 9, 1e-3)
    assert est.levels[-1] == (est.spec.Malpha, est.spec.Mbeta, est.value, est.err_est)
    assert est.levels[0][3] is None and len(est.levels) >= 2
    even = even_moment_exact(4, 6)
    assert even.levels == ((even.spec.Malpha, even.spec.Mbeta, even.value, None),)


def test_odd_ladder_true_error_against_a_finer_grid():
    # the 3/4 start confirms at 9/8 of auto_spec_start: the reported value is
    # held against a direct mean on a grid twice as fine as auto_spec_start
    # on both sides, masked ones included (the boolean-mask ladder was off by
    # 9.8e-4 at (6, 5, Q = 6) while reporting err_est 9.5e-4)
    for X, s, Qs, rel in ((8, 9, None, 1e-8), (12, 9, None, 1e-8), (16, 9, None, 1e-8),
                          (6, 5, [2, 6], 1e-6), (12, 9, [12], 1e-8)):
        ests = ([moment_estimate(X, s, 1e-3)] if Qs is None
                else restricted_profile(X, s, Qs, 1e-3))
        start = auto_spec_start(X, s)
        fine = GridSpec(2 * start.Malpha, 2 * start.Mbeta, X)
        wants = _means(X, s, fine, Qs or [None])
        for est, want in zip(ests, wants):
            assert est.converged
            assert est.spec == GridSpec(start.Malpha * 9 // 8, start.Mbeta * 9 // 8, X)
            assert est.value == pytest.approx(want, rel=rel, abs=0), (X, s, Qs)


def test_masked_odd_ladder_starts_at_three_quarters_of_the_anchor(monkeypatch):
    for X, s, Qs in ((12, 9, [12]), (6, 5, [2, 6])):
        start = auto_spec_start(X, s)
        levels = _ladder(monkeypatch, lambda: restricted_profile(X, s, Qs, 1e-3))
        assert levels == [GridSpec(start.Malpha * 3 // 4, start.Mbeta * 3 // 4, X),
                          GridSpec(start.Malpha * 9 // 8, start.Mbeta * 9 // 8, X)], (X, s)


def test_refine_stops_before_a_level_past_the_points_guard(monkeypatch):
    # moment_estimate(2, 3) folds its levels to 1 x 24 = 24, 2 x 36 = 72,
    # 2 x 48 = 96, 2 x 72 = 144, 3 x 96 = 288, 4 x 144 = 576, 5 x 192 = 960
    # and 7 x 288 = 2,016 computed points; restricted_profile(16, 4) is its
    # one exact level, 4 x 17,496 = 69,984
    seventh = GridSpec(192, 48, 2)
    monkeypatch.setattr(torusgrid, "GRID_POINTS_GUARD", 1000)
    est = moment_estimate(2, 3, 1e-12)
    assert not est.converged
    assert est.spec == seventh and len(est.levels) == 7
    assert est.value == _means(2, 3, seventh, [None])[0]
    assert est.err_est > 0.0

    # a first level past the guard is refused before any FFT
    _no_grid_work(monkeypatch)
    monkeypatch.setattr(torusgrid, "GRID_POINTS_GUARD", 30_000)
    with pytest.raises(ValueError, match="first grid level 17,496 x 36 .* points guard"):
        restricted_profile(16, 4, [2], 1e-12)
    monkeypatch.setattr(torusgrid, "GRID_POINTS_GUARD", 20)
    with pytest.raises(ValueError, match="first grid level 24 x 6 .* points guard"):
        moment_estimate(2, 3, 1e-12)


def test_cauchy_schwarz_chain_at_x4():
    vals = {}
    for s in (2, 3, 4, 5, 6):
        vals[s] = moment_estimate(4, s, 1e-6).value
    for s in (3, 4, 5):
        assert vals[s] ** 2 <= vals[s - 1] * vals[s + 1] * (1 + 1e-6)


def test_arc_mask_examples():
    X = 6
    spec = GridSpec(2048, 16, X)
    mask = arc_mask(spec, 2, X)
    assert not mask[0]  # alpha = 0 is major
    assert not mask[1024]  # alpha = 1/2, q = 2 <= Q
    assert mask[341]  # 341/2048, far from every low-q rational
    # bulk of the grid stays minor at small Q
    assert mask.sum() > 0.8 * 2048


def test_arc_mask_matches_classify_everywhere():
    X, Q = 6, 5
    spec = GridSpec(2048, 16, X)
    mask = arc_mask(spec, Q, X)
    for i in range(spec.Malpha):
        is_minor = not classify(FixedPhase.from_rational(i, spec.Malpha), Q, X).major
        assert mask[i] == is_minor


def test_arc_mask_is_mirror_symmetric():
    # the major arcs are their own mirror image, so K_Q(m) is even in m
    for X, Q, M in ((6, 2, 2048), (6, 5, 2001), (8, 3.5, 1030), (5, 11, 777),
                    (12, 12, auto_spec_start(12, 12).Malpha)):
        mask = arc_mask(GridSpec(M, 2 * X + 1, X), Q, X)
        assert np.array_equal(mask, mask[-np.arange(M) % M]), (X, Q, M)


def test_arc_mask_on_a_doubled_grid_keeps_the_even_columns():
    # membership is decided in exact arithmetic, so a point's label does not
    # depend on the grid it is evaluated on
    for X, Q, M in ((6, 2, 1024), (6, 5, 1000), (8, 3.5, 1030), (8, 8, 4096),
                    (5, 11, 777), (12, 12, auto_spec_even(12, 12).Malpha)):
        half = arc_mask(GridSpec(M, 2 * X + 1, X), Q, X)
        doubled = arc_mask(GridSpec(2 * M, 2 * X + 1, X), Q, X)
        assert np.array_equal(doubled[::2], half), (X, Q, M)


def test_arc_mask_guards():
    spec = GridSpec(2048, 16, 6)
    with pytest.raises(ValueError):
        arc_mask(spec, 0.5, 6)
    with pytest.raises(ValueError):
        arc_mask(spec, 15, 6)  # above X^1.5 = 14.7


def test_restricted_le_unrestricted():
    for X, s, Q in ((4, 4, 2), (8, 4, 1), (6, 6, 3)):
        full = even_moment_exact(X, s).value
        part = restricted_profile(X, s, [Q], 1e-3)[0].value
        assert part <= full * (1 + 1e-9)


def test_restricted_monotone_on_shared_grid():
    ests = restricted_profile(8, 4, [2, 4, 8], 1e-3)
    vals = [e.value for e in ests]
    assert vals[0] >= vals[1] >= vals[2]
    # shared final grid across cutoffs
    assert len({e.spec for e in ests}) == 1


def _minor_moment_by_tuples(X, s, Q):
    """The minor-arc s-th moment, s = 2h, with no FFT and no Ramanujan sum:
    the sum over m of N(m) ([m == 0] - the integral of e(m alpha) over the
    major arcs), N(m) the number of ordered (h + h)-tuples with equal linear
    sums and cube-sum difference m, and the major integral summed arc by
    arc, its real part (sin(2 pi m hi) - sin(2 pi m lo))/(2 pi m) with m*hi
    reduced mod 1 in exact fractions."""
    by_sums = Counter()
    for xs in itertools.product(range(1, X + 1), repeat=s // 2):
        by_sums[sum(xs), sum(x ** 3 for x in xs)] += 1
    N = Counter()
    for (l1, c1), w1 in by_sums.items():
        for (l2, c2), w2 in by_sums.items():
            if l1 == l2:
                N[c1 - c2] += w1 * w2
    T, x3 = Fraction(Q), X ** 3
    arcs = [(max(Fraction(0), Fraction(a, q) - T / (q * x3)),
             min(Fraction(1), Fraction(a, q) + T / (q * x3)))
            for q in range(1, int(T) + 1) for a in range(q + 1) if math.gcd(a, q) == 1]

    def sin_turns(m, x):
        return math.sin(2 * math.pi * float(m * x % 1))

    total = float(N[0])
    for m, n in N.items():
        for lo, hi in arcs:
            total -= n * (float(hi - lo) if m == 0 else
                          (sin_turns(m, hi) - sin_turns(m, lo)) / (2 * math.pi * m))
    return total


def test_restricted_against_masked_direct_oracle():
    # an even minor-arc moment is one exact level on the doubled grid
    for X, s, Q in ((4, 4, 2), (6, 4, 2), (6, 4, 6), (8, 4, 1), (8, 4, 8),
                    (5, 6, 3), (6, 6, 6)):
        est = restricted_profile(X, s, [Q], 1e-3)[0]
        assert est.value == pytest.approx(_minor_moment_by_tuples(X, s, Q), rel=1e-12), (X, s, Q)
        assert est.converged and est.exact and est.err_est == 0.0 and len(est.levels) == 1


def test_restricted_at_x1_is_zero():
    # at X = 1 the one arc |alpha| <= 1 covers the circle: the minor set is empty
    for s in (4, 5):
        est = restricted_profile(1, s, [1], 1e-3)[0]
        assert est.value == 0.0 and est.converged, s


def test_restricted_profile_guards():
    with pytest.raises(ValueError):
        restricted_profile(8, 4, [9], 1e-3)  # Q > X
    with pytest.raises(ValueError):
        restricted_profile(8, 4, [0.5], 1e-3)
    with pytest.raises(ValueError):
        restricted_profile(8, 0, [2], 1e-3)


def test_restricted_profile_of_no_cutoffs_is_empty(monkeypatch):
    _no_grid_work(monkeypatch)
    assert restricted_profile(8, 4, [], 1e-3) == []


def test_auto_spec_choices():
    even = auto_spec_even(4, 6)
    assert even.Malpha >= 3 * 64 + 1 and even.Mbeta >= 3 * 4 + 1
    assert even == GridSpec(216, 18, 4)  # 2^3 3^3 and 3 x 6
    start = auto_spec_start(4, 9)
    assert start.Malpha >= 2 * 64 + 1 and start.Mbeta >= 2 * 4 + 1
    assert start == GridSpec(512, 32, 4)  # odd ladders anchor on powers of two


def test_exact_even_grids_are_the_least_that_6_divides(monkeypatch):
    calls = []

    def counted(X, spec, j):  # grid choice and row count only: no FFT
        calls.append(spec)
        return np.ones(spec.Malpha)

    monkeypatch.setattr(torusgrid, "amplitude_row", counted)
    smooth = {2 ** a * 3 ** b for a in range(1, 40) for b in range(1, 25)}  # a, b >= 1
    for X in range(1, 25):
        for s in range(2, 13, 2):
            beta_limit = max(2 * X, s // 2 * X)
            for masked in (False, True):
                alpha_limit = s * X ** 3 if masked else max(2 * X ** 3, s // 2 * X ** 3)
                calls.clear()
                est = (restricted_profile(X, s, [1], 1e-3)[0] if masked
                       else even_moment_exact(X, s))
                spec = est.spec
                assert spec.Malpha % 6 == 0 and spec.Mbeta % 6 == 0, spec
                assert spec.Malpha in smooth, spec
                assert spec.Malpha > alpha_limit and spec.Mbeta > beta_limit, spec
                # by brute force, no smaller candidate passes either limit
                assert not [m for m in smooth if alpha_limit < m < spec.Malpha], spec
                assert not [m for m in range(beta_limit + 1, spec.Mbeta) if m % 6 == 0], spec
                assert calls == [spec] * len(torusgrid._row_orbits(spec)), (X, s, masked)
                assert len(calls) == spec.Mbeta // 12 + 1
                if not masked:
                    assert spec == auto_spec_even(X, s)


def _orbits_by_sets(spec):
    """The literal orbits of j -> -j and j -> j - k*Mbeta/d as sets."""
    M = spec.Mbeta
    step = M // torusgrid._shift_order(spec)
    seen, out = set(), []
    for j in range(M):
        if j not in seen:
            orbit = {(sign * j - t) % M for sign in (1, -1) for t in range(0, M, step)}
            seen |= orbit
            out.append((j, len(orbit)))
    return out


def test_row_orbits_closed_form_matches_the_orbit_sets():
    # Malpha 1,025, 1,024, 1,029 and 1,026 give d = 1, 2, 3 and 6 with the
    # Mbeta that 6 divides, and odd Mbeta or Mbeta prime to 3 cut d down
    ds = Counter()
    for Malpha in (1025, 1024, 1029, 1026):
        for Mbeta in range(3, 100):
            spec = GridSpec(Malpha, Mbeta, 1)
            ds[torusgrid._shift_order(spec)] += 1
            orbits = torusgrid._row_orbits(spec)
            assert orbits == _orbits_by_sets(spec), spec
            assert sum(size for _, size in orbits) == Mbeta
    assert set(ds) == {1, 2, 3, 6}
