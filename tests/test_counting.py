"""Exact counting engine: the slab-streamed multiset counter, moments, the
Vinogradov system, and the two-sided fourth-moment identity."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from wmvlab import counting
from wmvlab.counting import (
    _multisets,
    beta_fourth_moment,
    brute_force_moment,
    moment_count,
    ninth_moment_bracket,
    reciprocal_sum_bound,
    u_identity_rhs,
    vinogradov_count,
    vinogradov_j,
)
from wmvlab.phase import SCALE, FixedPhase, unit_terms
from wmvlab.torusgrid import moment_estimate


def _ordered_spectrum(X, h):
    """Counter oracle: ordered h-tuples over [1, X] per (sum, square-sum,
    cube-sum) key, by literal enumeration."""
    per_key = Counter()
    for tup in itertools.product(range(1, X + 1), repeat=h):
        per_key[(sum(tup), sum(x * x for x in tup), sum(x ** 3 for x in tup))] += 1
    return per_key


def _shared(left, right):
    return sum(c * right[key] for key, c in left.items())


def _sum_cube(spectrum):
    out = Counter()
    for (n, _, m), c in spectrum.items():
        out[(n, m)] += c
    return out


def _decoded(packed, X, h, n_lo, square):
    """Packed multiset keys of slabs from n_lo on, under the counter's key
    layout, back to linear, square (None unless `square`) and cube sums and
    weights."""
    assert packed.min() >= 0, (X, h, n_lo)
    wbits = math.factorial(h).bit_length()
    sq_span, cube_span = h * X * X + 1, h * X ** 3 + 1
    key, cube = np.divmod(packed >> wbits, cube_span)
    sq = None
    if square:
        key, sq = np.divmod(key, sq_span)
    return key + n_lo, sq, cube, packed & ((1 << wbits) - 1)


def _packed_multisets(X, h, n_lo, n_hi, square):
    """`_multisets` over slabs n_lo..n_hi, decoded."""
    wbits = math.factorial(h).bit_length()
    sq_span, cube_span = h * X * X + 1, h * X ** 3 + 1
    v = np.arange(X + 1, dtype=np.int64)
    tail = ((v * v * cube_span if square else 0) + v ** 3) << wbits
    slab_span = ((sq_span if square else 1) * cube_span) << wbits
    return _decoded(_multisets(X, h, n_lo, n_hi, tail, slab_span), X, h, n_lo, square)


def test_cubic_spectrum_small_cases():
    # the (sum, cube-sum) key spectrum, read off the weighted multisets
    def spectrum(X, h):
        lin, _, cube, weight = _packed_multisets(X, h, h, h * X, False)
        out = Counter()
        for n, m, w in zip(lin.tolist(), cube.tolist(), weight.tolist()):
            out[(n, m)] += w
        return dict(out)

    assert spectrum(1, 3) == {(3, 3): 1}
    assert spectrum(2, 3) == {(3, 3): 1, (4, 10): 3, (5, 17): 3, (6, 24): 1}
    assert spectrum(2, 1) == {(1, 1): 1, (2, 8): 1}


def test_spectrum_mass_conservation():
    # the multiset weights count every ordered h-tuple once, over all slabs
    # together and slab by slab
    for X, h in ((1, 1), (7, 1), (13, 2), (9, 3), (50, 2), (8, 4), (6, 5), (5, 6)):
        assert int(_packed_multisets(X, h, h, h * X, True)[3].sum()) == X ** h, (X, h)
        assert sum(int(_packed_multisets(X, h, n, n, False)[3].sum())
                   for n in range(h, h * X + 1)) == X ** h, (X, h)


def test_repeated_last_value_weighs_right_at_every_batch_width(monkeypatch):
    # a last coordinate equal to the one before it takes the weight
    # h!/(denom (run + 1)); one slab per batch, then every slab in one batch
    for batch in (1, 1 << 30):
        monkeypatch.setattr(counting, "_BATCH", batch)
        for h in (2, 3, 4):
            for X in range(1, 8):
                spectrum = _ordered_spectrum(X, h)
                per_side = _sum_cube(spectrum)
                assert moment_count(X, 2 * h) == _shared(per_side, per_side), (batch, X, h)
                assert vinogradov_j(X, h) == _shared(spectrum, spectrum), (batch, X, h)


def test_moment_count_examples():
    assert moment_count(5, 2) == 5
    assert moment_count(2, 6) == 20
    assert moment_count(2, 4) == 6
    assert moment_count(5, 2, 1) == 5  # the unused third argument is still accepted


def test_moment_count_rejects_odd_or_large_s():
    with pytest.raises(ValueError):
        moment_count(5, 3)
    with pytest.raises(ValueError):
        moment_count(5, 14)


def test_moment_count_high_even_moments_match_the_counter_oracle():
    # I8, I10, I12: h = 4, 5, 6 variables per side against ordered h-tuples
    for h in (4, 5, 6):
        for X in range(2, 6):
            per_side = _sum_cube(_ordered_spectrum(X, h))
            assert moment_count(X, 2 * h) == _shared(per_side, per_side), (X, h)


def test_ninth_moment_bracket_against_the_counter_oracle():
    for X in range(1, 5):
        i = {2 * h: _shared(*[_sum_cube(_ordered_spectrum(X, h))] * 2) for h in (3, 4, 5, 6)}
        lower = max(i[8] ** 1.5 / i[6] ** 0.5, i[10] ** 1.5 / i[12] ** 0.5)
        assert ninth_moment_bracket(X) == (lower, math.sqrt(i[8] * i[10])), X
    # the grid's ninth moment lies inside its exact bracket
    for X in (4, 8):
        lower, upper = ninth_moment_bracket(X)
        assert lower <= moment_estimate(X, 9, 1e-6).value <= upper, X


def test_moment_matches_brute_force():
    # full X <= 12 sweep lives in the acceptance suite; spot the small grid
    for X in range(1, 9):
        for s in (2, 4, 6):
            assert moment_count(X, s) == brute_force_moment(X, s)
    # past brute-force reach, a Counter over ordered triples
    for X in range(13, 31):
        triples = _sum_cube(_ordered_spectrum(X, 3))
        assert moment_count(X, 6) == _shared(triples, triples), X


def _naive_brute_force(X, s):
    """Tuple-loop oracle: every ordered s-tuple over [1, X], checking the
    linear and cubic equations directly."""
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


def test_brute_force_matches_the_naive_tuple_loop():
    for X in range(1, 6):
        for s in (2, 4, 6):
            assert brute_force_moment(X, s) == _naive_brute_force(X, s), (X, s)
    assert brute_force_moment(3, 8) == _naive_brute_force(3, 8)


def test_brute_force_examples_and_guards():
    assert brute_force_moment(1, 6) == 1
    assert brute_force_moment(3, 4) == 15
    assert brute_force_moment(2, 6) == 20
    with pytest.raises(ValueError):
        brute_force_moment(13, 4)
    with pytest.raises(ValueError):
        brute_force_moment(4, 10)
    with pytest.raises(ValueError):
        brute_force_moment(5, 5)
    # at most 10^7 tuples: 8^8 and 12^8 are refused before enumerating,
    # 7^8 still runs (12^6 runs in the acceptance suite's c01)
    for X in (8, 12):
        with pytest.raises(ValueError, match=f"{X ** 8:,} tuples exceeds the 10\\^7"):
            brute_force_moment(X, 8)
    assert brute_force_moment(7, 8) == moment_count(7, 8)


def test_closed_forms():
    rng = random.Random(3)
    # X = 1000 splits its 1999 slabs into batches of 261: the last is short
    for X in [1, 2, 17, 60, 1000] + [rng.randrange(1, 201) for _ in range(6)]:
        assert moment_count(X, 4) == 2 * X * X - X
    # I2 = X for one variable per side, up to X = 70000, well inside the
    # int64 key width that caps s = 2
    for X in (1, 2, 97, 1000, 4096, 70_000):
        assert moment_count(X, 2) == X
    for X in (2, 5, 20, 60):
        assert moment_count(X, 6) >= 6 * X ** 3 - 12 * X ** 2
    # J_{1,3} = X and J_{2,3} = 2X^2 - X, through the reflected half of the
    # slabs; at X = 2000 the int64 key width, not the count, sets the batch
    for X in (1, 2, 97, 1000, 2000):
        assert vinogradov_j(X, 1) == X
        assert vinogradov_j(X, 2) == 2 * X * X - X


def test_vinogradov_examples():
    assert vinogradov_count(1, 6) == 1
    assert vinogradov_count(2, 6) == 20
    assert vinogradov_count(2, 2) == 2


def test_vinogradov_closed_form_s6():
    # Newton's identities force every key class to be a permutation class,
    # which collapses J at s=6 to 6X^3 - 9X^2 + 4X.
    for X in (1, 2, 3, 5, 10, 25, 40):
        assert vinogradov_count(X, 6) == 6 * X ** 3 - 9 * X ** 2 + 4 * X


def test_vinogradov_odd_s_vanishes():
    # unequal side arities cannot share (sum, sum sq, sum cube) over
    # positive integers; the shared-key sum must come back empty
    for X in (2, 3, 7, 12):
        assert vinogradov_count(X, 3) == 0
        assert vinogradov_count(X, 5) == 0


def test_vinogradov_rejects_out_of_range_s():
    with pytest.raises(ValueError):
        vinogradov_count(4, 1)
    with pytest.raises(ValueError):
        vinogradov_count(4, 7)


def test_vinogradov_j_matches_brute_force():
    for X in range(1, 5):
        for h in range(1, 7):
            spectrum = _ordered_spectrum(X, h)
            assert vinogradov_j(X, h) == _shared(spectrum, spectrum), (X, h)
    # vinogradov_count, odd s included, against the same Counter oracle
    for X in range(13, 31):
        spectra = {h: _ordered_spectrum(X, h) for h in (1, 2, 3)}
        for s in range(2, 7):
            want = _shared(spectra[(s + 1) // 2], spectra[s // 2])
            assert vinogradov_count(X, s) == want, (X, s)


def _convolved_counts(X, h):
    """Numpy oracle: ordered h-tuples over [1, X] per (sum, square-sum,
    cube-sum) key, as the h-fold convolution of the one-variable spectrum."""
    x = np.arange(1, X + 1, dtype=np.int64)
    one = np.stack([x, x * x, x ** 3], axis=1)
    keys, counts = np.zeros((1, 3), dtype=np.int64), np.ones(1, dtype=np.int64)
    for _ in range(h):
        keys = (keys[:, None, :] + one[None, :, :]).reshape(-1, 3)
        keys, inverse = np.unique(keys, axis=0, return_inverse=True)
        merged = np.zeros(len(keys), dtype=np.int64)
        np.add.at(merged, inverse.ravel(), np.repeat(counts, X))
        counts = merged
    return counts


def test_vinogradov_j_matches_vinogradov_count():
    for X in range(20, 41):
        for h in (1, 2, 3):
            counts = _convolved_counts(X, h)
            want = int(np.dot(counts, counts))
            assert vinogradov_j(X, h) == want, (X, h)
            assert vinogradov_count(X, 2 * h) == want, (X, h)


def test_packed_batch_keys_fit_in_int64(monkeypatch):
    # J_{2,3}(2000): the count alone would allow 32 slabs per batch, but the
    # packed (slab offset, square-sum, cube-sum, weight) key allows only 18
    X, h = 2000, 2
    sq_span, cube_span = h * X * X + 1, h * X ** 3 + 1
    wbits = math.factorial(h).bit_length()
    inner = counting._multisets
    widest = []

    def checked(X_, h_, n_lo, n_hi, tail, slab_span):
        packed = inner(X_, h_, n_lo, n_hi, tail, slab_span)
        # every key decodes to a pair x1 <= x2 of the batch, so none wrapped
        got = np.stack(_decoded(packed, X, h, n_lo, True))
        n = np.arange(n_lo, n_hi + 1)
        x1 = np.concatenate([np.arange(max(1, m - X), m // 2 + 1) for m in n.tolist()])
        x2 = np.repeat(n, n // 2 - np.maximum(1, n - X) + 1) - x1
        want = np.stack([x1 + x2, x1 * x1 + x2 * x2, x1 ** 3 + x2 ** 3, 2 - (x1 == x2)])
        order = np.lexsort(got[::-1])
        assert np.array_equal(got[:, order], want[:, np.lexsort(want[::-1])])
        # the largest packed key, in exact integers
        lin_, sq_, cube_, weight_ = (int(a) for a in got[:, order[-1]])
        assert ((((lin_ - n_lo) * sq_span + sq_) * cube_span + cube_) << wbits) + weight_ \
            <= np.iinfo(np.int64).max, (n_lo, n_hi)
        widest.append(n_hi - n_lo + 1)
        return packed

    monkeypatch.setattr(counting, "_multisets", checked)
    assert vinogradov_j(X, h) == 2 * X * X - X
    assert max(widest) == 18


def test_vinogradov_j_pinned_six_per_side():
    pinned = {5: 2_241_225, 10: 346_411_900, 20: 38_255_402_400,
              40: 3_380_955_911_200}
    for X, value in pinned.items():
        assert vinogradov_j(X, 6) == value, X


def test_vinogradov_j_guards():
    with pytest.raises(ValueError, match="guard"):
        vinogradov_j(80, 6)  # about 4.4e8 sorted multisets
    with pytest.raises(ValueError, match="int64"):
        vinogradov_j(10 ** 4, 1)  # few multisets, but keys past the packed width
    with pytest.raises(ValueError):
        vinogradov_j(5, 0)
    with pytest.raises(ValueError):
        vinogradov_j(5, 7)
    with pytest.raises(ValueError):
        vinogradov_j(0, 6)


def test_one_variable_per_side_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("h = 1 enumerated multisets")

    monkeypatch.setattr(counting, "_multisets", refuse)
    for X in (1, 2, 16_384, 16_385, 70_000):
        assert moment_count(X, 2) == X
    # the square-sum widens the key, so the key-width refusal stops the
    # (sum, square, cube) counts at X = 5404, before 16,384
    for X in (1, 2, 5_404):
        assert vinogradov_count(X, 2) == X
        assert vinogradov_j(X, 1) == X
    with pytest.raises(ValueError, match="exceed the packed int64 width"):
        vinogradov_count(5_405, 2)
    with pytest.raises(ValueError, match="exceed the packed int64 width"):
        vinogradov_j(5_405, 1)
    with pytest.raises(ValueError, match="exceed the packed int64 width"):
        moment_count(2 * 10 ** 6, 2)


def test_enumeration_guard():
    with pytest.raises(ValueError, match=r"166,716,670,000 sorted 3-multisets .* 10\^8 guard"):
        moment_count(10 ** 4, 6)
    with pytest.raises(ValueError, match="exceed the packed int64 width"):
        moment_count(2 * 10 ** 6, 2)  # 2 * X^3 is past 2^63
    with pytest.raises(ValueError, match="exceed the packed int64 width"):
        vinogradov_count(10 ** 4, 2)  # (X^2 + 1)(X^3 + 1) << 1 is past 2^63
    with pytest.raises(ValueError):
        moment_count(0, 2)


def test_beta_fourth_moment_examples():
    zero = FixedPhase(0)
    assert beta_fourth_moment(zero, 2) == pytest.approx(6.0, abs=1e-9)
    assert beta_fourth_moment(zero, 10) == pytest.approx(670.0, abs=1e-8)
    assert beta_fourth_moment(FixedPhase.from_rational(1, 2), 1) == pytest.approx(1.0)


def test_beta_fourth_closed_form_at_zero():
    # alpha = 0 counts x1+x2 = x3+x4 solutions: (2X^3 + X) / 3
    for X in (1, 3, 8, 30, 100):
        want = (2 * X ** 3 + X) / 3
        assert beta_fourth_moment(FixedPhase(0), X) == pytest.approx(want, rel=1e-12)


def test_u_identity_examples():
    zero = FixedPhase(0)
    assert u_identity_rhs(zero, 2) == pytest.approx(6.0, abs=1e-9)
    assert u_identity_rhs(zero, 10) == pytest.approx(670.0, abs=1e-8)
    third = FixedPhase.from_rational(1, 3)
    lhs = beta_fourth_moment(third, 25)
    rhs = u_identity_rhs(third, 25)
    assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_u_identity_random_alpha():
    """The change-of-variables sum and the beta integral agree to 1e-8
    relative on seeded random phases (the full 50x4 sample is acceptance)."""
    rng = random.Random(47)
    for X in (5, 10, 20):
        for _ in range(8):
            a = FixedPhase(rng.getrandbits(128))
            lhs = beta_fourth_moment(a, X)
            rhs = u_identity_rhs(a, X)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


def test_size_guards_on_identity_ops():
    with pytest.raises(ValueError):
        beta_fourth_moment(FixedPhase(0), 3001)
    with pytest.raises(ValueError):
        u_identity_rhs(FixedPhase(0), 3001)
    with pytest.raises(ValueError, match=r"200,050,003 terms, over the 200,010,000 cap"):
        reciprocal_sum_bound(FixedPhase(0), 10 ** 4 + 1)


def test_identity_term_guard():
    # (2X^3 + X)/3 terms: 99,814,371 at X = 531 is admitted, X = 532 is not
    with pytest.raises(ValueError, match=r"100,379,356 terms, over the 100,000,000 cap"):
        u_identity_rhs(FixedPhase(0), 532)


def _kernel_fsum(fracs):
    """math.fsum of the kernel's cosines and sines over one whole array."""
    limbs = (np.array([f >> 64 for f in fracs], dtype=np.uint64),
             np.array([f & ((1 << 64) - 1) for f in fracs], dtype=np.uint64))
    c, s = unit_terms(limbs)
    return math.fsum(c), math.fsum(s)


def _u_multipliers(X):
    """-3 u1 u2 u3 over the literal unfolded enumeration of the u-triples:
    every triple in (-X, 2X]^3 whose four forms are even and in [1, 2X]."""
    out = []
    for u1 in range(1 - X, 2 * X + 1):
        for u2 in range(1 - X, 2 * X + 1):
            for u3 in range(1, 2 * X + 1):  # u3 = (q1 + q2) / 2 lies in [1, 2X]
                q1, q2, q3, q4 = u3 + u2 - u1, u3 + u1 - u2, u3 - u1 - u2, u3 + u1 + u2
                # the four q share one parity
                if (q1 % 2 == 0 and 1 <= q1 <= 2 * X and 1 <= q2 <= 2 * X
                        and 1 <= q3 <= 2 * X and 1 <= q4 <= 2 * X):
                    out.append(-3 * u1 * u2 * u3)
    assert len(out) == (2 * X ** 3 + X) // 3
    return out


def _kernel_blocks(monkeypatch):
    """The size of every block that counting passes to the kernel."""
    sizes = []

    def spy(phase):
        sizes.append(len(phase[0]))
        return unit_terms(phase)

    monkeypatch.setattr(counting, "unit_terms", spy)
    return sizes


def test_identity_sums_match_literal_loops_across_blocks(monkeypatch):
    """Both sides against their literal scalar enumerations, at sizes that
    take several kernel blocks: the blocks change no sum, bit for bit.  The
    u-side sums about 9,000 orbit terms at X = 47, so its blocks are cut to
    3,000 terms to keep it across at least three."""
    a = FixedPhase(random.Random(97).getrandbits(128))
    X = 47  # 69,231 u-triples
    fracs = [(m * a.frac) % SCALE for m in _u_multipliers(X)]
    monkeypatch.setattr(counting, "BLOCK_TERMS", 3000)
    blocks = _kernel_blocks(monkeypatch)
    assert u_identity_rhs(a, X) == _kernel_fsum(fracs)[0]
    assert len(blocks) >= 3 and max(blocks) <= 3000
    monkeypatch.undo()
    X = 300  # 90,000 pairs
    squares = []
    for n in range(2, 2 * X + 1):
        re, im = _kernel_fsum([((x1 ** 3 + (n - x1) ** 3) * a.frac) % SCALE
                               for x1 in range(max(1, n - X), min(X, n - 1) + 1)])
        squares.append(re * re + im * im)
    assert beta_fourth_moment(a, X) == math.fsum(squares)


def test_u_identity_fold_is_bit_identical_to_the_unfolded_sum():
    """One pair per orbit of the sign and swap symmetry, weighted by the
    orbit size, gives the bits of the literal unfolded sum.  Rational phases
    put cosines on the quarter points and at exact zeros and ones."""
    rng = random.Random(1401)
    alphas = [FixedPhase(0)] + [FixedPhase.from_rational(p, q)
                                for p, q in ((1, 2), (1, 4), (3, 4), (1, 3), (2, 7))]
    alphas += [FixedPhase(rng.getrandbits(128)) for _ in range(4)]
    for X in range(1, 13):
        multipliers = _u_multipliers(X)
        for a in alphas:
            want = _kernel_fsum([(m * a.frac) % SCALE for m in multipliers])[0]
            assert u_identity_rhs(a, X) == want, (X, a)


def test_u_identity_sums_one_term_per_orbit(monkeypatch):
    # X = 40: the fold passes 5,950 terms to the kernel, the unfolded walk 42,680
    X = 40
    blocks = _kernel_blocks(monkeypatch)
    u_identity_rhs(FixedPhase(random.Random(7).getrandbits(128)), X)
    assert sum(blocks) <= (2 * X ** 3 + X) // 24 + 2 * X ** 2


def test_reciprocal_sum_examples():
    assert reciprocal_sum_bound(FixedPhase(0), 5) == pytest.approx(500.0)
    assert reciprocal_sum_bound(FixedPhase.from_rational(1, 2), 1) == pytest.approx(4.0)
    assert reciprocal_sum_bound(FixedPhase.from_rational(1, 4), 2) == pytest.approx(32.0)


def _reciprocal_sum_loop(alpha, X):
    """The literal double loop over 1 <= u1, u2 <= 2X in exact 128-bit
    integers, summed with math.fsum."""
    terms = []
    for u1 in range(1, 2 * X + 1):
        for u2 in range(1, 2 * X + 1):
            c = (6 * u1 * u2 * alpha.frac) % SCALE
            d = min(c, SCALE - c)
            terms.append(float(X) if d == 0 else min(float(X), SCALE / d))
    return math.fsum(terms)


def test_reciprocal_sum_matches_the_scalar_loop():
    rng = random.Random(61)
    # rational alphas put some or all of the distances at exactly 0
    rationals = [FixedPhase(0), FixedPhase.from_rational(1, 2), FixedPhase.from_rational(1, 3),
                 FixedPhase.from_rational(5, 12), FixedPhase.from_rational(3, 7)]
    for X in (1, 2, 3, 7, 20, 40):
        for alpha in rationals + [FixedPhase(rng.getrandbits(128)) for _ in range(3)]:
            want = _reciprocal_sum_loop(alpha, X)
            assert reciprocal_sum_bound(alpha, X) == pytest.approx(want, rel=1e-12, abs=0)


def test_fourth_moment_majorized_by_reciprocal_sum():
    # empirical constant for the minimum-distance majorant; calibrated C = 64
    rng = random.Random(53)
    for X in (5, 10, 20, 40):
        for _ in range(10):
            a = FixedPhase(rng.getrandbits(128))
            assert beta_fourth_moment(a, X) <= 64 * reciprocal_sum_bound(a, X)
