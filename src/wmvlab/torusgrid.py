"""FFT quadrature for moments of |g| on the 2-torus.

One beta row at a time: place the linear phases e(beta x) in buckets
indexed by x^3 (distinct and below Malpha > 2X^3), and a single inverse FFT
of length Malpha yields |g| at every alpha grid point of that row.  Memory
stays O(Malpha); the full 2-D grid is never materialized.

Most rows repeat others: conjugation gives |g(-alpha, -beta)| = |g|, and
x^3 = x (mod 6) gives g(alpha + k/6, beta - k/6) = g.  With d = gcd(6,
Malpha, Mbeta) the grid admits the shifts by k/d, so one row stands for its
orbit under j -> -j and j -> j - k*Mbeta/d: Mbeta/(2d) + 1 rows when
2d | Mbeta, so Mbeta/12 + 1 on the exact even grids, which 6 divides, and
Mbeta/4 + 1 on the power-of-two ladder anchors.  Each member is the
representative row mirrored and shifted in alpha, so an orbit's alpha
spectrum lives on m = 0 (mod d), where it is the spectrum of the row folded
to length Malpha/d.

Minor-arc restrictions act on that spectrum: the minor-arc indicator has
Fourier coefficients [m == 0] - K_Q(m) (arcs.major_kernel), so a masked mean
is the folded rows' spectrum against them, not a sum over grid points that
cut each arc edge.  For even s the integrand |g|^s is a trigonometric
polynomial with alpha frequencies bounded by (s/2)X^3 and beta frequencies
by (s/2)X, so the plain grid mean is the exact integral once the grid
exceeds those band limits, and with Malpha > sX^3 the alpha spectrum is not
aliased, so the masked mean is exact too.

One driver, _refine, picks, prices and sums every grid.  Even s is exact
in one level, on the least grid past its band limits whose sides 6 divides
(Malpha = 2^a 3^b past sX^3 when masked).  Odd s, masked or not, anchors
its ladder on the power-of-two grid past the band limits of the next even
moment s + 1 and is refined until successive levels agree, each comparison
costing one new grid: it starts at 3/4 of the anchor, confirms at 9/8 of
it, both grids folded by all six shifts, and steps by 4/3 where 9 | Malpha
and by 3/2 elsewhere, so each confirming grid is not nested in the one it
checks.  The reported error is the last step's delta, a heuristic and
labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .arcs import major_kernel

RealLike = Union[int, float, str, Fraction]

MALPHA_GUARD = 1 << 28
GRID_POINTS_GUARD = 1 << 30  # computed rows x Malpha of one level (~85 s)


@dataclass(frozen=True)
class GridSpec:
    """Grid sizes for one quadrature level.

    The floors Malpha >= 2X^3+1, Mbeta >= 2X+1 keep |g|^2 below Nyquist on
    any grid this type admits; the auto-choosers round the band limits of
    _band_limits up, auto_spec_even to sides that 6 divides and
    auto_spec_start to powers of two.
    """

    Malpha: int
    Mbeta: int
    X: int

    def __post_init__(self) -> None:
        if self.X < 1:
            raise ValueError("X must be positive")
        if self.Malpha < 2 * self.X ** 3 + 1:
            raise ValueError("Malpha below the 2X^3+1 floor")
        if self.Mbeta < 2 * self.X + 1:
            raise ValueError("Mbeta below the 2X+1 floor")


@dataclass(frozen=True)
class MomentEstimate:
    """A quadrature result on the grid `spec`.  exact=True for an even
    moment, masked or not, on its band-limited grid, where err_est is 0;
    otherwise err_est is the last refinement step's delta, a heuristic rather
    than a bound, and converged says whether it came within tol before the
    grid guards.
    `levels` is the ladder's history, one (Malpha, Mbeta, value, delta) per
    level with delta None on the first; the last entry is `spec`'s."""

    value: float
    err_est: float
    exact: bool
    spec: GridSpec
    converged: bool = True
    levels: Tuple[Tuple[int, int, float, Optional[float]], ...] = ()


def _pow2_at_least(n: int) -> int:
    return 1 << max(0, (int(n) - 1).bit_length())


def _smooth_above(n: int) -> int:
    """Least 2^a 3^b > n with a, b >= 1, so 6 divides it."""
    return min(3 ** b * _pow2_at_least(max(2, n // 3 ** b + 1))
               for b in range(1, n.bit_length() + 2))


def _band_limits(X: int, s: int) -> Tuple[int, int]:
    """(alpha, beta) limits that a grid must strictly exceed for the even
    moment s to be exact: |g|^s has alpha frequencies below (s/2)X^3 and beta
    frequencies below (s/2)X, and the GridSpec floors ask for 2X^3 and 2X."""
    h = max(2, s // 2)
    return h * X ** 3, h * X


def auto_spec_even(X: int, s: int) -> GridSpec:
    """Least grid past the band limits of the even moment s whose sides 6
    divides: Malpha = 2^a 3^b and Mbeta a multiple of 6, so every level folds
    by all six shifts and has Mbeta/12 + 1 rows."""
    ma, mb = _band_limits(X, s)
    return GridSpec(_smooth_above(ma), 6 * (mb // 6 + 1), X)


def auto_spec_start(X: int, s: int) -> GridSpec:
    """Anchor of an odd refinement ladder: the power-of-two grid past the
    band limits of the next even moment s + s % 2, where |g|^(s + s % 2) is
    exact.  _refine starts odd ladders at 3/4 of it."""
    ma, mb = _band_limits(X, s + s % 2)
    return GridSpec(_pow2_at_least(ma + 1), _pow2_at_least(mb + 1), X)


def amplitude_row(X: int, spec: GridSpec, j_beta: int) -> np.ndarray:
    """|g(i/Malpha, j_beta/Mbeta; X)| for all i, via one inverse FFT.

    g at the row's grid points is sum_x e(j x / Mbeta) e(i x^3 / Malpha);
    placing the x-weights at index x^3 makes the i-dependence a pure
    inverse DFT (numpy's backward normalization supplies 1/Malpha, undone by
    the Malpha factor below).
    """
    if X != spec.X:
        raise ValueError("X disagrees with spec.X")
    if not 0 <= j_beta < spec.Mbeta:
        raise ValueError("j_beta out of range")
    if spec.Malpha > MALPHA_GUARD:
        raise ValueError("Malpha exceeds the 2^28 memory guard")
    return np.abs(spec.Malpha * np.fft.ifft(_bucket_row(X, spec, j_beta)))


def _bucket_row(X: int, spec: GridSpec, j_beta: int) -> np.ndarray:
    x = np.arange(1, X + 1, dtype=np.int64)
    angles = 2.0 * np.pi * ((j_beta * x) % spec.Mbeta) / spec.Mbeta
    bucket = np.zeros(spec.Malpha, dtype=np.complex128)
    # GridSpec's floor Malpha >= 2X^3 + 1: every x^3 is its own bucket
    bucket[x * x * x] = np.exp(1j * angles)
    return bucket


def _amp_power(row: np.ndarray, s: int) -> np.ndarray:
    """row**s for row = |g| >= 0, by a squaring chain on row^2 (cheap numpy
    multiplies instead of per-element pow)."""
    p = row * row
    e = s // 2
    acc = None
    base = p
    while e:
        if e & 1:
            acc = base if acc is None else acc * base
        e >>= 1
        if e:
            base = base * base
    if acc is None:
        acc = np.ones_like(row)
    return acc * row if s % 2 else acc


def _shift_order(spec: GridSpec) -> int:
    """d = gcd(6, Malpha, Mbeta): the grid admits the shifts
    g(alpha + k/d, beta - k/d) = g(alpha, beta), k = 0..d-1."""
    return math.gcd(6, spec.Malpha, spec.Mbeta)


def _row_orbits(spec: GridSpec) -> List[Tuple[int, int]]:
    """(least row, size) of each beta-row orbit under j -> -j and
    j -> j - k*Mbeta/d, d = _shift_order(spec).  The shifts leave j mod
    step = Mbeta/d, so an orbit is the residues r and -r mod step, least
    row r <= step/2; a shift fixes no row, so its size is d when r = -r
    (mod step) and 2d otherwise."""
    d = _shift_order(spec)
    step = spec.Mbeta // d
    return [(r, d if 2 * r % step == 0 else 2 * d) for r in range(step // 2 + 1)]


def _grid_means(X: int, s: int, spec: GridSpec, cutoffs: Sequence[Optional[Fraction]],
                orbits: List[Tuple[int, int]]) -> List[float]:
    """Mean of |g|^s over the grid for each of `cutoffs`: the minor arcs at
    Q, or None for the whole grid, summing one row per orbit of `orbits`
    (_row_orbits(spec)).  With no cutoff each orbit adds its size times the
    row sum, added with math.fsum, so results are run-to-run identical for a
    given spec.  With any, each row folded to length L = Malpha/d is added,
    times its orbit size, into one accumulator, whose rfft bin k is the
    grid's alpha spectrum at m = d*k, real since orbits are mirror closed.
    Each cutoff's mean is that spectrum against the minor-arc coefficients
    [m == 0] - K_Q(m), weighted 2 off bin 0 and the Nyquist bin."""
    d = _shift_order(spec)
    L = spec.Malpha // d
    masked = any(T is not None for T in cutoffs)
    acc, sums = np.zeros(L), []
    for j, size in orbits:
        vals = _amp_power(amplitude_row(X, spec, j), s)
        if masked:
            acc += size * vals.reshape(d, L).sum(0)
        else:
            sums.append(size * float(vals.sum()))
    points = spec.Malpha * spec.Mbeta
    if not masked:
        return [math.fsum(sums) / points] * len(cutoffs)
    k = np.arange(L // 2 + 1)
    weighted = np.fft.rfft(acc).real * np.where((k == 0) | (2 * k == L), 1.0, 2.0)
    out = []
    for T in cutoffs:
        minor = (k == 0) - (0.0 if T is None else major_kernel(T, X, d * k))
        # einsum, not BLAS: its sum does not depend on the thread count
        out.append(float(np.einsum("i,i->", weighted, minor)) / points)
    return out


def _next_level(spec: GridSpec) -> GridSpec:
    """The grid that confirms `spec` on an odd ladder: both sides step by 4/3
    when 9 | Malpha and by 3/2 otherwise, so the confirming grid is not
    nested in the one it checks and has about 2.25x (or 1.78x) the points,
    not 4x.  From the start at 3/4 of auto_spec_start that is 9/8 of it
    next; where the anchor's Mbeta is at least 16, 6 divides both sides of
    both grids, so both fold by all six shifts.  At X = 1, where |g| = 1
    everywhere, sizes round down."""
    num, den = (4, 3) if spec.Malpha % 9 == 0 else (3, 2)
    return GridSpec(spec.Malpha * num // den, spec.Mbeta * num // den, spec.X)


def _refine(X: int, s: int, cutoffs: Sequence[Optional[Fraction]], tol: float
            ) -> List[MomentEstimate]:
    """The quadrature driver: means of |g|^s over the minor arcs at each
    cutoff Q (None: the whole torus), one MomentEstimate per cutoff on a
    common final grid, by _grid_means on one row per orbit of _row_orbits.

    Even s is exact in one level (err_est 0).  Unmasked, that level is
    auto_spec_even(X, s); masked, its Malpha is the least 2^a 3^b past
    s X^3, which keeps the alpha spectrum of |g|^s unaliased, so its
    Fourier-side mask is exact too.  6 divides both sides either way, so the
    level folds by all six shifts.  Odd s, masked or not, starts at 3/4 of
    auto_spec_start(X, s) on both sides, where the GridSpec floors admit
    it, and so confirms at 9/8 of it; it steps by _next_level until each
    value is within tol of the last level's, and carries that delta as
    err_est.  Each estimate's `levels` holds every level.

    A level past MALPHA_GUARD, or whose computed rows x Malpha pass
    GRID_POINTS_GUARD, is not run: the last level's values, deltas and spec
    come back with converged=False.  If that leaves no exact level, or fewer
    than two levels to compare, the driver raises instead."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if not tol > 0:  # also refuses a NaN tol, which no delta would meet
        raise ValueError("tol must be positive")
    if not cutoffs:
        return []
    exact = s % 2 == 0
    if exact:
        spec = auto_spec_even(X, s)
        if any(T is not None for T in cutoffs):  # Malpha > s X^3: no aliasing
            spec = GridSpec(_smooth_above(s * X ** 3), spec.Mbeta, X)
    else:  # at 3/4 of the anchor, if the GridSpec floors admit it
        spec = auto_spec_start(X, s)
        ma, mb = 3 * spec.Malpha // 4, 3 * spec.Mbeta // 4
        if ma > 2 * X ** 3 and mb > 2 * X:
            spec = GridSpec(ma, mb, X)
    levels: List[Tuple[GridSpec, List[float], Optional[List[float]]]] = []
    converged = False
    while spec.Malpha <= MALPHA_GUARD:
        orbits = _row_orbits(spec)
        if len(orbits) * spec.Malpha > GRID_POINTS_GUARD:
            break
        new = _grid_means(X, s, spec, cutoffs, orbits)
        errs = [abs(v - p) / max(abs(v), 1e-300)
                for v, p in zip(new, levels[-1][1])] if levels else None
        levels.append((spec, new, errs))
        if exact or errs and max(errs) <= tol:
            converged = True
            break
        spec = _next_level(spec)
    if not converged and len(levels) < 2:  # no exact level and no delta
        raise ValueError(f"{'second' if levels else 'first'} grid level "
                         f"{spec.Malpha:,} x {spec.Mbeta:,} exceeds the 2^28 Malpha "
                         f"or 2^30 points guard")
    spec, values, errs = levels[-1]
    return [MomentEstimate(v, errs[i] if errs else 0.0, exact, spec, converged,
                           tuple((sp.Malpha, sp.Mbeta, vs[i], None if es is None else es[i])
                                 for sp, vs, es in levels))
            for i, v in enumerate(values)]


def moment_estimate(X: int, s: int, tol: float) -> MomentEstimate:
    """I_s(X) for every integer s >= 1, by the driver _refine.

    Even s is one band-limited grid, flagged exact, with no refinement and
    tol unused.  Odd s starts at 3/4 of auto_spec_start(X, s) where the
    GridSpec floors admit it, is refined on grids stepped by 3/2 and 4/3 in
    turn (so it first confirms at 9/8 of auto_spec_start) and carries the
    last step's delta as its heuristic error."""
    return _refine(X, s, [None], tol)[0]


def even_moment_exact(X: int, s: int) -> MomentEstimate:
    """The s-th moment (s even) by band-limited quadrature: moment_estimate's
    one exact level, exact up to floating-point roundoff, behind the same
    grid guards as every ladder."""
    if s < 2 or s % 2:
        raise ValueError("s must be a positive even integer")
    return _refine(X, s, [None], math.inf)[0]


def arc_mask(spec: GridSpec, Q: RealLike, X: int) -> np.ndarray:
    """Boolean vector over the alpha grid: True where i/Malpha is minor at
    cutoff Q.  Arc membership |q*alpha - a| <= Q/X^3 is evaluated in exact
    rational arithmetic, so the mask agrees with pointwise classification."""
    if X < 1:
        raise ValueError("X must be positive")
    T = Fraction(Q)
    if T < 1 or T * T > X ** 3:
        raise ValueError("Q must lie in [1, X^(3/2)]")
    width = T / X ** 3
    M = spec.Malpha
    minor = np.ones(M, dtype=bool)
    for q in range(1, int(T) + 1):
        for a in range(0, q + 1):
            if math.gcd(a, q) != 1:
                continue
            lo = math.ceil((a - width) * M / q)
            hi = math.floor((a + width) * M / q)
            if lo < 0:
                lo = 0
            if hi > M - 1:
                hi = M - 1
            if lo <= hi:
                minor[lo:hi + 1] = False
    return minor


def restricted_profile(X: int, s: int, Qs: Sequence[RealLike],
                       tol: float) -> List[MomentEstimate]:
    """Minor-arc moments I_s^*(X; Q), 1 <= Q <= X: the integral of |g|^s over
    the alpha minor at (Q, X), by _refine with the mask on the Fourier side.
    Even s is exact in one level whose Malpha = 2^a 3^b exceeds s X^3
    (exact=True, err_est 0); odd s is refined on one shared ladder until
    the worst cutoff stabilizes.  Rows are computed once per level and
    re-used for every cutoff, so the values share a final grid.  Larger Q
    never yields a larger value in exact arithmetic, since the major arcs
    nest.  At X = 1 the one arc covers the circle and the value is 0.
    Empty Qs: []."""
    fracs = [Fraction(Q) for Q in Qs]
    for T in fracs:
        if T < 1 or T > X:
            raise ValueError("each Q must lie in [1, X]")
    return _refine(X, s, fracs, tol)
