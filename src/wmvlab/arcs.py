"""Major/minor arc dissection of the unit interval.

An angle is "major" at cutoff Q (for scale X) when some coprime a/q with
q <= Q lies within Q/X^3 of it in the |q*alpha - a| metric; everything else
is minor.  Membership is decided by scanning continued-fraction convergents
of the fixed-point angle, which is sufficient and finds the smallest
qualifying denominator:

  The smallest q with |q*alpha - a| <= delta beats every smaller q' strictly
  (those all exceed delta), so it is a best approximation of the second kind,
  and every such q is a convergent denominator.  Scanning convergents in
  increasing q therefore visits the minimal qualifying pair first, and a
  miss over all convergent denominators <= Q rules out every q <= Q.

All comparisons are exact: integer arithmetic on the 128-bit phase against
the rational threshold, with no floating-point rounding in the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .phase import SCALE, FixedPhase

RealLike = Union[int, float, str, Fraction]


@dataclass(frozen=True)
class RationalApprox:
    """A reduced fraction a/q with err = |q*alpha - a| for the angle that
    produced it; 0 <= a <= q and gcd(a, q) = 1."""

    a: int
    q: int
    err: float


@dataclass(frozen=True)
class ArcLabel:
    """Classification result: Major carries the witnessing approximation."""

    major: bool
    approx: Optional[RationalApprox] = None

    def __str__(self) -> str:
        if self.major and self.approx is not None:
            r = self.approx
            return f"Major(a={r.a}, q={r.q}, err={r.err:.6g})"
        return "Minor"


def _convergent_pairs(frac: int, qmax: int) -> Iterator[Tuple[int, int]]:
    """(a, q) continued-fraction convergents of frac/2^128 with q <= qmax,
    in strictly increasing q, starting from 0/1."""
    yield 0, 1
    if frac == 0:
        return
    u, v = SCALE, frac
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    while v:
        digit, r = divmod(u, v)
        u, v = v, r
        p_new = digit * p_cur + p_prev
        q_new = digit * q_cur + q_prev
        if q_new > qmax:
            return
        yield p_new, q_new
        p_prev, q_prev = p_cur, q_cur
        p_cur, q_cur = p_new, q_new


def _err_num(frac: int, a: int, q: int) -> int:
    """|q*alpha - a| scaled by 2^128; exact."""
    return abs(q * frac - (a << 128))


def convergents(alpha: FixedPhase, qmax: int) -> List[RationalApprox]:
    """All continued-fraction convergents of alpha with q <= qmax.

    qmax must satisfy 1 <= qmax < 2^63.  alpha = 0 yields just 0/1.
    """
    if not 1 <= qmax < (1 << 63):
        raise ValueError("qmax must satisfy 1 <= qmax < 2^63")
    frac = alpha.frac
    return [RationalApprox(a, q, _err_num(frac, a, q) / SCALE)
            for a, q in _convergent_pairs(frac, qmax)]


def dirichlet_approx(alpha: FixedPhase, N: int) -> RationalApprox:
    """The convergent a/q with the largest q <= N.

    Satisfies Dirichlet's guarantee |alpha - a/q| <= 1/(qN): the next
    convergent denominator exceeds N, and |q*alpha - a| < 1/q_next.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    frac = alpha.frac
    a = q = None
    for a, q in _convergent_pairs(frac, N):
        pass
    return RationalApprox(a, q, _err_num(frac, a, q) / SCALE)


def classify(alpha: FixedPhase, Q: RealLike, X: int) -> ArcLabel:
    """Major/minor label of alpha for the dissection at cutoff Q, scale X.

    Major means |q*alpha - a| <= Q/X^3 for some coprime 0 <= a <= q <= Q;
    the returned witness has the smallest such q.  Requires 1 <= Q <= X^1.5.
    """
    if X < 1:
        raise ValueError("X must be positive")
    T = Fraction(Q)
    if T < 1 or T * T > X ** 3:
        raise ValueError("Q must lie in [1, X^(3/2)]")
    frac = alpha.frac
    x3 = X ** 3
    qmax = int(T)
    # |q*alpha - a| <= Q/X^3, cleared of denominators
    for a, q in _convergent_pairs(frac, qmax):
        if _err_num(frac, a, q) * T.denominator * x3 <= T.numerator * SCALE:
            return ArcLabel(True, RationalApprox(a, q, _err_num(frac, a, q) / SCALE))
    return ArcLabel(False)


def psi(alpha: FixedPhase, X: int) -> float:
    """Arc weight 1/(q + X^3*|q*alpha - a|) at the arc of alpha in the
    dissection with cutoff X^1.5 / 2, and 0 off the arcs.

    The cutoff is irrational for most X, so the two membership tests are
    done on squares: q <= X^1.5/2 iff 4q^2 <= X^3, and
    |q*alpha - a| <= (X^1.5/2)/X^3 iff 4*err^2*X^3 <= 2^256.
    """
    if X < 1:
        raise ValueError("X must be positive")
    x3 = X ** 3
    qmax = math.isqrt(x3 // 4)
    if qmax < 1:
        return 0.0
    frac = alpha.frac
    for a, q in _convergent_pairs(frac, qmax):
        d = _err_num(frac, a, q)
        if 4 * d * d * x3 <= SCALE * SCALE:
            return SCALE / (q * SCALE + x3 * d)
    return 0.0


def _totients(n: int) -> List[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def major_measure(Q: RealLike, X: int) -> float:
    """Lebesgue measure of the union of major arcs at cutoff Q, scale X.

    Requires 2Q^2 <= X^3, under which the arcs are pairwise disjoint and the
    measure is exactly sum over q <= Q of phi(q) * 2Q/(q X^3); the two
    half-arcs at 0/1 and 1/1 glue into the single q = 1 arc on the torus.
    """
    if X < 1:
        raise ValueError("X must be positive")
    T = Fraction(Q)
    if T < 1:
        raise ValueError("Q must be >= 1")
    if 2 * T * T > X ** 3:
        raise ValueError("need 2Q^2 <= X^3 for disjoint arcs")
    qmax = int(T)
    phi = _totients(qmax)
    weight = sum(Fraction(phi[q], q) for q in range(1, qmax + 1))
    return float(2 * T * weight / X ** 3)


def _mobius(n: int) -> int:
    """The Moebius function mu(n), by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _ramanujan(q: int) -> np.ndarray:
    """c_q(r) for r = 0..q-1: the sum over e | gcd(q, r) of mu(q/e) e."""
    c = np.zeros(q, dtype=np.int64)
    for e in range(1, q + 1):
        if q % e == 0:
            c[::e] += _mobius(q // e) * e
    return c


def major_kernel(Q: RealLike, X: int, m) -> np.ndarray:
    """K_Q(m), the integral of e(m alpha) over the major arcs at cutoff Q,
    scale X, for each integer of the array m.  The arc at a/q has half-width
    Q/(q X^3), and e(ma/q) summed over coprime a is the Ramanujan sum c_q(m),
    so K_Q(m) = sum over q <= Q of c_q(m) sin(2 pi m Q/(q X^3))/(pi m), even
    in m, and K_Q(0) = major_measure(Q, X), whose guards apply.  The sine's
    argument is reduced exactly, m*Q mod q*X^3 in integers (Python ints where
    int64 would overflow).  At X = 1 the one arc covers the circle."""
    T = Fraction(Q)
    m = np.asarray(m, dtype=np.int64)
    if X == 1 and T >= 1:
        return (m == 0).astype(float)
    out = np.full(m.shape, major_measure(T, X))
    nz = m != 0
    mn = m[nz]
    x3, num, den, qmax = X ** 3, T.numerator, T.denominator, int(T)
    fits = int(np.abs(mn).max(initial=0)) * num < 1 << 63 and den * qmax * x3 < 1 << 63
    ints = mn if fits else mn.astype(object)
    acc = np.zeros(mn.shape)
    for q in range(1, qmax + 1):
        D = den * q * x3
        acc += _ramanujan(q)[mn % q] * np.sin(2 * np.pi * ((ints * num) % D).astype(float) / D)
    out[nz] = acc / (np.pi * mn)
    return out
