"""Quasi-periodic Green's function for flexural waves on a thin plate.

The displacement Green's function of the biharmonic operator
``Delta^2 - beta^4`` for a 1D-periodic row of sources with period ``d`` and
Bloch parameter ``alpha0`` is evaluated in its plane-wave (spectral) form

    G(x, y) = -(1 / 2 beta^2) * [  (1 / 2 i d) * sum_n exp(i alpha_n x + i chi_n |y|) / chi_n
                                 + (1 / 2 d)   * sum_n exp(i alpha_n x) exp(-tau_n |y|) / tau_n ],

with

    alpha_n = alpha0 + 2 pi n / d,
    chi_n   = sqrt(beta^2 - alpha_n^2)   (positive real when propagating,
                                          +i sqrt(alpha_n^2 - beta^2) otherwise),
    tau_n   = sqrt(beta^2 + alpha_n^2).

The first (Helmholtz-type) sum carries the propagating orders; the second
(modified) sum is evanescent everywhere.  Individually the two sums converge
only harmonically on the source line y = 0, but their order-by-order
combination decays like |alpha_n|^-3, so terms are always paired per order n
before accumulation.  The time convention is exp(-i omega t), which makes
exp(+i chi_n |y|) outgoing.

On the column x = 0 (every self-term and every stacked-pin entry) the
orders past the window are summed in closed form (Kummer's transformation;
Linton, SIAM Rev. 52, 2010): their paired terms expand in odd powers of
beta^2 / alpha_n^2, and the kept terms, damped by exp(-|alpha_n| |y|), sum to
Hurwitz-zeta-like series evaluated by Euler-Maclaurin for real or complex
(alpha0, beta).  A 20-order window then gives G(0, y) to rounding at every
y, continuously as y -> 0.  Only on the source line at x != 0, where no
closed form applies, does the long window policy.n_self remain.

All functions here are pure and reentrant; evaluation is safe to parallelize
from caller code.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from .errors import LightLineProximity, NonFiniteValue

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpectralPoint:
    """A (Bloch parameter, spectral parameter) pair for a grating of period d.

    beta is the flexural wave parameter, beta^2 = omega sqrt(rho h / D);
    alpha0 is the Bloch wavenumber along the grating.
    """

    alpha0: float
    beta: float
    d: float = 1.0

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.d > 0.0:
            raise ValueError(f"period d must be positive, got {self.d}")


@dataclass(frozen=True)
class OrderQuantities:
    """Per-order wavenumbers of the spectral expansion."""

    n: int
    alpha_n: float
    chi_n: complex
    tau_n: float

    @property
    def propagating(self) -> bool:
        # chi_n is either positive real (propagating) or positive imaginary
        return self.chi_n.imag == 0.0


@dataclass(frozen=True)
class TruncationPolicy:
    """Symmetric truncation window n in [-N, N] plus the light-line guard.

    n_far is the window wherever the sum converges fast: off the source line,
    where the evanescent factors cut it off, and on the column x = 0 at any
    y, where the orders past the window enter through a closed-form Kummer
    tail.  n_self is the window only on the source line at x != 0
    (y = 0), where no closed form exists and the pairwise-combined terms
    decay cubically.  No window falls below the kernel's minimum (see
    window).  Evaluation refuses any point where a retained order satisfies
    |chi_n| <= lightline_tol * beta.
    """

    n_self: int = 1000
    n_far: int = 20
    lightline_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.n_far < 1 or self.n_self < self.n_far:
            raise ValueError("require n_self >= n_far >= 1")
        if not self.lightline_tol > 0.0:
            raise ValueError("lightline_tol must be positive")

    def window(self, alpha0: complex, beta: complex, d: float, x: float,
               y: float, n_terms: int | None = None) -> int:
        """The window N the kernel sums at (x, y) for this (alpha0, beta, d).

        n_terms if given, else n_self on the source line at x != 0 and n_far
        everywhere else; raised to the smallest window past which every
        order is evanescent with |alpha_n| >= 4 |beta| (at x = 0, where
        the closed-form tail needs it, 16 |beta| and Hurwitz arguments of
        at least 10).
        """
        if n_terms is None:
            n_terms = self.n_self if y == 0.0 and x != 0.0 else self.n_far
        return max(n_terms, _min_window(alpha0, beta, d, x))


DEFAULT_POLICY = TruncationPolicy()


# Kummer's transformation at x = 0.  Past the window every order is
# evanescent; with a = +-alpha_n (Re a > 0) its paired term
#     (1/2d) [exp(-tau |y|) / tau - exp(-kappa |y|) / kappa],
#     tau = sqrt(a^2 + beta^2),  kappa = sqrt(a^2 - beta^2),
# is odd in beta^2, with k-th Taylor term
#     -(1/d) exp(-a |y|) theta_k(a |y|) beta^(2k) / (2^k k! a^(2k+1)),
# theta_k(z) = sum_j (k+j)! / (2^j j! (k-j)!) z^(k-j) the reverse Bessel
# polynomial (theta_k(0) = (2k-1)!!).  The terms k = 1, 3 are kept; each
# (k, j) piece is (p, power of |y|, power of beta^2 past beta^2, coef) for
# G's share coef |y|^(k-j) beta^(2k-2) / (2 d a^p), p = k + j + 1.
_KUMMER_TERMS = tuple(
    (k + j + 1, k - j, k - 1,
     math.factorial(k + j) / (2**j * math.factorial(j) * math.factorial(k - j))
     / (2**k * math.factorial(k)))
    for k in (1, 3) for j in range(k + 1)
)
_KUMMER_LINE = tuple(t for t in _KUMMER_TERMS if t[1] == 0)   # y = 0: p = 3, 7
# Euler-Maclaurin weights B_2j / (2j)!, j = 1..5
_EM_WEIGHTS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
               1.0 / 47900160.0)
_EM_DERIVS = 2 * len(_EM_WEIGHTS)
_BINOM = tuple(tuple(math.comb(m, i) for i in range(m + 1))
               for m in range(_EM_DERIVS))
# Hurwitz zeta(p, q) = q^(1-p) [1/(p-1) + 1/(2q) + sum_j B_2j/(2j)! (p)_(2j-1) q^-2j];
# the sum's coefficients, highest j first, for Horner in q^-2
_ZETA_EM = {p: tuple(reversed([w * math.prod(range(p, p + 2 * j + 1))
                               for j, w in enumerate(_EM_WEIGHTS)]))
            for p, _, _, _ in _KUMMER_LINE}
_GUARD_REACH = 4.0       # least |alpha_n| / |beta| past any window
_TAIL_REACH = 16.0       # least |alpha_n| / |beta| past the window at x = 0
_EM_START = 10.0         # least Hurwitz argument q at x = 0
_DAMPING_CUTOFF = 40.0   # exp(-40) is below the rounding of any G


def _min_window(alpha0: complex, beta: complex, d: float, x: float) -> int:
    """Smallest window N the kernel sums: the rule under every window.

    Past it every order is evanescent with |alpha_n| >= 4 |beta|, so the
    light-line guard sees every order near its light line.  At x = 0 the
    Kummer tail needs more: |alpha_n| >= 16 |beta|, where the first omitted
    term, (beta / alpha_n)^8 below the kept ones, is at rounding level
    (1e-14 relative at beta = 25 with eight propagating orders), and zeta
    arguments q >= 10, where five Euler-Maclaurin corrections are exact to
    rounding.
    """
    if x == 0.0:
        reach = max(_TAIL_REACH * abs(beta), TWO_PI * _EM_START / d)
    else:
        reach = _GUARD_REACH * abs(beta)
    return max(1, math.ceil((reach + abs(alpha0)) * d / TWO_PI) - 1)


def _hurwitz_zeta(p: int, q: complex) -> complex:
    """zeta(p, q) = sum_{m>=0} (q + m)^-p by Euler-Maclaurin, Re q >= 10.

    p is one of the tail's powers on the line (3 or 7).  scipy's zeta takes
    only real q; this is analytic in q, so the pole search's complex
    (alpha0, beta) take the same path as real input.
    """
    r = 1.0 / q
    r2 = r * r
    acc = 0.0
    for coef in _ZETA_EM[p]:
        acc = acc * r2 + coef
    return r ** (p - 1) * (1.0 / (p - 1) + r * (0.5 + r * acc))


def _damped_sum(weights: list[tuple[int, complex]], q: complex,
                c: float) -> complex:
    """sum_{m>=0} exp(-c (q + m)) sum_p w_p (q + m)^-p by Euler-Maclaurin.

    The damped analogue of _hurwitz_zeta (c > 0): the integral is
    sum_p w_p q^(1-p) E_p(c q), with E_p from scipy's exp1 (complex
    arguments allowed) by upward recurrence.
    """
    r = 1.0 / q
    alg = [0.0] * _EM_DERIVS      # m-th u-derivative of sum_p w_p u^-p at q
    for p, w in weights:
        t = w * r ** p
        for m in range(_EM_DERIVS):
            alg[m] += t
            t *= -(p + m) * r
    z = c * q
    ez = cmath.exp(-z)
    e_p, order = complex(exp1(z)), 1
    integral = 0.0
    for p, w in weights:
        while order < p:
            e_p, order = (ez - z * e_p) / order, order + 1
        integral += w * r ** (p - 1) * e_p
    # Leibniz: derivatives of exp(-c u) times the algebraic part
    h = [ez * sum(b * (-c) ** (m - i) * alg[i] for i, b in enumerate(row))
         for m, row in enumerate(_BINOM)]
    return (integral + 0.5 * h[0]
            - sum(wj * h[2 * j + 1] for j, wj in enumerate(_EM_WEIGHTS)))


def _kummer_tail(alpha0: complex, beta: complex, d: float, y: float,
                 n_terms: int) -> complex:
    """G's share of every order |n| > n_terms at x = 0, in closed form.

    Order +-(n_terms + 1 + m) has a = (2 pi / d)(q +- m) with
    q = n_terms + 1 +- alpha0 d / (2 pi), and exp(-a |y|) = exp(-c (q + m))
    with c = 2 pi |y| / d.
    """
    ay = abs(y)
    c = TWO_PI * ay / d
    shift = alpha0 * d / TWO_PI
    qs = (n_terms + 1 + shift, n_terms + 1 - shift)
    if c * min(qs[0].real, qs[1].real) > _DAMPING_CUTOFF:
        return 0.0
    b2 = beta * beta
    s = d / TWO_PI
    if not ay:
        total = 0.0
        for p, _, b_pow, coef in _KUMMER_LINE:
            total += (coef * b2**b_pow * s**p
                      * (_hurwitz_zeta(p, qs[0]) + _hurwitz_zeta(p, qs[1])))
        return total / (2.0 * d)
    weights = [(p, coef * ay**y_pow * b2**b_pow * s**p / (2.0 * d))
               for p, y_pow, b_pow, coef in _KUMMER_TERMS]
    return _damped_sum(weights, qs[0], c) + _damped_sum(weights, qs[1], c)


@functools.lru_cache(maxsize=32)
def _order_offsets(n_terms: int, d: float) -> np.ndarray:
    """alpha_n - alpha0 = 2 pi n / d for n in [-n_terms, n_terms], read-only."""
    offsets = (TWO_PI / d) * np.arange(-n_terms, n_terms + 1)
    offsets.flags.writeable = False
    return offsets


def _lattice_sum(alpha0: complex, beta: complex, d: float, x: float, y: float,
                 n_terms: int, lightline_tol: float | None = None) -> complex:
    """The spectral sum for possibly complex (alpha0, beta).

    Each order keeps the analytic continuation of its real-axis branch:
    chi_n = sqrt(beta^2 - alpha_n^2) for orders propagating on the real axis
    and i sqrt(alpha_n^2 - beta^2) for evanescent ones.  Both forms are
    analytic across the axis (their principal-branch cuts sit on the light
    lines), which lets resonance searches follow a dispersion factor onto
    the leaky-mode sheet at Im(beta) < 0.  On real input this reproduces the
    physical branch exactly.

    The window is n_terms, raised to _min_window; at x = 0 the orders past
    it are added in closed form by _kummer_tail, so the value is converged
    at any y.

    With lightline_tol (real input only) the sum raises LightLineProximity
    when a retained order has |chi_n| <= lightline_tol * beta.
    """
    n_terms = max(n_terms, _min_window(alpha0, beta, d, x))
    alpha = (alpha0 + 0j) + _order_offsets(n_terms, d)
    b2 = beta * beta
    a2 = alpha * alpha
    w = b2 - a2
    propagating = np.abs(alpha.real) < beta.real
    root = np.sqrt(np.where(propagating, w, -w))
    chi = np.where(propagating, root, 1j * root)
    # |chi_n|^2 = |beta^2 - alpha_n^2| on either branch
    if (lightline_tol is not None
            and np.min(np.abs(w)) <= (lightline_tol * beta) ** 2):
        raise LightLineProximity(
            f"order within {lightline_tol:g}*beta of a light line at "
            f"(alpha0={alpha0:.9g}, beta={beta:.9g})"
        )
    tau = np.sqrt(b2 + a2)
    # combine the two sums per order before accumulating: joint cubic decay
    ay = abs(y)
    if ay:
        terms = np.exp(-ay * tau) / tau - 1j * np.exp(1j * ay * chi) / chi
    else:
        terms = 1.0 / tau - 1j / chi
    if x:
        terms *= np.exp(1j * x * alpha)
    value = -complex(terms.sum()) / (4.0 * d * b2)
    if x == 0.0:
        value += _kummer_tail(alpha0, beta, d, y, n_terms)
    return value


def order_quantities(point: SpectralPoint, n: int) -> OrderQuantities:
    """Wavenumbers alpha_n, chi_n, tau_n of diffraction order n."""
    alpha_n = point.alpha0 + TWO_PI * n / point.d
    b2 = point.beta * point.beta
    a2 = alpha_n * alpha_n
    if a2 <= b2:
        chi_n = complex(np.sqrt(b2 - a2), 0.0)
    else:
        chi_n = complex(0.0, np.sqrt(a2 - b2))
    return OrderQuantities(
        n=n, alpha_n=alpha_n, chi_n=chi_n, tau_n=float(np.sqrt(b2 + a2))
    )


def propagating_orders(point: SpectralPoint) -> list[int]:
    """All orders n with alpha_n^2 < beta^2 (real chi_n), ascending."""
    # alpha0 + 2 pi n / d in (-beta, beta)
    lo = int(np.ceil((-point.beta - point.alpha0) * point.d / TWO_PI))
    hi = int(np.floor((point.beta - point.alpha0) * point.d / TWO_PI))
    return [n for n in range(lo, hi + 1)
            if (point.alpha0 + TWO_PI * n / point.d) ** 2 < point.beta**2]


def greens(
    point: SpectralPoint,
    x: float,
    y: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    n_terms: int | None = None,
) -> complex:
    """Evaluate the quasi-periodic Green's function at (x, y).

    The source row sits at y = 0 with one source per period at x = 0.  The
    truncation window is policy.window(...): policy.n_far, plus the
    closed-form tail at x = 0, except on the source line at x != 0 (y = 0,
    where the pairwise-combined terms decay only cubically), which takes
    policy.n_self; n_terms overrides both, and no window falls below the
    kernel's minimum.

    Raises LightLineProximity when any retained order is within
    lightline_tol * beta of its light line, NonFiniteValue if the
    accumulation is not finite.
    """
    # plain floats: numpy scalar arithmetic would outweigh the short sum
    alpha0, beta = float(point.alpha0), float(point.beta)
    n_terms = policy.window(alpha0, beta, point.d, x, y, n_terms)
    value = _lattice_sum(alpha0, beta, point.d, x, y, n_terms,
                         policy.lightline_tol)
    if not cmath.isfinite(value):
        raise NonFiniteValue(
            f"Green's function accumulation not finite at (x={x}, y={y})"
        )
    return value
