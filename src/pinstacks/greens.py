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

All functions here are pure and reentrant; evaluation is safe to parallelize
from caller code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    n_self applies on the source line y = 0 where convergence is cubic and
    slow; n_far applies off the line where the evanescent factors make a
    short window sufficient.  Evaluation refuses any point where a retained
    order satisfies |chi_n| <= lightline_tol * beta.
    """

    n_self: int = 1000
    n_far: int = 20
    lightline_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.n_far < 1 or self.n_self < self.n_far:
            raise ValueError("require n_self >= n_far >= 1")
        if not self.lightline_tol > 0.0:
            raise ValueError("lightline_tol must be positive")


DEFAULT_POLICY = TruncationPolicy()


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

    With lightline_tol (real input only) the sum raises LightLineProximity
    when a retained order has |chi_n| <= lightline_tol * beta.
    """
    n = np.arange(-n_terms, n_terms + 1)
    alpha = alpha0 + (TWO_PI / d) * n
    b2 = beta * beta
    w = b2 - alpha * alpha
    propagating = np.abs(np.real(alpha)) < np.real(beta)
    chi = np.where(propagating, np.sqrt(w + 0j), 1j * np.sqrt(-w + 0j))
    if lightline_tol is not None and np.min(np.abs(chi)) <= lightline_tol * beta:
        raise LightLineProximity(
            f"order within {lightline_tol:g}*beta of a light line at "
            f"(alpha0={alpha0:.9g}, beta={beta:.9g})"
        )
    tau = np.sqrt(b2 + alpha * alpha + 0j)
    ay = abs(y)
    phase = np.exp(1j * alpha * x)
    helmholtz = np.exp(1j * chi * ay) / (2j * d * chi)
    modified = np.exp(-tau * ay) / (2.0 * d * tau)
    # combine the two sums per order before accumulating: joint cubic decay
    return complex(-(phase * (helmholtz + modified)).sum() / (2.0 * b2))


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
    truncation window is policy.n_self on the source line (y = 0, where the
    pairwise-combined terms decay only cubically) and policy.n_far otherwise;
    n_terms overrides both.

    Raises LightLineProximity when any retained order is within
    lightline_tol * beta of its light line, NonFiniteValue if the
    accumulation is not finite.
    """
    if n_terms is None:
        n_terms = policy.n_self if y == 0.0 else policy.n_far
    value = _lattice_sum(point.alpha0, point.beta, point.d, x, y, n_terms,
                         policy.lightline_tol)
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise NonFiniteValue(
            f"Green's function accumulation not finite at (x={x}, y={y})"
        )
    return value
