"""Plane-wave scattering of flexural waves by finite stacks of pinned gratings.

A stack is a finite list of pinned gratings with common period d, one pin per
period per grating.  An incident plane wave u_inc = exp(i(alpha0 x - chi0 y))
(travelling downward from y = +inf) drives point reactions A_j at the pins;
the pinned-plate conditions u(pin) = 0 give the linear system

    sum_j G(a_m - a_j) A_j = -u_inc(a_m),

with G the quasi-periodic Green's function.  Above and below the stack the
scattered field expands in plane-wave orders; the reflected and transmitted
amplitudes of propagating order n are

    r_n = i / (4 d beta^2 chi_n) * sum_j A_j exp(-i alpha_n x_j) exp(-i chi_n y_j),
    t_n = delta_n0 * amp + i / (4 d beta^2 chi_n) * sum_j A_j exp(-i alpha_n x_j) exp(+i chi_n y_j).

Energies are flux-normalized per order by chi_n / chi_0, so that the balance
sum_n (R_n + T_n) = 1 holds for the lossless pins; its residual is carried on
every spectrum record as a built-in accuracy check.

scan sweeps beta at a fixed angle or Bloch parameter; spectrum_scan and the
steering stages build on it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularSystem
from .greens import (
    DEFAULT_POLICY,
    SpectralPoint,
    TruncationPolicy,
    greens,
    propagating_orders,
)

_COND_LIMIT = 1e14


@dataclass(frozen=True)
class IncidentWave:
    """A propagating plane wave, specified by angle or Bloch parameter.

    direction "down" means incidence from y = +inf (the default); "up" from
    y = -inf.  alpha0 = beta sin(theta_i) and chi0 = beta cos(theta_i) satisfy
    alpha0^2 + chi0^2 = beta^2 by construction.
    """

    theta_i: float
    beta: float
    alpha0: float
    chi0: float
    amplitude: complex = 1.0 + 0.0j
    direction: str = "down"

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta_i < math.pi / 2:
            raise DomainError(f"theta_i must be in [0, pi/2), got {self.theta_i}")
        if self.direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up', got {self.direction!r}")

    @classmethod
    def from_angle(cls, theta_i: float, beta: float,
                   amplitude: complex = 1.0 + 0.0j,
                   direction: str = "down") -> "IncidentWave":
        return cls(theta_i=theta_i, beta=beta,
                   alpha0=beta * math.sin(theta_i), chi0=beta * math.cos(theta_i),
                   amplitude=amplitude, direction=direction)

    @classmethod
    def from_alpha0(cls, alpha0: float, beta: float,
                    amplitude: complex = 1.0 + 0.0j,
                    direction: str = "down") -> "IncidentWave":
        if not abs(alpha0) < beta:
            raise DomainError(
                f"|alpha0| = {abs(alpha0)} must be < beta = {beta} for a "
                "propagating incident wave"
            )
        return cls(theta_i=math.asin(alpha0 / beta), beta=beta, alpha0=alpha0,
                   chi0=math.sqrt(beta * beta - alpha0 * alpha0),
                   amplitude=amplitude, direction=direction)

    def field(self, x: float, y: float) -> complex:
        sign = -1.0 if self.direction == "down" else 1.0
        return self.amplitude * np.exp(1j * (self.alpha0 * x + sign * self.chi0 * y))


@dataclass(frozen=True)
class PinStack:
    """Pin positions of a finite stack, one representative pin per grating.

    Positions are (x, y) pairs in units of the period d.
    """

    pins: tuple[tuple[float, float], ...]
    d: float = 1.0

    def __post_init__(self) -> None:
        if not self.d > 0.0:
            raise ValueError(f"period d must be positive, got {self.d}")
        ys = [y for _, y in self.pins]
        if len(set(ys)) != len(ys):
            raise ValueError("one pin per grating: y positions must be distinct")

    @classmethod
    def single(cls, d: float = 1.0) -> "PinStack":
        return cls(pins=((0.0, 0.0),), d=d)

    @classmethod
    def pair(cls, eta: float, d: float = 1.0) -> "PinStack":
        """Two gratings separated by eta d, centered on y = 0."""
        return cls(pins=((0.0, eta / 2.0), (0.0, -eta / 2.0)), d=d)

    @classmethod
    def triplet(cls, eta: float, xi: float = 0.0, d: float = 1.0) -> "PinStack":
        """Outer gratings at y = +/- eta d, shifted central grating at (xi d, 0)."""
        return cls(pins=((0.0, eta), (xi, 0.0), (0.0, -eta)), d=d)


@dataclass(frozen=True)
class SpectrumRecord:
    """One spectral point of a scattering scan.

    R_orders / T_orders are flux-normalized energies per propagating order,
    R / T their sums, and energy_residual = |R + T - 1|.  For points where
    evaluation failed the totals are NaN and error holds the exception name.
    """

    alpha0: float
    beta: float
    R_orders: dict[int, float] = field(default_factory=dict)
    T_orders: dict[int, float] = field(default_factory=dict)
    R: float = float("nan")
    T: float = float("nan")
    energy_residual: float = float("nan")
    r_amplitudes: dict[int, complex] = field(default_factory=dict)
    t_amplitudes: dict[int, complex] = field(default_factory=dict)
    error: str | None = None


def solve_coefficients(
    stack: PinStack,
    inc: IncidentWave,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Pin reaction coefficients A_j solving the pinned-plate conditions.

    Raises SingularSystem when the interaction matrix condition number
    exceeds 1e14.
    """
    pins = stack.pins
    n = len(pins)
    if n == 0:
        return np.zeros(0, dtype=complex)
    point = SpectralPoint(inc.alpha0, inc.beta, stack.d)
    g = np.empty((n, n), dtype=complex)
    for m, (xm, ym) in enumerate(pins):
        for j, (xj, yj) in enumerate(pins):
            g[m, j] = greens(point, (xm - xj) * stack.d, (ym - yj) * stack.d, policy)
    u = np.array([inc.field(x * stack.d, y * stack.d) for x, y in pins])
    if n > 1 and np.linalg.cond(g) > _COND_LIMIT:
        raise SingularSystem(
            f"pin interaction matrix condition exceeds {_COND_LIMIT:g}"
        )
    return np.linalg.solve(g, -u)


def plane_wave_amplitudes(
    coeffs: np.ndarray,
    stack: PinStack,
    inc: IncidentWave,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[dict[int, complex], dict[int, complex]]:
    """Reflected and transmitted amplitudes of every propagating order.

    Returns (r, t) keyed by order index n.  The reflected side is the side
    the wave comes from; the transmitted amplitude includes the incident
    delta_n0 contribution.
    """
    point = SpectralPoint(inc.alpha0, inc.beta, stack.d)
    d = stack.d
    b2 = inc.beta * inc.beta
    orders = propagating_orders(point)
    xs = np.array([x * d for x, _ in stack.pins])
    ys = np.array([y * d for _, y in stack.pins])
    r: dict[int, complex] = {}
    t: dict[int, complex] = {}
    for n in orders:
        alpha_n = inc.alpha0 + 2.0 * math.pi * n / d
        chi_n = math.sqrt(b2 - alpha_n * alpha_n)
        if chi_n <= policy.lightline_tol * inc.beta:
            # propagating_orders guarantees chi_n > 0; guard the division anyway
            raise DomainError(f"order {n} grazes its light line")
        pref = 1j / (4.0 * d * b2 * chi_n)
        lateral = np.exp(-1j * alpha_n * xs)
        above = pref * np.sum(coeffs * lateral * np.exp(-1j * chi_n * ys))
        below = pref * np.sum(coeffs * lateral * np.exp(1j * chi_n * ys))
        if inc.direction == "down":
            r[n] = complex(above)
            t[n] = complex(below + (inc.amplitude if n == 0 else 0.0))
        else:
            r[n] = complex(below)
            t[n] = complex(above + (inc.amplitude if n == 0 else 0.0))
    return r, t


def scatter(
    stack: PinStack,
    inc: IncidentWave,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SpectrumRecord:
    """Solve one scattering problem and fold it into a SpectrumRecord."""
    coeffs = solve_coefficients(stack, inc, policy)
    r_amp, t_amp = plane_wave_amplitudes(coeffs, stack, inc, policy)
    a2 = abs(inc.amplitude) ** 2
    point = SpectralPoint(inc.alpha0, inc.beta, stack.d)
    r_orders = {}
    t_orders = {}
    for n in r_amp:
        chi_n = abs(np.sqrt(inc.beta**2
                            - (inc.alpha0 + 2.0 * math.pi * n / stack.d) ** 2))
        flux = chi_n / inc.chi0
        r_orders[n] = abs(r_amp[n]) ** 2 * flux / a2
        t_orders[n] = abs(t_amp[n]) ** 2 * flux / a2
    big_r = float(sum(r_orders.values()))
    big_t = float(sum(t_orders.values()))
    return SpectrumRecord(
        alpha0=point.alpha0, beta=point.beta,
        R_orders=r_orders, T_orders=t_orders,
        R=big_r, T=big_t, energy_residual=abs(big_r + big_t - 1.0),
        r_amplitudes=r_amp, t_amplitudes=t_amp,
    )


def _alpha0_rule(theta_i: float | None,
                 alpha0: float | None) -> Callable[[complex], complex]:
    """alpha0 as a function of beta for an incidence fixed along a scan.

    Exactly one of theta_i (fixed angle, alpha0 = beta sin theta_i) or alpha0
    (fixed Bloch parameter) selects the incidence; beta may be complex.
    """
    if (theta_i is None) == (alpha0 is None):
        raise ValueError("specify exactly one of theta_i, alpha0")
    if theta_i is None:
        return lambda beta: alpha0
    sin_theta = math.sin(theta_i)
    return lambda beta: beta * sin_theta


def _incident(beta: float, theta_i: float | None,
              alpha0: float | None) -> IncidentWave:
    """The incident wave at beta of an incidence checked by _alpha0_rule."""
    if theta_i is not None:
        return IncidentWave.from_angle(theta_i, beta)
    return IncidentWave.from_alpha0(alpha0, beta)


def transmittance(
    stack: PinStack,
    beta: float,
    *,
    theta_i: float | None = None,
    alpha0: float | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Total flux-normalized transmittance at one spectral point."""
    _alpha0_rule(theta_i, alpha0)  # exactly one incidence
    return scatter(stack, _incident(beta, theta_i, alpha0), policy).T


def scan(
    stack: PinStack,
    betas: Iterable[float],
    *,
    theta_i: float | None = None,
    alpha0: float | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> list[SpectrumRecord]:
    """scatter at each beta of betas, in order, for one incidence.

    Exactly one of theta_i (fixed angle, alpha0 = beta sin theta_i) or alpha0
    (fixed Bloch parameter), checked before any point is evaluated.  Per-point
    failures are recorded on the record, never raised.
    """
    alpha0_at = _alpha0_rule(theta_i, alpha0)
    records = []
    for beta in map(float, betas):
        try:
            records.append(scatter(stack, _incident(beta, theta_i, alpha0), policy))
        except Exception as exc:  # noqa: BLE001 - recorded per point
            records.append(SpectrumRecord(alpha0=alpha0_at(beta), beta=beta,
                                          error=type(exc).__name__))
    return records


def spectrum_scan(
    stack: PinStack,
    beta_range: tuple[float, float],
    *,
    theta_i: float | None = None,
    alpha0: float | None = None,
    resolution: int = 401,
    policy: TruncationPolicy = DEFAULT_POLICY,
    refine: bool = False,
    refine_jump: float = 0.1,
    min_step: float = 1e-12,
    max_points: int = 200_000,
) -> list[SpectrumRecord]:
    """Scan transmittance over beta, optionally refining sharp features.

    A uniform grid of resolution points over beta_range goes through scan,
    with the incidence as there.  With refine=True, intervals where
    |Delta T| > refine_jump are bisected until the jump falls below the
    threshold or the beta step reaches min_step.
    """
    opts = {"theta_i": theta_i, "alpha0": alpha0, "policy": policy}
    lo, hi = beta_range
    if not (hi > lo):
        raise ValueError("beta_range must satisfy hi > lo")
    betas = np.linspace(lo, hi, resolution)
    records = {r.beta: r for r in scan(stack, betas, **opts)}
    if refine:
        work = [(float(betas[i]), float(betas[i + 1]))
                for i in range(len(betas) - 1)]
        while work and len(records) < max_points:
            b_lo, b_hi = work.pop()
            if b_hi - b_lo <= 2.0 * min_step:
                continue
            t_lo, t_hi = records[b_lo].T, records[b_hi].T
            if math.isnan(t_lo) or math.isnan(t_hi):
                continue
            if abs(t_hi - t_lo) <= refine_jump:
                continue
            mid = 0.5 * (b_lo + b_hi)
            if mid not in records:
                records[mid], = scan(stack, [mid], **opts)
            work.append((b_lo, mid))
            work.append((mid, b_hi))
    return [records[b] for b in sorted(records)]


def single_grating_reflectance(
    point: SpectralPoint,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Zero-order reflectance R_g = |r_0|^2 of one pinned grating.

    The single-pin system solves in closed form, A_0 = -u_inc(0, 0) / G(0, 0);
    it is evaluated through the generic solver for consistency with the
    multi-grating scans.
    """
    rec = scatter(PinStack.single(point.d),
                  IncidentWave.from_alpha0(point.alpha0, point.beta),
                  policy)
    return rec.R_orders[0]


def fabry_perot_model(r_g: float, delta: float) -> float:
    """Two-mirror resonator transmittance 1 / (1 + F sin^2(delta/2)).

    F = 4 R_g / (1 - R_g)^2 is the finesse coefficient built from the
    single-grating reflectance; delta is the round-trip phase.  Requires
    0 <= R_g < 1.
    """
    if not 0.0 <= r_g < 1.0:
        raise DomainError(f"R_g must be in [0, 1), got {r_g}")
    f = 4.0 * r_g / (1.0 - r_g) ** 2
    return 1.0 / (1.0 + f * math.sin(delta / 2.0) ** 2)
