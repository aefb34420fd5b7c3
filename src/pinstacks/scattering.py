"""Plane-wave scattering of flexural waves by finite stacks of pinned gratings.

A stack is a finite list of pinned gratings with a common period, one pin
per period per grating, all lengths in units of that period.  An incident
plane wave u_inc = exp(i(alpha0 x - chi0 y)) (travelling downward from
y = +inf) drives point reactions A_j at the pins; the pinned-plate
conditions u(pin) = 0 give the linear system

    sum_j G(a_m - a_j) A_j = -u_inc(a_m),

with G the quasi-periodic Green's function.  Above and below the stack the
scattered field expands in plane-wave orders; the reflected and transmitted
amplitudes of propagating order n are

    r_n = i / (4 beta^2 chi_n) * sum_j A_j exp(-i alpha_n x_j) exp(-i chi_n y_j),
    t_n = delta_n0 * amp + i / (4 beta^2 chi_n) * sum_j A_j exp(-i alpha_n x_j) exp(+i chi_n y_j).

Energies are flux-normalized per order by chi_n / chi_0, so that the balance
sum_n (R_n + T_n) = 1 holds for the lossless pins; its residual is carried on
every spectrum record as a built-in accuracy check.

The batching contract is one stack, many waves, as columns.  A scan builds
its waves' columns from beta in one step (IncidentWave's checks and
messages applied per point).  The pin-interaction matrices of every wave
come from one call of greens._interaction_matrices (each distinct pin
offset summed once), whose per-wave errors are the one validation pass;
the systems solve as one (B, n, n) stack for the reactions and the inverse
together, every system, 1x1 included, faces the same condition test
(SingularSystem past 1e14), judged from that inverse's kappa_1 with the SVD
run only where kappa_1 cannot clear it, and the amplitudes are vectorised
over waves and orders, in passes whose (waves, orders, pins) temporaries
stay under 64 KiB.  _scatter_all returns columns (R, T, the
residual, per-order energies and per-wave errors); SpectrumRecords are
built from them only where the public API returns them.  scan sweeps beta
at a fixed angle or Bloch parameter this way in one call; spectrum_scan
and the steering stages build on it (steering's feature_scan reads each
zoom window's T from the columns).  scatter is the one-wave case of the
same path, so a scan record equals scatter's record at its beta exactly.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularSystem
from .greens import (
    _CHUNK,
    DEFAULT_POLICY,
    TWO_PI,
    SpectralPoint,
    TruncationPolicy,
    _interaction_matrices,
    _point_errors,
)

_COND_LIMIT = 1e14
_MIN_STEP = 1e-12        # spectrum_scan refines no beta step below this
_MAX_POINTS = 200_000    # spectrum_scan's refinement stops at this many points


def _angle_error(theta_i: float) -> DomainError | None:
    """The DomainError of an incidence angle outside (-pi/2, pi/2), or None."""
    if not abs(theta_i) < math.pi / 2:
        return DomainError(f"theta_i must be in (-pi/2, pi/2), got {theta_i}")
    return None


def _bloch_error(alpha0: float, beta: float) -> DomainError | None:
    """The DomainError of a Bloch parameter no propagating wave at beta has, or None."""
    if not abs(alpha0) < beta:
        return DomainError(f"|alpha0| = {abs(alpha0)} must be < beta = {beta} for a "
                           "propagating incident wave")
    return None


@dataclass(frozen=True)
class IncidentWave:
    """A propagating plane wave, specified by angle or Bloch parameter.

    direction "down" means incidence from y = +inf (the default); "up" from
    y = -inf.  alpha0 = beta sin(theta_i) and chi0 = beta cos(theta_i) satisfy
    alpha0^2 + chi0^2 = beta^2 by construction; |theta_i| < pi/2.
    """

    theta_i: float
    beta: float
    alpha0: float
    chi0: float
    amplitude: complex = 1.0 + 0.0j
    direction: str = "down"

    def __post_init__(self) -> None:
        error = _angle_error(self.theta_i)
        if error is not None:
            raise error
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
        error = _bloch_error(alpha0, beta)
        if error is not None:
            raise error
        return cls(theta_i=math.asin(alpha0 / beta), beta=beta, alpha0=alpha0,
                   chi0=math.sqrt(beta * beta - alpha0 * alpha0),
                   amplitude=amplitude, direction=direction)

    def field(self, x: float, y: float) -> complex:
        sign = -1.0 if self.direction == "down" else 1.0
        return self.amplitude * np.exp(1j * (self.alpha0 * x + sign * self.chi0 * y))


@dataclass(frozen=True)
class PinStack:
    """Pin positions of a finite stack, one representative pin per grating.

    Positions are (x, y) pairs in units of the period.
    """

    pins: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ys = [y for _, y in self.pins]
        if len(set(ys)) != len(ys):
            raise ValueError("one pin per grating: y positions must be distinct")

    @classmethod
    def single(cls) -> "PinStack":
        return cls(pins=((0.0, 0.0),))

    @classmethod
    def pair(cls, eta: float) -> "PinStack":
        """Two gratings separated by eta, centered on y = 0."""
        return cls(pins=((0.0, eta / 2.0), (0.0, -eta / 2.0)))

    @classmethod
    def triplet(cls, eta: float, xi: float = 0.0) -> "PinStack":
        """Outer gratings at y = +/- eta, shifted central grating at (xi, 0)."""
        return cls(pins=((0.0, eta), (xi, 0.0), (0.0, -eta)))


@dataclass(frozen=True)
class SpectrumRecord:
    """One spectral point of a scattering scan.

    R_orders / T_orders are flux-normalized energies per propagating order,
    R / T their sums, and energy_residual = |R + T - 1|.  For points where
    evaluation failed the totals are NaN and error reads "Class: message".
    """

    alpha0: float
    beta: float
    R_orders: dict[int, float] = field(default_factory=dict)
    T_orders: dict[int, float] = field(default_factory=dict)
    R: float = float("nan")
    T: float = float("nan")
    energy_residual: float = float("nan")
    error: str | None = None


def _pins(stack: PinStack) -> np.ndarray:
    """The pin positions of the stack, shape (n, 2)."""
    return np.array(stack.pins, dtype=float).reshape(-1, 2)


def _wave_arrays(waves: list[IncidentWave]) -> tuple[np.ndarray, ...]:
    """alpha0, beta, chi0, amplitude and side (-1 from above, +1 from below) per wave."""
    return (np.array([w.alpha0 for w in waves], dtype=float),
            np.array([w.beta for w in waves], dtype=float),
            np.array([w.chi0 for w in waves], dtype=float),
            np.array([w.amplitude for w in waves], dtype=complex),
            np.array([-1.0 if w.direction == "down" else 1.0 for w in waves]))


def _coefficients(pins: np.ndarray, waves: tuple[np.ndarray, ...],
                  policy: TruncationPolicy) -> tuple[np.ndarray, list[Exception | None]]:
    """Pin reactions at every wave: (B, n) and per-wave errors.

    pins are the stack's, (n, 2); waves are _wave_arrays.  The
    one validation pass is the interaction-matrix build, for all waves at
    once (the empty stack, which never reaches it, takes _point_errors').
    The systems of the waves that passed solve as one (B, n, n) stack on
    the right-hand sides [-u | I]: one factorisation gives the reactions
    and the inverse.  Every system, 1x1 included, faces the condition
    test, SingularSystem where the 2-norm condition exceeds 1e14.  Since
    kappa_2 <= n kappa_1, a finite kappa_1 = |A|_1 |A^-1|_1 of at most
    1e14 / 2n passes it (the 2 covers the computed inverse's rounding),
    and np.linalg.cond's SVD runs only on the systems kappa_1 cannot
    clear.  A stack with an exactly singular member cannot be factorised:
    then every system takes the SVD, and the ones that pass solve again.
    """
    alpha0, beta, chi0, amplitude, side = waves
    n = len(pins)
    coeffs = np.zeros((len(beta), n), dtype=complex)
    if not n:
        return coeffs, _point_errors(alpha0, beta)
    g, errors = _interaction_matrices(alpha0, beta, pins, policy)
    ok = np.array([i for i, e in enumerate(errors) if e is None], dtype=int)
    g = g[ok]
    rhs = np.zeros((len(ok), n, n + 1), dtype=complex)
    u = rhs[:, :, 0]
    np.multiply(amplitude[ok, None],
                np.exp(1j * (alpha0[ok, None] * pins[:, 0]
                             + (side * chi0)[ok, None] * pins[:, 1])), out=u)
    np.negative(u, out=u)
    rhs[:, :, 1:] = np.eye(n)
    try:
        solved = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:    # an exactly singular member refuses the whole stack
        solved, doubtful = None, np.arange(len(ok))
    else:
        kappa1 = (np.abs(g).sum(axis=1).max(axis=1)
                  * np.abs(solved[:, :, 1:]).sum(axis=1).max(axis=1))
        doubtful = np.flatnonzero(~(kappa1 <= _COND_LIMIT / (2 * n)))   # NaN and inf too
    if len(doubtful):
        singular = doubtful[np.linalg.cond(g[doubtful]) > _COND_LIMIT]
        for k in singular.tolist():
            errors[ok[k]] = SingularSystem(
                f"pin interaction matrix condition exceeds {_COND_LIMIT:g}")
        kept = np.ones(len(ok), dtype=bool)
        kept[singular] = False
        solved = np.linalg.solve(g[kept], rhs[kept]) if solved is None else solved[kept]
        ok = ok[kept]
    coeffs[ok] = solved[:, :, 0]
    return coeffs, errors


def solve_coefficients(
    stack: PinStack,
    inc: IncidentWave,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Pin reaction coefficients A_j solving the pinned-plate conditions.

    Raises SingularSystem when the interaction matrix condition number
    exceeds 1e14.
    """
    coeffs, (error,) = _coefficients(_pins(stack), _wave_arrays([inc]), policy)
    if error is not None:
        raise error
    return coeffs[0]


@dataclass(frozen=True)
class _Columns:
    """Scattering results at many waves as columns, one entry per wave.

    alpha0, beta; R, T and energy_residual (NaN where the wave failed);
    the flux-normalized energies R_n, T_n of the orders n of the union of
    the waves' propagating orders, (waves, orders), 0 where an order does
    not propagate; each wave's propagating orders as the run lo:hi of
    that union; and per wave None or the exception its evaluation raised.
    """

    alpha0: np.ndarray
    beta: np.ndarray
    R: np.ndarray
    T: np.ndarray
    energy_residual: np.ndarray
    orders: np.ndarray
    R_orders: np.ndarray
    T_orders: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    errors: list[Exception | None]


def _amplitudes(coeffs: np.ndarray, pins: np.ndarray,
                waves: tuple[np.ndarray, ...], policy: TruncationPolicy,
                energies: bool) -> tuple:
    """Amplitudes or energies of every propagating order of every wave.

    Vectorised over waves and orders (see plane_wave_amplitudes and
    SpectrumRecord), in passes of waves whose (waves, orders, pins)
    temporaries hold at most _CHUNK terms.  Returns the union's orders,
    the (waves, orders) r and t, or R_n and T_n with energies (0 where an
    order does not propagate), each wave's run lo:hi of propagating orders
    and per wave None or the DomainError plane_wave_amplitudes raises when
    an order grazes its light line.  Arguments as for _coefficients; the
    waves must have passed greens._point_errors (plane_wave_amplitudes) or
    _coefficients.
    """
    alpha0, beta, chi0, amplitude, side = waves
    # alpha0 + 2 pi n in (-beta, beta) needs |n| <= reach
    reach = math.ceil(float(np.max(beta + np.abs(alpha0), initial=0.0)) / TWO_PI)
    orders = np.arange(-reach, reach + 1)
    r = np.empty((len(beta), len(orders)), dtype=float if energies else complex)
    t = np.empty_like(r)
    lo, hi = np.empty((2, len(beta)), dtype=int)
    errors: list[DomainError | None] = [None] * len(beta)
    step = max(1, _CHUNK // (len(orders) * max(1, len(pins))))
    for start in range(0, len(beta), step):
        w = slice(start, start + step)
        alpha_n = alpha0[w, None] + TWO_PI * orders
        b2 = (beta[w] * beta[w])[:, None]
        propagating = alpha_n**2 < b2
        chi = np.sqrt(np.where(propagating, b2 - alpha_n * alpha_n, 1.0))
        # sum over pins j of A_j exp(-i alpha_n x_j) exp(-+i chi_n y_j), pins last
        lateral = np.multiply(coeffs[w, None, :], np.exp(-1j * alpha_n[:, :, None] * pins[:, 0]))
        vertical = np.exp(-1j * chi[:, :, None] * pins[:, 1])
        pref = 1j / (4.0 * b2 * chi)
        above = np.multiply(pref, np.multiply(lateral, vertical).sum(axis=2))
        below = np.multiply(pref, np.multiply(lateral, np.conj(vertical)).sum(axis=2))
        down = (side[w] < 0.0)[:, None]
        r_w = np.where(down, above, below)
        t_w = np.where(down, below, above)
        t_w[:, reach] += amplitude[w]           # order 0
        if energies:   # flux-normalized
            scale = chi / (chi0[w] * np.abs(amplitude[w]) ** 2)[:, None]
            r_w, t_w = np.abs(r_w) ** 2 * scale, np.abs(t_w) ** 2 * scale
        r[w], t[w] = np.where(propagating, r_w, 0.0), np.where(propagating, t_w, 0.0)
        # each wave's propagating orders are one run of the union
        lo[w] = propagating.argmax(axis=1)
        hi[w] = lo[w] + propagating.sum(axis=1)
        grazing = propagating & (chi <= policy.lightline_tol * beta[w, None])
        for i in np.flatnonzero(grazing.any(axis=1)).tolist():
            errors[start + i] = DomainError(f"order {orders[grazing[i]][0]} grazes its light line")
    return orders, r, t, lo, hi, errors


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
    (error,) = _point_errors([inc.alpha0], [inc.beta])
    if error is None:
        orders, r, t, lo, hi, (error,) = _amplitudes(
            np.asarray(coeffs)[None, :], _pins(stack), _wave_arrays([inc]), policy,
            energies=False)
    if error is not None:
        raise error
    run = slice(int(lo[0]), int(hi[0]))
    ns = orders[run].tolist()
    return dict(zip(ns, r[0, run].tolist())), dict(zip(ns, t[0, run].tolist()))


def _scatter_all(pins: np.ndarray, waves: tuple[np.ndarray, ...],
                 errors: list[Exception | None], policy: TruncationPolicy) -> _Columns:
    """scatter at every wave on one stack, batched, as _Columns.

    pins are the stack's (_pins); waves are _wave_arrays, and errors per
    wave None or the exception building it raised: such a wave passes
    through with its exception.  _coefficients validates the others in one
    pass, and no failure stops the rest.
    """
    errors = list(errors)
    index = [i for i, e in enumerate(errors) if e is None]
    coeffs, failed = _coefficients(pins, tuple(a[index] for a in waves), policy)
    solved = [k for k, e in enumerate(failed) if e is None]
    keep = [index[k] for k in solved]
    for i, e in zip(index, failed):
        errors[i] = e
    orders, r, t, lo, hi, failed = _amplitudes(coeffs[solved], pins,
                                               tuple(a[keep] for a in waves), policy,
                                               energies=True)
    for i, e in zip(keep, failed):
        errors[i] = e
    r_orders, t_orders = np.zeros((2, len(errors), len(orders)))
    r_orders[keep], t_orders[keep] = r, t
    runs = np.zeros((2, len(errors)), dtype=int)
    runs[:, keep] = lo, hi
    big_r, big_t = np.zeros((2, len(errors)))
    for k in range(len(orders)):   # order by order, as sum() adds up a record's dict
        big_r, big_t = big_r + r_orders[:, k], big_t + t_orders[:, k]
    failed = np.array([e is not None for e in errors], dtype=bool)
    big_r[failed] = big_t[failed] = np.nan
    return _Columns(alpha0=waves[0], beta=waves[1], R=big_r, T=big_t,
                    energy_residual=np.abs(big_r + big_t - 1.0), orders=orders,
                    R_orders=r_orders, T_orders=t_orders, lo=runs[0], hi=runs[1],
                    errors=errors)


def _records(columns: _Columns) -> list[SpectrumRecord]:
    """Each wave's SpectrumRecord from the columns; "Class: message" where it failed.

    Each record is built from its wave's row of alpha0, beta, R, T, the
    residual and then the per-order R_n and T_n.
    """
    out = []
    orders = columns.orders.tolist()
    t0 = 5 + len(orders)      # where T_n starts in a row
    rows = np.column_stack((columns.alpha0, columns.beta, columns.R, columns.T,
                            columns.energy_residual, columns.R_orders, columns.T_orders)).tolist()
    for row, lo, hi, error in zip(rows, columns.lo.tolist(), columns.hi.tolist(),
                                  columns.errors):
        if error is not None:
            out.append(SpectrumRecord(row[0], row[1], error=f"{type(error).__name__}: {error}"))
        elif hi - lo == 1:
            out.append(SpectrumRecord(row[0], row[1], {orders[lo]: row[5 + lo]},
                                      {orders[lo]: row[t0 + lo]}, row[2], row[3], row[4]))
        else:
            ns = orders[lo:hi]
            out.append(SpectrumRecord(row[0], row[1], dict(zip(ns, row[5 + lo:5 + hi])),
                                      dict(zip(ns, row[t0 + lo:t0 + hi])),
                                      row[2], row[3], row[4]))
    return out


def scatter(
    stack: PinStack,
    inc: IncidentWave,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SpectrumRecord:
    """Solve one scattering problem and fold it into a SpectrumRecord."""
    columns = _scatter_all(_pins(stack), _wave_arrays([inc]), [None], policy)
    (error,) = columns.errors
    if error is not None:
        raise error
    (record,) = _records(columns)
    return record


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


def _scan_columns(stack: PinStack, betas: np.ndarray, theta_i: float | None,
                  alpha0: float | None, policy: TruncationPolicy) -> _Columns:
    """scan's results as _Columns: scatter at each of the float array betas.

    Exactly one of theta_i and alpha0 (_alpha0_rule).  The waves are built
    in one step: from above with unit amplitude, with the alpha0 and chi0
    IncidentWave.from_angle or from_alpha0 gives, and per beta the
    DomainError their checks raise there.
    """
    _alpha0_rule(theta_i, alpha0)     # exactly one incidence
    with np.errstate(all="ignore"):
        if theta_i is not None:
            a0 = betas * math.sin(theta_i)
            chi0 = betas * math.cos(theta_i)
            refused = np.full(len(betas), _angle_error(theta_i) is not None)
        else:
            a0 = np.full(len(betas), alpha0, dtype=float)
            chi0 = np.sqrt(betas * betas - a0 * a0)
            # |alpha0| < beta, then asin(alpha0 / beta) in (-pi/2, pi/2)
            refused = ~(abs(alpha0) < betas) | ~(np.abs(a0 / betas) < 1.0)
    errors: list[Exception | None] = [None] * len(betas)
    for i in np.flatnonzero(refused).tolist():
        beta = float(betas[i])
        errors[i] = (_angle_error(theta_i) if theta_i is not None else
                     _bloch_error(alpha0, beta) or _angle_error(math.asin(alpha0 / beta)))
    waves = (a0, betas, chi0, np.ones(len(betas), dtype=complex), np.full(len(betas), -1.0))
    return _scatter_all(_pins(stack), waves, errors, policy)


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
    (fixed Bloch parameter), checked before any point is evaluated.  All
    points are evaluated together, as columns (_scan_columns); per-point
    failures are recorded on the record, never raised, and never affect
    the other points.
    """
    betas = np.array([float(beta) for beta in betas], dtype=float)
    return _records(_scan_columns(stack, betas, theta_i, alpha0, policy))


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
) -> list[SpectrumRecord]:
    """Scan transmittance over beta, optionally refining sharp features.

    A uniform grid of resolution points over beta_range goes through scan,
    with the incidence as there.  With refine=True, intervals where
    |Delta T| > refine_jump are bisected until the jump falls below the
    threshold or the beta step reaches 1e-12, up to 200,000 points: in
    rounds, one scan per round, the last round keeping its lowest midpoints.
    Raises ValueError, before any evaluation, unless hi > lo, resolution
    >= 2 and, with refine, refine_jump > 0.
    """
    opts = {"theta_i": theta_i, "alpha0": alpha0, "policy": policy}
    lo, hi = beta_range
    if not (hi > lo):
        raise ValueError("beta_range must satisfy hi > lo")
    if not resolution >= 2:   # one point would drop beta_max
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if refine and not refine_jump > 0:   # NaN included; 0 bisects to the point cap
        raise ValueError(f"refine_jump must be positive, got {refine_jump}")
    betas = np.linspace(lo, hi, resolution)
    records = {r.beta: r for r in scan(stack, betas, **opts)}
    while refine:
        done = sorted(records)
        mids = [0.5 * (b_lo + b_hi) for b_lo, b_hi in zip(done, done[1:])
                if b_hi - b_lo > 2.0 * _MIN_STEP
                and abs(records[b_hi].T - records[b_lo].T) > refine_jump]   # NaN fails
        mids = mids[:_MAX_POINTS - len(records)]
        if not mids:
            break
        records.update((r.beta, r) for r in scan(stack, mids, **opts))
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
    rec = scatter(PinStack.single(),
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
