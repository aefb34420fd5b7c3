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

The solve is in reactance form.  At a real point every evanescent term of G
is Hermitian under (x, y) -> (-x, -y), so the pin matrix is M = H + i W W^H
with H Hermitian and W's columns the channel vectors
exp(i alpha_n x_j +- i chi_n y_j) / sqrt(8 beta^2 chi_n) of the propagating
orders.  H is taken as (M + M^H) / 2 and W in closed form, and
S = (I - i K)(I + i K)^-1 with K = W^H H^-1 W made Hermitian (Woodbury; the
K-matrix of Wigner & Eisenbud, Phys. Rev. 72, 29, 1947): S is unitary by
construction, so every solved point conserves energy to rounding however
close it sits to a high-Q pole.  R_n and T_n are read off S's incoming
column and the reactions come from the same factors.  Near a pole of K (an
entry past 100), H is shifted by c W W^H, c = +-1, which keeps S unitary and
K bounded.  The solve refuses a wave as SingularSystem where
kappa_2(H) > 1e14 (no reactance matrix exists, as where two gratings
coalesce) or where the shifted H is exactly singular; an ill-conditioned M
with a well-conditioned H, such as at the centre of a dark notch, solves.

The batching contract is one stack, many waves, as columns.  A scan builds
its waves' columns from beta in one step (IncidentWave's checks and
messages applied per point).  The pin-interaction matrices of every wave
come from one call of greens._interaction_matrices (each distinct pin
offset summed once), whose per-wave errors are the one validation pass,
except on a narrow window: where a scan's beta half-width is at most 1/200
of min_n |c - |alpha_n(c)|| at its centre c (at least half the distance to
the nearest light line, so the entries are analytic well past the window)
and it has more than 36 points, H comes from one
builder call at 7 Chebyshev nodes and 2 check points and is interpolated
to every beta, unless a check point misses by more than 64 ulp of max |M|
or a node fails, when the full build runs.  The waves solve in passes
whose temporaries stay under 64 KiB, waves with the same propagating orders
together.  _scatter_all returns columns (R, T, the residual, per-order
energies, reactions and per-wave errors); SpectrumRecords are built from
them only where the public API returns them.  scan sweeps beta at a fixed
angle or Bloch parameter this way in one call; spectrum_scan and the
steering stages build on it (steering's feature_scan reads each zoom
window's T from the columns).  scatter is the one-wave case of the same
path, so a scan record equals scatter's record at its beta exactly on a
kernel-built window, and within the interpolant's check bound on H on an
interpolated one.
"""

from __future__ import annotations

import math
import operator
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
    _passing,
    _point_errors,
)

_COND_LIMIT = 1e14        # SingularSystem past this 2-norm condition of H
_K_LIMIT = 100.0         # a reactance matrix with a larger entry is shifted off its pole
_NODES = 7               # Chebyshev nodes of an interpolated scan window
_NARROW = 100            # a window interpolates where this times its width is at most
                         # min_n |c - |alpha_n(c)|| at its centre c
_CHECK_ULPS = 64         # an interpolant's largest miss at its check points, in ulp of max |M|
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
        error = _angle_error(theta_i)      # before math.sin, which raises at +-inf
        if error is not None:
            raise error
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


@dataclass(slots=True)
class SpectrumRecord:
    """One spectral point of a scattering scan.

    R_orders / T_orders are flux-normalized energies per propagating order,
    R / T their sums, and energy_residual = |R + T - 1|.  For points where
    evaluation failed the totals are NaN and error reads "Class: message".
    Slotted, not frozen: a scan builds thousands of records, and a frozen
    __init__ sets each field through object.__setattr__, about five times
    the cost of a slotted one.  No code assigns to a record, and its dict
    fields made a frozen one unhashable anyway.
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
    """alpha0, beta, amplitude and side (-1 from above, +1 from below) per wave."""
    return (np.array([w.alpha0 for w in waves], dtype=float),
            np.array([w.beta for w in waves], dtype=float),
            np.array([w.amplitude for w in waves], dtype=complex),
            np.array([-1.0 if w.direction == "down" else 1.0 for w in waves]))


def _hermitian(matrices: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 of each (..., n, n) matrix: exactly Hermitian, its diagonal real."""
    return 0.5 * (matrices + np.conj(np.swapaxes(matrices, -1, -2)))


def _channels(pins: np.ndarray, waves: tuple[np.ndarray, ...], orders: np.ndarray,
              policy: TruncationPolicy) -> tuple:
    """The flux-normalised channel vectors of every wave, for the orders given.

    Channel (n, s), s = +1 travelling up and -1 down, has at pin j the entry
    exp(i alpha_n x_j + s i chi_n y_j) / sqrt(8 beta^2 chi_n), 0 where order
    n does not propagate.  Returns the (waves, pins, 2 orders) vectors, the
    up channels first; the (waves, orders) factors 1 / sqrt(8 beta^2 chi_n)
    and propagation mask; and per wave None or the DomainError of an order
    that grazes its light line.
    """
    alpha0, beta = waves[0], waves[1]
    alpha_n = alpha0[:, None] + TWO_PI * orders
    b2 = (beta * beta)[:, None]
    propagating = alpha_n * alpha_n < b2
    chi = np.sqrt(np.where(propagating, b2 - alpha_n * alpha_n, 1.0))
    norm = np.where(propagating, 1.0 / np.sqrt(8.0 * b2 * chi), 0.0)
    lateral = np.multiply(np.exp(1j * alpha_n[:, None, :] * pins[:, 0, None]), norm[:, None, :])
    vertical = np.exp(1j * chi[:, None, :] * pins[:, 1, None])
    vectors = np.concatenate((lateral * vertical, lateral * np.conj(vertical)), axis=2)
    errors: list[Exception | None] = [None] * len(beta)
    grazing = propagating & (chi <= policy.lightline_tol * beta[:, None])
    for i in np.flatnonzero(grazing.any(axis=1)).tolist():
        errors[i] = DomainError(f"order {orders[grazing[i]][0]} grazes its light line")
    return vectors, norm, propagating, errors


def _union_orders(waves: tuple[np.ndarray, ...]) -> np.ndarray:
    """The orders n from the lowest to the highest any wave propagates (0 at least)."""
    alpha0, beta = waves[0], waves[1]
    lo = np.min(np.ceil((-beta - alpha0) / TWO_PI), initial=0.0)
    hi = np.max(np.floor((beta - alpha0) / TWO_PI), initial=0.0)
    return np.arange(int(lo), int(hi) + 1)


def _reactance(hermitian: np.ndarray, pins: np.ndarray, waves: tuple[np.ndarray, ...],
               policy: TruncationPolicy) -> tuple:
    """The one scattering solve, in reactance form, at every wave: the pass.

    hermitian holds each wave's H, the Hermitian part of its pin matrix
    M = H + i W W^H, whose anti-Hermitian part is the closed form over the
    wave's channels W (_channels).  With K = W^H H^-1 W, made Hermitian,
    the flux-normalised scattering matrix is S = (I - i K)(I + i K)^-1
    (Woodbury: S = I - 2 i W^H M^-1 W), unitary for any Hermitian K.  Where
    an entry of K passes _K_LIMIT (near a pole of K, where rounding in its
    large entries would swamp the small ones), H is shifted to
    H_c = H + c W W^H, so that M = H_c + (i - c) W W^H and
    S = (I - (i + c) K_c)(I + (i - c) K_c)^-1 with K_c = W^H H_c^-1 W,
    still unitary for any real c; c = +1 or -1, whichever keeps 1 + c kappa
    further from 0 over K's eigenvalues kappa, bounds K_c's eigenvalues
    kappa / (1 + c kappa).  S's incoming column is s = delta y + gamma e,
    y = (I + (i - c) K_c)^-1 e, delta = 2 i / (i - c),
    gamma = -(i + c) / (i - c) (2 y - e at c = 0); R_n = |s_n|^2 on the
    side the wave comes from, T_n on the other, and the reactions are
    A = -amplitude sqrt(8 beta^2 chi_0) H_c^-1 W y.  One LU of H solves
    [W | I] (H^-1 W from the solve, not as the inverse times W, which on
    the centre of a dark notch, kappa_2(H) ~ 6e9, moves K by 1e-2 and T by
    1e-3); the condition test reads kappa_1 = |H|_1 |H^-1|_1 from it and
    fails a wave as SingularSystem where kappa_2(H) > 1e14: a finite
    kappa_1 of at most 1e14 / 2n passes (kappa_2 <= n kappa_1, the 2
    covering the computed inverse's rounding), and np.linalg.cond's SVD
    runs only on the waves kappa_1 cannot clear.  A pass with an exactly
    singular H cannot be factorised: then each of its waves takes the SVD,
    and the ones that pass solve again; nor one with an exactly singular
    H_c: then each of its shifted waves solves alone, and the singular one
    fails as SingularSystem.  Waves with the same propagating
    orders go together, in passes whose temporaries hold at most _CHUNK
    terms, so a wave's results do not depend on its batch.  Returns the
    reactions (waves, pins), the orders (_union_orders), the (waves,
    orders) R_n and T_n (0 where an order does not propagate), each wave's
    run lo:hi of propagating orders and per wave None or its exception.
    """
    alpha0, beta, amplitude, side = waves
    n = len(pins)
    orders = _union_orders(waves)
    alpha_n = alpha0[:, None] + TWO_PI * orders
    propagating = alpha_n * alpha_n < (beta * beta)[:, None]
    lo = propagating.argmax(axis=1)
    hi = lo + propagating.sum(axis=1)
    coeffs = np.zeros((len(beta), n), dtype=complex)
    r, t = np.zeros((2, len(beta), len(orders)))
    errors: list[Exception | None] = [None] * len(beta)
    for first, last in sorted(set(zip(lo.tolist(), hi.tolist()))):
        own = orders[first:last]
        width = 2 * len(own)
        members = np.flatnonzero((lo == first) & (hi == last))
        step = max(1, _CHUNK // max(n * (width + n), width * width))
        for start in range(0, len(members), step):
            w = members[start:start + step]
            vectors, norm, _, failed = _channels(pins, tuple(a[w] for a in waves), own, policy)
            h = hermitian[w]
            rhs = np.concatenate((vectors, np.broadcast_to(np.eye(n), h.shape)), axis=2)
            kept = np.ones(len(w), dtype=bool)
            try:
                solved = np.linalg.solve(h, rhs)
            except np.linalg.LinAlgError:   # an exactly singular member refuses the pass
                solved, doubtful = None, np.arange(len(w))
            else:
                inverse = solved[:, :, width:]
                kappa1 = (np.einsum("bij->bj", np.abs(h)).max(axis=1, initial=0.0)
                          * np.einsum("bij->bj", np.abs(inverse)).max(axis=1, initial=0.0))
                # NaN and inf fail too
                doubtful = np.flatnonzero(~(kappa1 <= _COND_LIMIT / (2 * max(n, 1))))
            if len(doubtful):
                singular = doubtful[np.linalg.cond(h[doubtful]) > _COND_LIMIT]
                for i in singular.tolist():
                    failed[i] = SingularSystem("Hermitian part of the pin interaction matrix: "
                                               f"condition exceeds {_COND_LIMIT:g}")
                kept[singular] = False
                h, vectors = h[kept], vectors[kept]
                solved = np.linalg.solve(h, rhs[kept]) if solved is None else solved[kept]
            x = solved[:, :, :width]                       # H^-1 W
            k = _hermitian(np.einsum("bjp,bjq->bpq", np.conj(vectors), x))
            # near a pole of K, H_c = H + c W W^H with c = +-1
            shift = np.zeros(len(k))
            big = np.flatnonzero(~(np.abs(k).max(axis=(1, 2), initial=0.0) <= _K_LIMIT))
            if len(big):
                kappa = np.linalg.eigvalsh(k[big])
                shift[big] = np.where(np.abs(1.0 + kappa).min(axis=1)
                                      >= np.abs(1.0 - kappa).min(axis=1), 1.0, -1.0)
                v = vectors[big]
                gram = np.einsum("bip,bjp->bij", v, np.conj(v))
                shifted, live = h[big] + shift[big, None, None] * gram, slice(None)
                try:
                    x[big] = np.linalg.solve(shifted, v)
                except np.linalg.LinAlgError:   # an exactly singular member fails its own wave
                    live, alive = np.ones(len(k), dtype=bool), np.flatnonzero(kept)
                    for j, b in enumerate(big.tolist()):
                        try:
                            x[b] = np.linalg.solve(shifted[j], v[j])
                        except np.linalg.LinAlgError:
                            live[b] = kept[alive[b]] = False
                            failed[alive[b]] = SingularSystem("shifted Hermitian part of the "
                                                              "pin interaction matrix: singular")
                k[big] = _hermitian(np.einsum("bjp,bjq->bpq", np.conj(v), x[big]))
                k, x, shift = k[live], x[live], shift[live]
            # the incoming channel: order 0, travelling down from above, up from below
            down = side[w][kept] < 0.0
            incoming = np.zeros((len(k), width, 1))
            incoming[np.arange(len(k)), np.where(down, len(own), 0) - own[0]] = 1.0
            ratio = (1j - shift)[:, None, None]
            y = np.linalg.solve(np.eye(width) + ratio * k, incoming)
            column = 2j / ratio * y - (1j + shift[:, None, None]) / ratio * incoming
            energy = np.abs(column[:, :, 0]) ** 2
            up_e, down_e = energy[:, :len(own)], energy[:, len(own):]
            rows = w[kept]
            r[rows, first:last] = np.where(down[:, None], up_e, down_e)
            t[rows, first:last] = np.where(down[:, None], down_e, up_e)
            scale = -amplitude[rows] / norm[kept, -own[0]]
            coeffs[rows] = scale[:, None] * np.einsum("bip,bp->bi", x, y[:, :, 0])
            _note(errors, w, failed)
    return coeffs, orders, r, t, lo, hi, errors


def _note(errors: list, index: np.ndarray, failed: list) -> None:
    """Set errors[index[k]] to each failed[k] that is not None; an all-None failed is not walked."""
    if failed.count(None) < len(failed):
        for i, e in zip(index.tolist(), failed):
            if e is not None:
                errors[i] = e


def solve_coefficients(
    stack: PinStack,
    inc: IncidentWave,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Pin reaction coefficients A_j solving the pinned-plate conditions.

    Solved in reactance form (see the module docstring).  Raises
    SingularSystem when the condition number of the pin matrix's Hermitian
    part exceeds 1e14, or its shifted form is exactly singular.
    """
    columns = _scatter_all(_pins(stack), _wave_arrays([inc]), [None], policy)
    (error,) = columns.errors
    if error is not None:
        raise error
    return columns.coeffs[0]


@dataclass(frozen=True)
class _Columns:
    """Scattering results at many waves as columns, one entry per wave.

    alpha0, beta; R, T and energy_residual (NaN where the wave failed);
    the flux-normalized energies R_n, T_n of the orders n of the union of
    the waves' propagating orders, (waves, orders), 0 where an order does
    not propagate; each wave's propagating orders as the run lo:hi of
    that union; the (waves, pins) reactions (0 where the solve failed);
    and per wave None or the exception its evaluation raised.
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
    coeffs: np.ndarray
    errors: list[Exception | None]


def plane_wave_amplitudes(
    coeffs: np.ndarray,
    stack: PinStack,
    inc: IncidentWave,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[dict[int, complex], dict[int, complex]]:
    """Reflected and transmitted amplitudes of every propagating order.

    Returns (r, t) keyed by order index n.  The reflected side is the side
    the wave comes from; the transmitted amplitude includes the incident
    delta_n0 contribution.  The amplitude of order n is
    i / (4 beta^2 chi_n) sum_j A_j exp(-i alpha_n x_j -+ i chi_n y_j),
    2 i / sqrt(8 beta^2 chi_n) times A's product with the conjugate of the
    channel (n, +-1) (_channels).
    """
    waves = _wave_arrays([inc])
    (error,) = _point_errors([inc.alpha0], [inc.beta])
    if error is None:
        orders = _union_orders(waves)
        vectors, norm, propagating, (error,) = _channels(_pins(stack), waves, orders, policy)
    if error is not None:
        raise error
    amplitudes = 2j * np.tile(norm[0], 2) * (np.asarray(coeffs, dtype=complex)
                                             @ np.conj(vectors[0]))
    up, down = np.split(amplitudes, 2)
    r, t = (up, down) if inc.direction == "down" else (down, up)
    t[-orders[0]] += inc.amplitude       # order 0
    ns = orders[propagating[0]].tolist()
    run = propagating[0]
    return dict(zip(ns, r[run].tolist())), dict(zip(ns, t[run].tolist()))


def _scatter_all(pins: np.ndarray, waves: tuple[np.ndarray, ...],
                 errors: list[Exception | None], policy: TruncationPolicy,
                 hermitian: np.ndarray | None = None) -> _Columns:
    """scatter at every wave on one stack, batched, as _Columns: the one path.

    pins are the stack's (_pins); waves are _wave_arrays, and errors per
    wave None or the exception building it raised: such a wave passes
    through with its exception.  hermitian, if given, holds every wave's
    H (see _reactance); else the builder (greens._interaction_matrices)
    makes each other wave's pin matrix M, its per-wave errors the one
    validation pass (for the empty stack (waves, 0, 0) matrices and
    _point_errors' errors), and H is (M + M^H) / 2.  _reactance solves the
    waves that passed, and no failure stops the rest.
    """
    errors = list(errors)
    index = _passing(errors)
    sub = tuple(a[index] for a in waves)
    n = len(pins)
    if hermitian is not None:
        hermitian, build_errors = hermitian[index], [None] * len(index)
    elif not len(index):          # every wave refused: no builder, so no kernel call
        hermitian, build_errors = np.zeros((0, n, n), dtype=complex), []
    else:
        matrices, build_errors = _interaction_matrices(sub[0], sub[1], pins, policy)
        hermitian = _hermitian(matrices)
    built = _passing(build_errors)
    _note(errors, index, build_errors)
    keep = index[built]
    coeffs, orders, r, t, lo, hi, solve_errors = _reactance(
        hermitian[built], pins, tuple(a[keep] for a in waves), policy)
    _note(errors, keep, solve_errors)
    r_orders, t_orders = np.zeros((2, len(errors), len(orders)))
    r_orders[keep], t_orders[keep] = r, t
    runs = np.zeros((2, len(errors)), dtype=int)
    runs[:, keep] = lo, hi
    reactions = np.zeros((len(errors), n), dtype=complex)
    reactions[keep] = coeffs
    big_r, big_t = np.zeros((2, len(errors)))
    for k in range(len(orders)):   # order by order, as sum() adds up a record's dict
        big_r, big_t = big_r + r_orders[:, k], big_t + t_orders[:, k]
    failed = np.ones(len(errors), dtype=bool)
    failed[_passing(errors)] = False
    big_r[failed] = big_t[failed] = np.nan
    return _Columns(alpha0=waves[0], beta=waves[1], R=big_r, T=big_t,
                    energy_residual=np.abs(big_r + big_t - 1.0), orders=orders,
                    R_orders=r_orders, T_orders=t_orders, lo=runs[0], hi=runs[1],
                    coeffs=reactions, errors=errors)


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
    # NaN at +-inf, where math.sin raises, so that _angle_error refuses both
    sin_theta = math.sin(theta_i) if not math.isinf(theta_i) else math.nan
    return lambda beta: beta * sin_theta


def _chebyshev(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_NODES Chebyshev points of [lo, hi] (second kind, lo and hi among them), ascending,
    their barycentric weights, and two check points, halfway in angle between
    the two outermost nodes at each end."""
    angles = np.pi * np.arange(_NODES) / (_NODES - 1)
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = centre - half * np.cos(angles)
    nodes[0], nodes[-1] = lo, hi
    weights = (-1.0) ** np.arange(_NODES)
    weights[[0, -1]] *= 0.5
    checks = centre - half * np.cos(0.5 * (angles[[0, -2]] + angles[[1, -1]]))
    return nodes, weights, checks


def _barycentric(nodes: np.ndarray, weights: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """The (betas, nodes) matrix that takes values at the nodes to the interpolant's at betas.

    The barycentric formula of the second kind (Berrut & Trefethen, SIAM
    Rev. 46, 2004); a beta at a node takes that node's value.
    """
    gaps = betas[:, None] - nodes
    at = gaps == 0.0
    terms = weights / np.where(at, 1.0, gaps)
    terms /= terms.sum(axis=1, keepdims=True)
    on_node = at.any(axis=1)
    terms[on_node] = at[on_node]
    return terms


def _interpolated(pins: np.ndarray, betas: np.ndarray, theta_i: float | None,
                  alpha0: float | None, policy: TruncationPolicy) -> np.ndarray | None:
    """Every beta's H from a Chebyshev interpolant, where the window allows it; else None.

    The entries of M are analytic in beta between light lines, where the
    channel roots chi_n branch; since beta - |alpha_n| changes at most
    twice as fast as beta, the window's centre c is at least
    min_n |c - |alpha_n(c)|| / 2 from the nearest one.  Where the window's
    half-width is at most 1/_NARROW of that, and it holds more than four
    times the builder's points below, one builder call makes M at _NODES
    Chebyshev nodes and two check points (_chebyshev), and H = (M + M^H) / 2
    is interpolated to every beta (_barycentric; its real and imaginary
    parts alike, so it stays exactly Hermitian).  A node or check point
    that fails to build, or a check point where the interpolant misses the
    built H by more than _CHECK_ULPS ulp of max |M| (the kernel's own
    point-to-point noise is up to about 30), gives None: the full build.
    Every beta must be a point that _scan_columns refused nothing at.
    """
    if not len(pins) or len(betas) <= 4 * (_NODES + 2):
        return None
    lo, hi = float(betas.min()), float(betas.max())
    centre = 0.5 * (lo + hi)
    alpha0_at = _alpha0_rule(theta_i, alpha0)
    bloch = alpha0_at(centre)
    with np.errstate(all="ignore"):
        # the orders n nearest to alpha_n = +-c, and their neighbours
        near = np.round((np.array([centre, -centre]) - bloch) / TWO_PI)[:, None] + [-1, 0, 1]
        gap = np.min(np.abs(centre - np.abs(bloch + TWO_PI * near)))
    if not 0.0 < (hi - lo) * _NARROW <= gap:     # NaN and inf fail
        return None
    nodes, weights, checks = _chebyshev(lo, hi)
    points = np.concatenate((nodes, checks))
    matrices, errors = _interaction_matrices(np.full(len(points), alpha0_at(points), dtype=float),
                                             points, pins, policy)
    if any(e is not None for e in errors):
        return None
    parts = _hermitian(matrices)
    values = parts[:_NODES].view(float).reshape(_NODES, -1)
    checked = (_barycentric(nodes, weights, checks) @ values).view(complex)
    miss = np.abs(checked - parts[_NODES:].reshape(2, -1)).max()
    if not miss <= _CHECK_ULPS * np.finfo(float).eps * np.abs(matrices).max():
        return None
    n = len(pins)
    return (_barycentric(nodes, weights, betas) @ values).view(complex).reshape(len(betas), n, n)


def _scan_columns(stack: PinStack, betas: np.ndarray, theta_i: float | None,
                  alpha0: float | None, policy: TruncationPolicy) -> _Columns:
    """scan's results as _Columns: scatter at each of the float array betas.

    Exactly one of theta_i and alpha0 (_alpha0_rule).  The waves are built
    in one step: from above with unit amplitude, with the alpha0
    IncidentWave.from_angle or from_alpha0 gives, and per beta the
    DomainError their checks raise there.  Where no beta is refused, a
    narrow window takes every H from _interpolated; else, or where that
    gives None, the builder makes every point's M.
    """
    alpha0_at = _alpha0_rule(theta_i, alpha0)     # exactly one incidence
    with np.errstate(all="ignore"):
        a0 = np.full(len(betas), alpha0_at(betas), dtype=float)
        if theta_i is not None:
            refused = np.full(len(betas), _angle_error(theta_i) is not None)
        else:
            # |alpha0| < beta, then asin(alpha0 / beta) in (-pi/2, pi/2)
            refused = ~(abs(alpha0) < betas) | ~(np.abs(a0 / betas) < 1.0)
    errors: list[Exception | None] = [None] * len(betas)
    for i in np.flatnonzero(refused).tolist():
        beta = float(betas[i])
        errors[i] = (_angle_error(theta_i) if theta_i is not None else
                     _bloch_error(alpha0, beta) or _angle_error(math.asin(alpha0 / beta)))
    waves = (a0, betas, np.ones(len(betas), dtype=complex), np.full(len(betas), -1.0))
    pins = _pins(stack)
    hermitian = None if refused.any() else _interpolated(pins, betas, theta_i, alpha0, policy)
    return _scatter_all(pins, waves, errors, policy, hermitian)


def transmittance(
    stack: PinStack,
    beta: float,
    *,
    theta_i: float | None = None,
    alpha0: float | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Total flux-normalized transmittance at one spectral point, a one-point
    _scan_columns with its checks; raises the point's error where it fails."""
    columns = _scan_columns(stack, np.array([float(beta)]), theta_i, alpha0, policy)
    (error,) = columns.errors
    if error is not None:
        raise error
    return float(columns.T[0])


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


def _check_integer(name: str, count) -> None:
    """Raise ValueError, naming the argument, unless count is an integer.

    An integer is what operator.index takes: int and numpy integers, not
    floats, even integral ones (np.linspace and range refuse those too).
    """
    try:
        operator.index(count)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {count!r}") from None


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
    Raises ValueError, before any evaluation, unless lo and hi are finite
    with hi > lo, resolution is an integer >= 2 and, with refine,
    refine_jump > 0.
    """
    opts = {"theta_i": theta_i, "alpha0": alpha0, "policy": policy}
    lo, hi = beta_range
    if not (math.isfinite(lo) and math.isfinite(hi)):   # linspace makes NaN and inf of them
        raise ValueError(f"beta_range must be finite, got ({lo}, {hi})")
    if not (hi > lo):
        raise ValueError("beta_range must satisfy hi > lo")
    _check_integer("resolution", resolution)
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
