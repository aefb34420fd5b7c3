"""Three-stage resonance steering toward EDIT.

Stage 1 finds the spectral parameter beta_g at which a single pinned grating
is a perfect mirror (reflectance 1) for the chosen angle of incidence.  Stage
2 places two such mirrors a separation eta apart (lengths in units of the
grating period) and tunes eta to eta* where the pair transmittance returns
to exactly 1: the pair then supports an optimized trapped mode between the
gratings, with the slab (Fabry-Perot) estimate
eta = pi m / sqrt(beta_g^2 - alpha0^2) as the starting guess.  Stage
3 inserts a central grating and tunes its lateral shift xi until the even
trapped-mode resonance of the triplet merges, in beta, with the shift-
invariant odd resonance; at the merged shift xi_edit the transmission
spectrum develops an extremely narrow notch splitting a full-transmission
peak (Elasto-Dynamically Inhibited Transmission).

Resonances are the complex zeros (poles of the response) of the two
dispersion factors of the mode matrix (the factors of det M, continued to
complex beta from the lattice sums at modes._factor_offsets).  steer
polishes the unshifted triplet's even and odd zeros directly from beta_g,
and the even one at the EDIT point from beta_edit.  Stage 3 polishes the
odd zero from beta_g too; xi_edit solves f_even(beta_odd + i s, xi) = 0 for
the two real unknowns (xi, s) by Newton's method, from the even zero
polished at the bracket's midpoint, one kernel call a step (_merge_newton).
Where that solve gives up (a merge too ill-conditioned to resolve xi to
1e-13: at numpy's AVX2 or AVX-512 level from 74 degrees at m = 1, 60 at
m = 2 and 44 at m = 3, and at 71, 57 and 41 degrees; with every dispatched
SIMD feature disabled from 74, 60 and 46 degrees, and at 59 and 41 degrees,
so the angles and xi_edit's tolerance there depend on the host), the even
zero is continued in xi over a 0.01 scan, each
seed extrapolated from the zeros already found, and xi_edit is the root, by
Brent's method, of the gap in the real parts (_edit_scan).  The window
search (a batched grid of the factor's modulus over a beta window, the zero
polished from its deepest point) serves resonance_beta alone.  steer reads
both Q factors, Re beta / 2 |Im beta|, off the poles at the EDIT point
(_dark_q); q_factor and feature_scan measure Q by FWHM on transmission
spectra.  Stages 1 and 2 are roots of real lattice-sum conditions: one
batched grid brackets each sign change, and _stencil_root closes it to the
nearest float in a few batched rounds: inverse interpolation through the
grid's values, one round of a 3-point stencil, and one round of the floats
about its estimate (the kernel's values depend only on their own inputs,
so a point's value is the same in any round; the grid's values are never
asked for again, and in steer stage 2 reads Re G(0, 0) at beta_g off stage
1's root).  Where that interpolation stalls, bracket-preserving safeguards
take over, after Brent's method (_brent_steps, a port of scipy's brentq
that _edit_scan still uses).  With one propagating order those roots give
R = 1 and T_pair = 1 to rounding, so a root is accepted when order 0 alone
propagates there (_one_order), with no scattering solve.  Every other grid
(the window search's, each of feature_scan's windows) is likewise evaluated
in one batched call.

Every search (stages 1-3, the window search and the pole polish) is a
generator that yields each kernel evaluation it needs (a _Request: the
builder or the lattice sums, its inputs as columns that are scalars or flat
arrays, taken as the search holds them wherever they need no broadcast) and
is sent its value.  _lockstep advances many of them together, one kernel
call per kind of request and round on their columns joined as flat columns,
with a few numpy calls per column (none for a lone request's flat arrays).
steer runs its chain stage by stage over every angle still running
(_stages), each stage one _lockstep of all those angles' independent
searches, and each public function runs its one search alone through the
same driver (_run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    DomainError,
    ModesDidNotMerge,
    NoUnityReflectance,
    NoUnityTransmittance,
    Unresolved,
)
from .greens import (
    DEFAULT_POLICY,
    SpectralPoint,
    TruncationPolicy,
    TWO_PI,
    _broadcast_shape,
    _flat,
    _interaction_matrices,
    _lattice_sums,
    order_quantities,
    propagating_orders,
)
from .modes import StackGeometry, _factor_from, _factor_moduli, _factor_offsets, _triplet_pins
from .scattering import (PinStack, SpectrumRecord, _alpha0_rule, _angle_error, _check_integer,
                         _records, _scan_columns)

_MERGE_TOL = 1e-7  # |beta_even - beta_odd| at xi_edit
_NEWTON_H = 1e-7        # _merge_newton's finite-difference step, in xi and in s
_NEWTON_XTOL = 1e-13    # its xi step at convergence
_NEWTON_NOISE = 1e-12   # the rounding error of xi past which it gives up
_NEWTON_STEPS = 6       # and its step cap
# How far a pole polished from a nearby seed (beta_g, beta_edit, or a pole
# continued in xi) may move: the farthest a window search over beta_g +- 0.05
# can return.
_POLE_REACH = 0.06
_MAX_ZOOM = 60    # feature_scan's window rescans before it gives up
_MIRROR_GRID = 31    # find_beta_g's bracketing grid (see find_beta_g)
_PAIR_GRID = 21      # find_eta_star's, per spread (see find_eta_star)
_STENCIL_STEP = 1e-7   # _stencil_root's refine stencil, relative to its centre
_SETTLE_FLOATS = 5     # and the floats of each of its settling rounds
_ONE_PIN = ((0.0, 0.0),)


@dataclass
class SteeringResult:
    """Per-angle output of the steering pipeline.

    Stages that were not run (or not applicable, such as EDIT tuning at
    normal incidence) leave their fields None; a failed stage stores the
    exception message in error and leaves later stages unset.
    """

    theta_i: float
    beta_g: float | None = None
    alpha0_g: float | None = None
    eta_star: float | None = None
    m_eff: float | None = None
    beta_even: float | None = None   # unshifted triplet, xi = 0
    beta_odd: float | None = None
    eta_edit: float | None = None    # outer separation of EDIT tuning (slab eta)
    xi_edit: float | None = None
    beta_edit: float | None = None
    q_notch: float | None = None     # Re beta / 2 |Im beta| of the dark (odd) pole at EDIT
    q_pair: float | None = None      # and of the bright (even) pole
    error: str | None = None


@dataclass(frozen=True)
class ResonancePeak:
    """A measured spectral feature: center, width, and quality factor."""

    beta_center: float
    fwhm: float
    q: float
    kind: str = "unknown"       # "even" | "odd" when the caller knows
    is_notch: bool = False


def default_bracket(theta_i: float | None = None,
                    alpha0: float | None = None) -> tuple[float, float]:
    """A beta bracket below the first light line for the given incidence.

    For fixed theta the first order beside n = 0 (n = -1 for theta > 0,
    n = +1 for theta < 0) turns propagating at beta = 2 pi / (1 + |sin theta|);
    for fixed alpha0 at beta = 2 pi - |alpha0|.  The bracket spans
    (0.55, 0.99) of that limit, clipped above |alpha0|.  Exactly one of
    theta_i and alpha0 is given.  Raises DomainError, before any evaluation,
    when there is no bracket: |theta_i| >= pi/2 (no incident wave), or
    |alpha0| so large (above ~3.0947) that the clipped bracket is empty.
    """
    _alpha0_rule(theta_i, alpha0)  # exactly one incidence
    if theta_i is not None:
        error = _angle_error(theta_i)
        if error is not None:
            raise error
        limit = TWO_PI / (1.0 + abs(math.sin(theta_i)))
        return 0.55 * limit, 0.99 * limit
    limit = TWO_PI - abs(alpha0)
    lo, hi = max(0.55 * limit, 1.02 * abs(alpha0)), 0.99 * limit
    if not lo < hi:
        raise DomainError(f"|alpha0| = {abs(alpha0):g} leaves no beta bracket below the "
                          f"first light line: ({lo:g}, {hi:g}) is empty")
    return lo, hi


def find_beta_g(
    theta_i: float | None = None,
    beta_bracket: tuple[float, float] | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    alpha0: float | None = None,
    coarse: int = _MIRROR_GRID,
) -> float:
    """Stage 1: beta at which the single-grating reflectance reaches 1.

    One pin per period scatters with amplitude A = -u_inc(0, 0) / G(0, 0),
    so r_0 = i s A with s = 1 / (4 beta^2 chi_0).  With one propagating
    order Im G(0, 0) = s exactly (every other order's term is real), hence
    1 - R = (Re G)^2 / |G|^2: the mirror condition is the root of Re G(0, 0).
    A grid of Re G(0, 0) over the bracket (one builder call, coarse points)
    locates its sign changes; each, in grid order, is refined to the nearest
    float (_stencil_root), where 1 - R vanishes to rounding, and the first at
    which order 0 alone propagates is returned (_one_order; with more orders
    the others carry energy and R < 1).  The grid only brackets: the float
    returned depends on it only where rounding makes the condition change
    sign more than once among the floats next to the root (see
    _stencil_root), and the default grid returns the 241-point grid's float
    at every 0.5 degree of theta in [-89, 89.5] and every 0.1 of alpha0 in
    [-2.7, 2.7].  The grid also feeds the first estimate: at 31 points the
    stencil and one settling round close the root at 175 of the 179
    integer degrees of [-89, 89], at 21 points at 37 of them.  The default
    31 points suffice on every
    default_bracket, where Re G(0, 0) is monotone with one root (checked on
    4,001 points for theta in [-89, 89.5] degrees and |alpha0| <= 2.7); a
    grid misses two roots between neighbouring points, so a caller with a
    wide custom bracket should pass a larger coarse.  Raises ValueError for
    a coarse that is not an integer or is below 2, before any evaluation,
    and NoUnityReflectance when there is
    no root (wrong bracket, or more than one propagating order).
    """
    if beta_bracket is None:
        beta_bracket = default_bracket(theta_i, alpha0)
    return _run(_mirror_search(_alpha0_rule(theta_i, alpha0), beta_bracket, policy, coarse))[0]


def _mirror_search(alpha0_at, beta_bracket, policy, coarse=_MIRROR_GRID):
    """find_beta_g's search, as lockstep steps (see _lockstep).

    Returns beta_g and Re G(0, 0) there, which stage 2 reads (_pair_search).
    """
    _check_integer("coarse", coarse)
    if coarse < 2:
        raise ValueError(f"coarse must be at least 2, got {coarse}")
    lo, hi = beta_bracket

    def re_g(betas: list[float]):
        return (yield from _re_self_terms([alpha0_at(b) for b in betas], betas, policy))

    grid = np.linspace(lo, hi, coarse).tolist()
    values = yield from re_g(grid)
    for i in _sign_changes(values):
        beta, re_g_root = yield from _stencil_root(re_g, grid, values, i)
        if _one_order(SpectralPoint(alpha0_at(beta), beta)):
            return beta, re_g_root
    raise NoUnityReflectance(
        f"no root of Re G(0, 0) in bracket ({lo:g}, {hi:g}) gives unit "
        f"reflectance; wrong bracket or multiple propagating orders"
    )


def _re_self_terms(alpha0s: list[float], betas: list[float], policy):
    """Re G(0, 0) at each point, from one single-pin builder request (a search step).

    Raises the first failure in point order.
    """
    entries, errors = yield from _built(alpha0s, betas, _ONE_PIN, policy)
    for error in filter(None, errors):
        raise error
    return entries[:, 0, 0].real


def slab_guess(beta_g: float, alpha0_g: float, m: int = 1) -> float:
    """Fabry-Perot slab estimate of the pair separation, pi m / sqrt(beta_g^2 - alpha0^2)."""
    if m < 1:
        raise ValueError(f"mode order m must be >= 1, got {m}")
    if not beta_g > abs(alpha0_g):
        raise DomainError(
            f"beta_g = {beta_g} must exceed |alpha0_g| = {abs(alpha0_g)}"
        )
    return math.pi * m / math.sqrt(beta_g * beta_g - alpha0_g * alpha0_g)


def find_eta_star(
    beta_g: float,
    eta_guess: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    theta_i: float | None = None,
    alpha0: float | None = None,
) -> float:
    """Stage 2: pair separation at which the pair transmittance returns to 1.

    Pins at y = 0 and L = eta under the wave exp(i alpha0 x + i chi_0 y)
    solve M A_1 + N A_2 = -1, N A_1 + M A_2 = -e, with M = G(0, 0),
    N = G(0, L) and e = exp(i chi_0 L), so A_1 +- A_2 = -(1 +- e) / (M +- N).
    The reflection r_0 = i s (A_1 + e A_2) vanishes where (1 + e)^2 (M - N)
    + (1 - e)^2 (M + N) = 0, that is N = M cos(chi_0 L).  With one
    propagating order Im N = s cos(chi_0 L) and Im M = s (see find_beta_g),
    so T_pair = 1 exactly where Re G(0, eta) = Re G(0, 0) cos(chi_0 eta).

    Unless order 0 alone propagates at (alpha0, beta_g) (_one_order),
    NoUnityTransmittance is raised before any evaluation.  Else that
    difference is sampled over [0.9, 1.1] * eta_guess (one kernel call),
    widening once to [0.8, 1.2], and its first sign change in grid order is
    refined to the nearest float (_stencil_root), where 1 - T vanishes to
    rounding; NoUnityTransmittance when there is none.  The guess is
    expected within 10% of the optimum (the slab model lands within ~2.5%);
    a guess that is not positive raises ValueError (G(0, -eta) = G(0, eta),
    so it would only find the mirror image of a root).

    The grid only brackets: on 4,001 points each spread of the slab guess
    holds exactly one sign change (theta in [-89, 89.5] degrees in 0.5-degree
    steps, m = 1-4), so every grid brackets the same root.  The float refined
    from it can still follow the grid where rounding makes the difference
    change sign more than once next to the root: at -30.5 degrees it reads
    -2.7e-18, +1.3e-19, -6.5e-21 and +2.5e-18 on the four floats from
    0.9958492392136643 up (24.5 degrees is alike), and the root is the first
    sign change among the floats the close evaluated, whose window the
    grid's interpolation places.  _PAIR_GRID is 21: it returns the float
    that Brent's close on 41 points returned at every 0.5 degree of
    [-89, 89.5] for m = 1-3 but one, 24.5 degrees at m = 1, which it moves
    by 1 ulp (as 41 points do with this close).
    """
    if not eta_guess > 0:
        raise ValueError(f"eta_guess must be positive, got {eta_guess}")
    a0 = _alpha0_rule(theta_i, alpha0)(beta_g)
    return _run(_pair_search(beta_g, a0, eta_guess, policy))


def _pair_search(beta_g, a0, eta_guess, policy, re_m11=None):
    """find_eta_star's search at alpha0 = a0, as lockstep steps (see _lockstep).

    re_m11 is Re G(0, 0) at (a0, beta_g) when the caller holds it (stage 1's
    value at its root); else it is one builder request.
    """
    if not _one_order(SpectralPoint(a0, beta_g)):
        raise NoUnityTransmittance(
            f"more than order 0 propagates at beta_g = {beta_g:.9g}, alpha0 = {a0:.9g}: "
            f"no separation gives unit transmittance")
    if re_m11 is None:
        (re_m11,) = yield from _re_self_terms([a0], [beta_g], policy)
    chi0 = math.sqrt(beta_g * beta_g - a0 * a0)

    def condition(etas):
        """Re G(0, eta) - Re G(0, 0) cos(chi_0 eta), zero where T_pair = 1."""
        etas = np.asarray(etas, dtype=float)
        values, _ = yield from _summed(a0, beta_g, 0.0, etas, policy)
        return values.real - re_m11 * np.cos(chi0 * etas)

    for spread in (0.1, 0.2):
        grid = np.linspace((1.0 - spread) * eta_guess, (1.0 + spread) * eta_guess,
                           _PAIR_GRID).tolist()
        values = yield from condition(grid)
        changes = _sign_changes(values)
        if changes:
            eta, _ = yield from _stencil_root(condition, grid, values, changes[0])
            return eta
    raise NoUnityTransmittance(
        f"no root of the pair condition at beta_g = {beta_g:.9g} with eta within "
        f"20% of the guess {eta_guess:.6g} gives unit transmittance"
    )


def _one_order(point: SpectralPoint) -> bool:
    """Whether order 0 alone propagates at point.

    Then every other order's term of G is real, so Im G(0, y) = s cos(chi_0 y)
    exactly (see find_beta_g and find_eta_star): R = 1 holds to rounding at
    the nearest-float root of stage 1's condition, and T_pair = 1 at stage
    2's.  With more than one propagating order the others carry energy away.
    """
    return propagating_orders(point) == [0]


def _sign_changes(values: np.ndarray) -> list[int]:
    """Each i at which values[i] and values[i + 1] differ in sign, ascending."""
    positive = values > 0
    return np.nonzero(positive[:-1] != positive[1:])[0].tolist()


class _Request:
    """An evaluation a search waits for: call(*columns, *args), keyed by (call, args, dtypes).

    Each column is a scalar or a flat array of size rows, of its dtype in
    dtypes, and the call returns two outputs with a row for each row.
    """

    __slots__ = ("key", "columns", "size")

    def __init__(self, key: tuple, columns: list, size: int) -> None:
        self.key, self.columns, self.size = key, columns, size


def _lockstep(searches: list) -> list:
    """Run independent searches together: each one's return value, or the exception it raised.

    A search is a generator that yields a _Request for every evaluation it
    needs and is sent the answer, or thrown the exception its call raised.
    Each round answers every pending request, each key's requests (one call,
    its arguments and its columns' dtypes) by _answers: one call on their
    columns joined.  The kernel's values depend only on their own inputs,
    whatever the layout (see greens), so a search gets the same floats
    whatever runs beside it, and a request that raises fails its own search
    alone.
    """
    outcomes: list = [None] * len(searches)
    pending: dict[int, _Request] = {}

    def resume(i: int, answer=None) -> None:
        try:
            pending[i] = (searches[i].throw(answer) if isinstance(answer, Exception)
                          else searches[i].send(answer))
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as exc:  # noqa: BLE001 - a failed search fails alone
            outcomes[i] = exc

    for i in range(len(searches)):
        resume(i)
    while pending:
        groups: dict[tuple, dict[int, _Request]] = {}
        for i, request in pending.items():
            groups.setdefault(request.key, {})[i] = request
        pending.clear()
        for members in groups.values():
            for i, answer in zip(members, _answers(list(members.values()))):
                resume(i, answer)
    return outcomes


def _answers(requests: list[_Request]) -> list:
    """Each request's rows of both outputs of one call on all their columns joined.

    The call gets flat columns (_joined), and each request's answer is its
    slice of each output.  When the call raises, a lone request gets the
    exception and joined ones are answered as groups of one, so a request
    that fails gets the exception its own call raises.
    """
    call, args, dtypes = requests[0].key
    sizes = [request.size for request in requests]
    columns = [_joined(parts, sizes, dtype)
               for dtype, parts in zip(dtypes, zip(*[request.columns for request in requests]))]
    try:
        first, second = call(*columns, *args)
    except Exception as exc:  # noqa: BLE001 - a failed request fails alone
        if len(requests) == 1:
            return [exc]
        return [answer for request in requests for answer in _answers([request])]
    ends = list(accumulate(sizes))
    return [(first[lo:hi], second[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def _joined(parts: tuple, sizes: list[int], dtype: np.dtype) -> np.ndarray:
    """One flat column from the requests' parts of it, each a flat array or a scalar.

    Flat arrays are concatenated (a lone one is used as it is), scalars make
    one array repeated over each one's rows, and a mix fills one array a
    request at a time: a few numpy calls per column, not per request.
    """
    flat = [isinstance(part, np.ndarray) and part.ndim == 1 for part in parts]
    if all(flat):
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
    if not any(flat):
        if len(parts) == 1:
            return np.full(sizes[0], parts[0], dtype=dtype)
        return np.array(parts, dtype=dtype).repeat(sizes)
    column = np.empty(sum(sizes), dtype=dtype)
    lo = 0
    for part, size in zip(parts, sizes):
        column[lo:lo + size] = part
        lo += size
    return column


def _value(outcome):
    """A search's return value from its outcome (see _lockstep), or raise its exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _run(search):
    """The return value of one search run alone, or the exception it raised."""
    return _value(_lockstep([search])[0])


def _built(alpha0, beta, pins: tuple, policy: TruncationPolicy):
    """_interaction_matrices(alpha0, beta, pins, policy), as a search step.

    alpha0 and beta are sequences of real points, the request's two columns
    as flat float arrays.
    """
    alpha0 = np.asarray(alpha0, dtype=float)
    return (yield _Request((_interaction_matrices, (pins, policy), (_FLOAT, _FLOAT)),
                           [alpha0, np.asarray(beta, dtype=float)], len(alpha0)))


def _summed(alpha0, beta, x, y, policy: TruncationPolicy):
    """_lattice_sums(alpha0, beta, x, y, policy), as a search step.

    The answer, values and light-line mask, takes the inputs' broadcast
    shape.  alpha0 and beta are complex when either is complex, else real
    (real sums are guarded, complex ones not).  The request keeps each input
    that is a scalar or already a flat array of the whole shape, as a
    polish's point and its offsets are, as it is: no copy, and a round
    joins them.  Any other input is broadcast to the shape and flattened.
    """
    inputs = [a if isinstance(a, _INPUT) else np.asarray(a) for a in (alpha0, beta, x, y)]
    shapes = {getattr(a, "shape", ()) for a in inputs}
    shape = _broadcast_shape(shapes)
    dtypes = _COMPLEX_SUMS if _is_complex(inputs[0]) or _is_complex(inputs[1]) else _REAL_SUMS
    if len(shape) > 1 or shapes - {(), shape}:     # some input needs a broadcast
        inputs = [_flat(a, shape, t) for a, t in zip(inputs, dtypes)]
    values, near = yield _Request((_lattice_sums, (policy,), dtypes), inputs, math.prod(shape))
    if values.shape != shape:
        values, near = values.reshape(shape), near.reshape(shape)
    return values, near


_INPUT = (float, complex, np.ndarray)     # kept as they are; others become arrays
_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)
_REAL_SUMS, _COMPLEX_SUMS = (_FLOAT,) * 4, (_COMPLEX, _COMPLEX, _FLOAT, _FLOAT)


def _is_complex(a) -> bool:
    """Whether a, a scalar or an array, is complex."""
    return isinstance(a, complex) or getattr(a, "dtype", _FLOAT).kind == "c"


def _brent_steps(f, a: float, b: float, xtol: float):
    """A root of f in [a, b], where f changes sign, to xtol + 4 eps |root|.

    A line-for-line port of the C routine under scipy.optimize.brentq
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4):
    the same tolerance, the same interpolation, extrapolation and bisection
    rules, f(a) and f(b) evaluated first and at most 100 iterations, so it
    returns brentq's float for the same f, bracket and xtol.  f(x) is a
    search step (a generator returning the value; see _lockstep).  Raises
    ValueError when f(a) and f(b) have the same sign and RuntimeError when
    100 iterations do not converge.
    """
    rtol = 4.0 * math.ulp(1.0)
    xpre, xcur = float(a), float(b)
    fpre = float((yield from f(xpre)))
    fcur = float((yield from f(xcur)))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f({a!r}) and f({b!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):       # xcur becomes the best estimate
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:   # C gives inf or nan: bisect
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float((yield from f(xcur)))
    raise RuntimeError(f"Brent's method did not converge in 100 iterations (x = {xcur!r})")


def _stencil_root(f, grid: list[float], values, i: int):
    """The float nearest the root of f in [grid[i], grid[i + 1]], where f changes sign, and f there.

    f(xs) is a search step returning f at each of the points xs in one
    request, and so is this (see _lockstep); grid ascends and values is f on
    it.  Each round is one request of a few points about an estimate x:
    - the first estimate is inverse interpolation through up to 6 grid
      values around the sign change, on which f is strictly monotone;
    - refine: x and x (1 +- _STENCIL_STEP), whose inverse quadratic
      interpolation gives the next estimate;
    - settle, once the bracket or that interpolant's reach is no wider than
      the stencil: the _SETTLE_FLOATS floats about x, now the interpolant's
      Newton step from the bracket end with the smaller |f|.
    Each round narrows the bracket to the first sign change among the
    points known in it.  An end where f is exactly 0 is returned; else two
    neighbouring floats end the search, and the one with the smaller |f| is
    returned (the lower on a tie).  Where the rounded f changes sign once
    near the root, the float returned is thus the same whatever the grid
    and the path; where it changes sign more than once among a few floats
    (stage 2's at some angles; see find_eta_star), it is the first sign
    change among the points evaluated.  On smooth f the stencil and one
    settling round close the bracket: stage 1 at 175 of the 179 integer
    degrees of [-89, 89] (173 with numpy's dispatched SIMD features
    disabled) and stage 2 at 173 to 178 of them for m = 1-3; the others
    take one more round, where the kernel's rounding puts the estimate a
    few floats off the root.

    Safeguards keep the bracket as Brent's method and the ITP method do
    (Oliveira & Takahashi, ACM TOMS 47(1), 2020), interpolating while it
    pays and bisecting where it does not: f is never evaluated at a
    known point, the grid's included, so never twice; an estimate outside
    the bracket by more than rounding gives way to the bracket's quarter
    points; a round that fails to halve the bracket adds its midpoint to the
    next round, so that the bracket halves at least every second round; and
    from the third round on, the secant through each end and the known point
    beyond it adds its own points, since interpolation across a root where
    f's slope jumps stalls at one end.
    """
    known = dict(zip(grid, values.tolist()))
    lo, hi = grid[i], grid[i + 1]
    nodes = _monotone_run(grid, values.tolist(), i)
    halve, rounds = False, 0
    while True:
        f_lo, f_hi = known[lo], known[hi]
        if f_lo == 0.0 or f_hi == 0.0:
            return (lo, f_lo) if f_lo == 0.0 else (hi, f_hi)
        if math.nextafter(lo, hi) == hi:
            return (hi, f_hi) if abs(f_hi) < abs(f_lo) else (lo, f_lo)
        x, near = _inverse_interpolation(*nodes, 0.0), lo if abs(f_lo) <= abs(f_hi) else hi
        if near not in nodes[0]:    # the interpolant's Newton step from near
            x += near - _inverse_interpolation(*nodes, known[near])
        clamped = min(max(x, lo), hi)    # nan when x is
        if abs(x - clamped) <= _SETTLE_FLOATS * math.ulp(clamped):
            points, stencil = _round_points(x, lo, hi, nodes)
        else:       # nan, or no better than a guess
            points = stencil = [lo + 0.25 * (hi - lo), lo + 0.5 * (hi - lo), hi - 0.25 * (hi - lo)]
        rounds += 1
        if rounds > 2:
            for y in _end_secants(known, lo, hi):
                points = points + _round_points(y, lo, hi, nodes)[0]
        # every point inside (lo, hi) is new: the bracket is always two
        # neighbours among the known points
        points = sorted({p for p in points + [lo + 0.5 * (hi - lo)] * halve if lo < p < hi})
        known.update(zip(points, (yield from f(points)).tolist()))
        if stencil is not None:
            kept = sorted({p for p in stencil if p in known})
            if len(kept) > 1:
                nodes = kept, [known[p] for p in kept]
        width, inside = hi - lo, [lo, *points, hi]
        j = next(j for j in range(len(inside) - 1)
                 if (known[inside[j]] > 0) != (known[inside[j + 1]] > 0))
        lo, hi = inside[j], inside[j + 1]
        halve = hi - lo > 0.5 * width


def _round_points(x: float, lo: float, hi: float, nodes):
    """_stencil_root's points about an estimate x, moved inside (lo, hi), and its stencil or None.

    None when the round settles: the bracket is no wider than the stencil,
    or the nodes are a stencil and x lies within their span of them.
    """
    x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    step, (first, *_, last) = _STENCIL_STEP * abs(x), nodes[0]
    if hi - lo <= 2.0 * step or (last - first <= 3.0 * step
                                 and 2.0 * first - last <= x <= 2.0 * last - first):
        return _floats_around(x, lo, hi, _SETTLE_FLOATS), None
    stencil = [x * (1.0 - _STENCIL_STEP), x, x * (1.0 + _STENCIL_STEP)]
    return stencil, stencil


def _end_secants(known: dict, lo: float, hi: float) -> list[float]:
    """The roots inside (lo, hi) of the secants through each bracket end and the known point beyond it."""
    ordered = sorted(known)
    roots = []
    for end, beyond in ((lo, ordered.index(lo) - 1), (hi, ordered.index(hi) + 1)):
        if 0 <= beyond < len(ordered) and known[end] != known[ordered[beyond]]:
            other = ordered[beyond]
            root = end - known[end] * (end - other) / (known[end] - known[other])
            if lo < root < hi:
                roots.append(root)
    return roots


def _monotone_run(xs: list[float], fs: list[float], i: int):
    """The nodes (xs, fs) of up to 3 points each side of the sign change at i, f strictly monotone."""
    sign = math.copysign(1.0, fs[i + 1] - fs[i])
    lo, hi = i, i + 1
    while lo > max(0, i - 2) and sign * (fs[lo] - fs[lo - 1]) > 0:
        lo -= 1
    while hi < min(len(xs) - 1, i + 3) and sign * (fs[hi + 1] - fs[hi]) > 0:
        hi += 1
    return xs[lo:hi + 1], fs[lo:hi + 1]


def _inverse_interpolation(xs: list[float], fs: list[float], y: float) -> float:
    """x at f = y on the polynomial x(f) through the nodes (Neville); nan where two fs are equal."""
    p = list(xs)
    try:
        for k in range(1, len(xs)):
            for j in range(len(xs) - k):
                p[j] = ((y - fs[j + k]) * p[j] - (y - fs[j]) * p[j + 1]) / (fs[j] - fs[j + k])
    except ZeroDivisionError:
        return math.nan
    return p[0]


def _floats_around(x: float, lo: float, hi: float, count: int) -> list[float]:
    """The floats strictly inside (lo, hi) from count // 2 below x to count // 2 above it."""
    points = [x]
    for _ in range(count // 2):
        points = [math.nextafter(points[0], lo), *points, math.nextafter(points[-1], hi)]
    return [p for p in points if lo < p < hi]


def resonance_beta(
    kind: str,
    eta: float,
    xi: float,
    beta_window: tuple[float, float],
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    theta_i: float | None = None,
    alpha0: float | None = None,
    coarse: int = 241,
) -> float:
    """Resonance centre of one dispersion factor: Re beta of its complex zero.

    kind selects the odd factor M11 - M13 or the even factor
    2 M12 M21 - M11 (M11 + M13); their complex zeros are the triplet's
    trapped-mode resonances (the zeros of det M split by parity).  Evaluates
    the factor's modulus on a coarse grid over the window (edges included)
    and polishes the zero from the deepest grid point.  Raises Unresolved
    when that polish is rejected (see _pole_search; the reach is a tenth of
    the window width), as when the window holds no resonance, and
    ValueError, before any evaluation, for an unknown kind or a coarse that
    is not an integer of at least 2.
    """
    alpha0_at = _alpha0_rule(theta_i, alpha0)
    return _run(_window_search(kind, eta, xi, beta_window, alpha0_at, policy, coarse)).real


def _window_search(kind, eta, xi, beta_window, alpha0_at, policy, coarse=241):
    """The factor's complex zero, polished from the deepest point of a window grid.

    As lockstep steps (see _lockstep): the grid's mode matrices are one
    builder request, the polish a _resolved_pole.
    """
    if kind not in ("odd", "even"):
        raise ValueError(f"kind must be 'odd' or 'even', got {kind!r}")
    _check_integer("coarse", coarse)
    if coarse < 2:
        raise ValueError(f"coarse must be at least 2, got {coarse}")
    geometry = StackGeometry(eta=eta, xi=xi)
    lo, hi = beta_window
    betas = np.linspace(lo, hi, coarse).tolist()
    entries, errors = yield from _built([alpha0_at(b) for b in betas], betas,
                                        _triplet_pins(geometry), policy)
    for error in filter(None, errors):   # the first failure in grid order
        raise error
    seed = betas[int(np.argmin(_factor_moduli(entries)[0 if kind == "odd" else 1]))]
    return (yield from _resolved_pole(kind, seed, alpha0_at, eta, xi, policy, 0.1 * (hi - lo),
                                      f"beta = {seed:.9g} in ({lo:g}, {hi:g})"))


def _pole_search(kind, beta0, alpha0_at, eta, xi, policy, max_shift):
    """Complex zero of a dispersion factor near beta0, as lockstep steps.

    On the real axis a leaky resonance leaves only a rounded minimum whose
    position is biased by up to its half linewidth; the underlying zero sits
    at complex beta, its real part is the resonance centre and |Im| its half
    linewidth.  A secant iteration (the factors are analytic, so no
    derivative bookkeeping is needed) recovers it from a real seed near the
    resonance, such as beta_g or the deepest point of a grid of the factor's
    modulus, or from a complex seed such as a pole continued from a nearby
    geometry.
    Returns None when the iteration fails to converge (60 steps, or a
    secant with no slope) or moves Re beta or |Im beta| past max_shift from
    the seed's real part; the caller decides what a rejection means.
    Convergence bounds the residual: |f| ~ |dz| |f'| <= 1e-14 |z| |f'|.
    The converged iterate itself is returned unevaluated: no caller reads its
    value, and the bound above holds without it.
    alpha0_at is the incidence's _alpha0_rule.
    """
    geometry = StackGeometry(eta=eta, xi=xi)
    xs, ys = _factor_offsets(kind, geometry)

    def f(beta: complex):
        """The factor continued to complex beta (no light-line guard), one kernel call."""
        values, _ = yield from _summed(alpha0_at(beta), beta, xs, ys, policy)
        return _factor_from(kind, values)

    seed = complex(beta0)
    z0, z1 = seed, seed + 1e-7
    # both starting values from one request, as a 2 x k grid
    starts, _ = yield from _summed(np.array([[alpha0_at(z0)], [alpha0_at(z1)]]),
                                   np.array([[z0], [z1]]), xs, ys, policy)
    f0, f1 = (_factor_from(kind, values) for values in starts)
    for _ in range(60):
        denom = f1 - f0
        if denom == 0:
            return None
        dz = -f1 * (z1 - z0) / denom
        z0, f0 = z1, f1
        z1 = z1 + dz
        if abs(dz) <= 1e-14 * abs(z1):
            break
        f1 = yield from f(z1)
        if f1 == 0:
            break
    else:
        return None
    if not (abs(z1.real - seed.real) <= max_shift and abs(z1.imag) <= max_shift and z1.real > 0):
        return None
    return complex(z1)


def _resolved_pole(kind, seed, alpha0_at, eta, xi, policy, max_shift, where):
    """_pole_search's zero, or Unresolved naming the parity and where the seed is."""
    pole = yield from _pole_search(kind, seed, alpha0_at, eta, xi, policy, max_shift)
    if pole is None:
        raise Unresolved(f"no zero of the {kind} factor within reach of {where}")
    return pole


def find_xi_edit(
    theta_i: float,
    beta_g: float,
    eta_star: float,
    xi_bracket: tuple[float, float] = (0.15, 0.30),
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[float, float]:
    """Stage 3: central-grating shift merging the even resonance into the odd.

    The odd resonance is shift-invariant (the odd factor involves only M11
    and M13, neither of which depends on xi): its pole is polished from
    beta_g, and beta_odd is its real part.  xi_edit is a root of the gap
    Re beta_even(xi) - beta_odd, where beta_even is the even factor's
    complex zero: the Newton root of f_even(beta_odd + i s, xi) = 0 in
    (xi, s) from the bracket's midpoint, to a step of 1e-13 in xi inside
    the bracket (_merge_newton).  Where Newton's method gives up, it is the
    first sign change of a scan of the gap over the bracket in steps of
    about 0.01 (a step is assumed to hold at most one sign change, as two
    would cancel unseen), closed by Brent's method (xtol 1e-9), with the
    even zero continued in xi: each seed is linear in xi through the two
    tracked poles nearest it (the one tracked pole, or the odd pole when
    none is), polished by _pole_search.  Returns (xi_edit, beta_edit),
    where beta_edit = beta_odd and |beta_even(xi_edit) - beta_odd| <= 1e-7.
    The search is _edit_search, run alone (steer runs it in lockstep with
    other angles').

    Raises ValueError, before any evaluation, unless the bracket's ends are
    finite and ascending; Unresolved, naming the parity and where the seed
    is, when a polish of the odd pole or of the scan is rejected (a rejected
    polish at the midpoint sends the search to the scan); and
    ModesDidNotMerge when the scan's gap never changes sign over the
    bracket, reporting the closest approach over the tracked poles, or,
    where that approach is a gap of exactly 0 (at m = 3 and 80 degrees every
    tracked pole's real part is beta_odd's float), that the merge is below
    double-precision resolution.
    """
    lo, hi = xi_bracket
    if not -math.inf < lo < hi < math.inf:   # NaN included
        raise ValueError(f"xi_bracket must be finite and ascending, got {xi_bracket}")
    return _run(_edit_search(_alpha0_rule(theta_i, None), beta_g, eta_star, policy,
                             xi_bracket))


def _edit_search(alpha0_at, beta_g, eta_star, policy, xi_bracket=(0.15, 0.30)):
    """find_xi_edit's search, as lockstep steps (see _lockstep).

    The odd pole is polished from beta_g; xi_edit is then _merge_newton's
    root, else _edit_scan's.
    """
    odd = yield from _resolved_pole("odd", beta_g, alpha0_at, eta_star, 0.0, policy,
                                    _POLE_REACH, f"beta_g = {beta_g:.9g}")
    xi_edit = yield from _merge_newton(odd, alpha0_at, eta_star, policy, xi_bracket)
    if xi_edit is None:
        xi_edit = yield from _edit_scan(odd, alpha0_at, eta_star, policy, xi_bracket)
    return xi_edit, odd.real


def _merge_newton(odd, alpha0_at, eta, policy, xi_bracket):
    """The root (xi, s) of f_even(beta_odd + i s, xi) by Newton's method: xi, or None.

    The even pole polished at the bracket's midpoint, seeded from the odd
    pole, gives the start.  Each step is one request of the even factor's
    entries at (xi, s) and at the finite-difference points s + h and xi + h,
    whose differences give the Jacobian.  Returns xi once its step falls
    below _NEWTON_XTOL.  Returns None (the caller falls back to _edit_scan)
    where the polish is rejected; where the Jacobian is singular or so
    ill-conditioned that a rounding error of the factor's terms would move
    xi by more than _NEWTON_NOISE (an estimate that, at every integer degree
    up to 68 and m = 1-3, exceeds the xi noise the steps settle to, 5 times
    in the median); where a step leaves the bracket or s the polish's reach;
    or where the xi steps stop shrinking within _NEWTON_STEPS.
    """
    lo, hi = xi_bracket
    xi = 0.5 * (lo + hi)
    even = yield from _pole_search("even", odd, alpha0_at, eta, xi, policy, _POLE_REACH)
    if even is None:
        return None
    beta_odd, s, h = odd.real, even.imag, _NEWTON_H
    ys = _factor_offsets("even", StackGeometry(eta=eta))[1]     # the same at every xi
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        betas = np.array([[complex(beta_odd, s)], [complex(beta_odd, s + h)],
                          [complex(beta_odd, s)]])
        xs = np.array([[xi], [xi], [xi + h]]) * np.array([0.0, 0.0, -1.0, 1.0])
        values, _ = yield from _summed(alpha0_at(betas), betas, xs, ys, policy)
        f, f_s, f_xi = (_factor_from("even", row) for row in values)
        f_s, f_xi = (f_s - f) / h, (f_xi - f) / h
        # f + f_xi dxi + f_s ds = 0 for real dxi and ds, by Cramer's rule
        det = (f_xi.conjugate() * f_s).imag
        m11, m13, m12, m21 = values[0].tolist()
        terms = abs(m11) * abs(m11 + m13) + 2.0 * abs(m12 * m21)
        if not math.ulp(1.0) * terms * abs(f_s) < _NEWTON_NOISE * abs(det):
            return None
        dxi = -(f.conjugate() * f_s).imag / det
        xi, s = xi + dxi, s + (f.conjugate() * f_xi).imag / det
        if not (lo < xi < hi and abs(s) <= _POLE_REACH):
            return None
        if abs(dxi) < _NEWTON_XTOL:
            return xi
        if not abs(dxi) < last:
            return None
        last = abs(dxi)
    return None


def _edit_scan(odd, alpha0_at, eta_star, policy, xi_bracket):
    """xi_edit on the even pole continued from the odd pole, as lockstep steps.

    find_xi_edit's fallback: the gap Re beta_even(xi) - beta_odd over the
    bracket in steps of about 0.01, each seed linear in xi through the two
    tracked poles nearest it (the odd pole when none is), and Brent's
    method (xtol 1e-9) in the first step where the gap changes sign.
    """
    beta_odd = odd.real
    track: dict[float, complex] = {}          # the even pole at each xi evaluated

    def gap(xi: float):
        """Re beta_even(xi) - beta_odd, the even pole continued from the track."""
        if xi not in track:
            seed = odd
            if track:
                # linear in xi through the two tracked poles nearest xi
                (x1, seed), *rest = sorted(track.items(), key=lambda step: abs(step[0] - xi))[:2]
                if rest:
                    x0, z0 = rest[0]
                    seed = seed + (seed - z0) * ((xi - x1) / (x1 - x0))
            track[xi] = yield from _resolved_pole("even", seed, alpha0_at, eta_star, xi, policy,
                                                  _POLE_REACH, f"xi = {xi:.9g}")
        return track[xi].real - beta_odd

    lo, hi = xi_bracket
    xs = np.linspace(lo, hi, math.ceil((hi - lo) / 0.01) + 1).tolist()
    for a, b in zip(xs, xs[1:]):
        if ((yield from gap(a)) > 0) == ((yield from gap(b)) > 0):
            continue
        xi_edit = yield from _brent_steps(gap, a, b, 1e-9)
        residual_gap = abs((yield from gap(xi_edit)))
        if residual_gap > _MERGE_TOL:
            raise ModesDidNotMerge(
                f"Brent's method left |beta_even - beta_odd| = {residual_gap:.3e}"
            )
        return float(xi_edit)
    closest, at = min((abs(pole.real - beta_odd), xi) for xi, pole in track.items())
    if closest == 0.0:   # the gap vanishes without changing sign
        zeros = sum(pole.real == beta_odd for pole in track.values())
        raise ModesDidNotMerge(
            f"beta_even - beta_odd is 0 in double precision at {zeros} of the {len(track)} "
            f"shifts tracked over xi in ({lo:g}, {hi:g}): the merge is below resolution"
        )
    raise ModesDidNotMerge(
        f"no sign change of beta_even - beta_odd over xi in ({lo:g}, {hi:g}); "
        f"closest approach {closest:.3e} at xi = {at:.6g}"
    )


def q_factor(
    spectrum: list[SpectrumRecord],
    feature: str,
    kind: str = "unknown",
) -> ResonancePeak:
    """Q = beta_center / FWHM of a peak or notch in a transmittance scan.

    For a notch the FWHM is measured at half depth, midway between the local
    plateau (the maximum over the scan window) and the notch floor; for a
    peak at half height above the window baseline.  Raises Unresolved when
    fewer than 20 scan points fall inside the half-width interval.
    """
    _check_feature(feature)
    pts = [(r.beta, r.T) for r in spectrum if r.error is None and not math.isnan(r.T)]
    if len(pts) < 5:
        raise Unresolved("spectrum has fewer than 5 valid points")
    pts.sort()
    beta = np.array([b for b, _ in pts])
    t = np.array([v for _, v in pts])
    i0, level, inside = _half_level(t, feature)
    if i0 in (0, len(t) - 1) or not inside[i0]:
        raise Unresolved("feature extremum sits on the scan boundary")

    def crossing(i_from: int, step: int) -> float:
        i = i_from
        while 0 <= i + step < len(t) and inside[i + step]:
            i += step
        j = i + step
        if j < 0 or j >= len(t):
            raise Unresolved("half-width crossing outside the scan window")
        # linear interpolation of the T = level crossing
        frac = (level - t[i]) / (t[j] - t[i])
        return float(beta[i] + frac * (beta[j] - beta[i]))

    left = crossing(i0, -1)
    right = crossing(i0, +1)
    across = int(np.sum(inside & (beta >= left) & (beta <= right)))
    if across < 20:
        raise Unresolved(
            f"only {across} scan points across the half-width; need >= 20"
        )
    fwhm = right - left
    center = float(beta[i0])
    return ResonancePeak(beta_center=center, fwhm=fwhm, q=center / fwhm,
                         kind=kind, is_notch=(feature == "notch"))


def _check_feature(feature: str) -> None:
    """Raise ValueError unless feature is "peak" or "notch"."""
    if feature not in ("peak", "notch"):
        raise ValueError(f"feature must be 'peak' or 'notch', got {feature!r}")


def _half_level(t: np.ndarray, feature: str) -> tuple[int, float, np.ndarray]:
    """The extremum of T, its half-width level and the points past that level.

    A notch's level is half depth, midway between the window's maximum and
    the floor; a peak's half height above the window's minimum.
    """
    if feature == "notch":
        i0 = int(np.argmin(t))
        level = 0.5 * (np.max(t) + t[i0])
        return i0, level, t < level
    i0 = int(np.argmax(t))
    level = 0.5 * (np.min(t) + t[i0])
    return i0, level, t > level


def feature_scan(
    stack: PinStack,
    center: float,
    halfwidth: float,
    feature: str,
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    theta_i: float | None = None,
    alpha0: float | None = None,
    points: int = 1001,
) -> list[SpectrumRecord]:
    """Zoom onto a spectral feature until its half-width is well resolved.

    Repeatedly scans a uniform beta window, re-centers on the extremum of T
    and shrinks (or grows) the window toward ~12 half-widths until at least
    40 points fall inside the half-width interval, at most half the window.
    Used for Q measurement of features narrower than any practical uniform
    scan (EDIT notches reach Q ~ 1e9..1e10).  Each window is a scan read as
    columns (scattering._scan_columns); returns the last window's scan
    records.  A point of a window that fails to evaluate raises Unresolved.
    A feature other than "peak" or "notch", a center or halfwidth that is
    not a positive finite number, or points that is not an integer or is
    below 80 (which can never hold 40 inside half the window), raises
    ValueError before any scan.
    """
    _check_feature(feature)
    if not 0.0 < center < math.inf:   # NaN included; beta <= 0 has no incident wave
        raise ValueError(f"center must be positive and finite, got {center}")
    if not 0.0 < halfwidth < math.inf:   # NaN included; 0 rescans one point
        raise ValueError(f"halfwidth must be positive and finite, got {halfwidth}")
    _check_integer("points", points)
    if not points >= 80:
        raise ValueError(f"points must be at least 80, got {points}")
    center0 = center
    for _ in range(_MAX_ZOOM):
        # anchor the give-up test to the starting point so neither a boundary
        # extremum nor a drifting baseline minimum can walk the window
        # arbitrarily far from the requested feature
        if halfwidth > 0.2 * center0 or abs(center - center0) > 0.2 * center0:
            raise Unresolved(
                f"no {feature} found near beta = {center0:.9g}; window grew "
                f"to +-{halfwidth:.3g} without bracketing an extremum"
            )
        window = np.linspace(center - halfwidth, center + halfwidth, points)
        columns = _scan_columns(stack, window, theta_i, alpha0, policy)
        if columns.errors.count(None) < len(columns.errors):
            bad = next(i for i, e in enumerate(columns.errors) if e is not None)
            error = columns.errors[bad]
            raise Unresolved(f"{feature} scan failed at beta = "
                             f"{window[bad]:.9g}: {type(error).__name__}: {error}")
        ts = columns.T
        i0, _, inside = _half_level(ts, feature)
        across = int(np.sum(inside))
        center = float(window[i0])
        if i0 in (0, len(ts) - 1):
            halfwidth *= 3.0          # feature fell off the edge; widen
            continue
        if not inside[i0] or across < 3:
            halfwidth *= 0.1          # feature unresolved; tighten toward center
            continue
        frac = across / len(ts)
        if across >= 40 and 0.05 <= frac <= 0.5:
            return _records(columns)
        # aim for the half-width spanning ~1/8 of the window
        est_width = max(frac, 2.0 / len(ts)) * 2.0 * halfwidth
        halfwidth = min(max(4.0 * est_width, 20.0 * 2.0 * halfwidth / points),
                        halfwidth * 3.0)
    raise Unresolved(f"feature near beta = {center:.9g} not resolved after zooming")


def steer(
    theta_list: list[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    m: int = 1,
    with_modes: bool = True,
    with_edit: bool = False,
    with_q: bool = False,
) -> list[SteeringResult]:
    """Run the steering pipeline for each angle, collecting per-angle results.

    Stages: beta_g and eta_star always; the unshifted triplet's even/odd
    resonance pair (at eta_star) when with_modes, each pole polished
    directly from beta_g (no window search; Unresolved when rejected); EDIT
    shift tuning when with_edit (find_xi_edit's Newton root, or its root on
    the continued even pole, no window search either); notch and outer-pair Q factors off the
    poles, with no scan, when with_q (implies with_edit; Unresolved when the
    even pole polished from beta_edit is rejected).  EDIT tuning and its Q
    factors run at the slab separation eta_edit = slab_guess(beta_g,
    alpha0_g, m), as in the paper's EDIT construction.  Failures are
    recorded per angle and do not stop the sweep; EDIT tuning is skipped at
    normal incidence (the merge needs a lateral shift under an oblique wave).

    Each stage runs over every angle still running, as one _lockstep of all
    their searches (_stages): beta_g, then eta_star, then the unshifted
    pair's two polishes beside xi_edit, then the even pole at beta_edit
    beside q_notch (_dark_q).  Each round evaluates every pending step in one
    kernel call per kind, with the same floats and errors as one angle's
    stages run one by one.  Each angle's fields are filled in stage order,
    and the first stage that failed there, as "Class: message", becomes its
    error, leaving every later field unset and running no later stage
    there.  A mode order m that is not an integer, or is below 1, raises
    ValueError before any evaluation.
    """
    _check_integer("mode order m", m)   # a fractional m would fail stage 2 at every angle
    if m < 1:   # every angle's slab guess would refuse it
        raise ValueError(f"mode order m must be >= 1, got {m}")
    with_edit = with_edit or with_q
    results = [SteeringResult(theta_i=theta) for theta in theta_list]
    rules, guesses = {}, {}     # each angle's alpha0 rule and slab separation

    def start(i, _):
        res = results[i]
        rules[i] = _alpha0_rule(res.theta_i, None)
        return [_mirror_search(rules[i], default_bracket(res.theta_i), policy)]

    def after_mirror(i, outcomes):
        res = results[i]
        res.beta_g, re_m11 = _value(outcomes[0])
        res.alpha0_g = rules[i](res.beta_g)
        guesses[i] = slab_guess(res.beta_g, res.alpha0_g, m)
        return [_pair_search(res.beta_g, res.alpha0_g, guesses[i], policy, re_m11)]

    def after_pair(i, outcomes):
        res = results[i]
        res.eta_star = _value(outcomes[0])
        res.m_eff = res.eta_star * math.sqrt(res.beta_g**2 - res.alpha0_g**2) / math.pi
        searches = [_resolved_pole(kind, res.beta_g, rules[i], res.eta_star, 0.0, policy,
                                   _POLE_REACH, f"beta_g = {res.beta_g:.9g}")
                    for kind in ("odd", "even") if with_modes]
        if with_edit and res.theta_i != 0.0:
            searches.append(_edit_search(rules[i], res.beta_g, guesses[i], policy))
        return searches

    def after_edit(i, outcomes):
        res = results[i]
        for kind, pole in zip(("odd", "even"), outcomes[:2] if with_modes else ()):
            setattr(res, f"beta_{kind}", _value(pole).real)
        if not with_edit:
            return []
        if res.theta_i == 0.0:
            res.error = "EDIT unsupported at normal incidence"
            return []
        res.eta_edit = guesses[i]
        res.xi_edit, res.beta_edit = _value(outcomes[-1])
        if not with_q:
            return []
        return [_resolved_pole("even", res.beta_edit, rules[i], res.eta_edit, res.xi_edit,
                               policy, _POLE_REACH, f"beta_edit = {res.beta_edit:.9g}"),
                _dark_q(res.beta_edit, rules[i], res.eta_edit, policy)]

    def after_q(i, outcomes):
        if outcomes:
            res = results[i]
            even = _value(outcomes[0])
            res.q_notch = _value(outcomes[1])
            res.q_pair = even.real / (2.0 * abs(even.imag))
        return []

    _stages(results, (start, after_mirror, after_pair, after_edit, after_q))
    return results


def _stages(results: list[SteeringResult], steps) -> None:
    """Run steer's chain stage by stage over every angle still running.

    step(i, outcomes) fills angle i's fields from the outcomes of its
    searches in the stage before (none before the first) and returns its
    searches of the next stage; every angle's run in one _lockstep.  An
    exception a step raises becomes the angle's error, "Class: message",
    and an angle with an error runs no later step.
    """
    outcomes = {i: [] for i in range(len(results))}
    for step in steps:
        searches = {}
        for i, done in outcomes.items():
            try:
                batch = step(i, done)
            except Exception as exc:  # noqa: BLE001 - a failed stage fails its own angle alone
                results[i].error = f"{type(exc).__name__}: {exc}"
            else:
                if results[i].error is None:
                    searches[i] = batch
        flat = _lockstep([search for batch in searches.values() for search in batch])
        ends = list(accumulate(len(batch) for batch in searches.values()))
        outcomes = {i: flat[lo:hi] for i, lo, hi in zip(searches, [0] + ends, ends)}


def _dark_q(beta, alpha0_at, eta, policy):
    """beta / 2 |Im beta| of the odd pole at Re beta, as lockstep steps.

    To first order Im beta = -Im f / (d/dbeta) Re f at beta, for the odd
    factor f = M11 - M13 = G(0, 0) - G(0, 2 eta).  Only the propagating
    orders' terms of G(0, y) are complex (see _one_order), so Im f = sum
    sin^2(chi_n eta) / (2 beta^2 chi_n) over them exactly, with no
    cancellation however near the real axis the pole sits.  The slope is a
    central difference over beta +- 1e-6 beta, one request.
    """
    point, h = SpectralPoint(alpha0_at(beta), beta), 1e-6 * beta
    chis = [order_quantities(point, n).chi_n.real for n in propagating_orders(point)]
    im_f = sum(math.sin(chi * eta) ** 2 / (2.0 * beta * beta * chi) for chi in chis)
    xs, ys = _factor_offsets("odd", StackGeometry(eta=eta, xi=0.0))
    values, _ = yield from _summed(np.array([[alpha0_at(beta - h)], [alpha0_at(beta + h)]]),
                                   np.array([[beta - h], [beta + h]]), xs, ys, policy)
    below, above = (_factor_from("odd", row).real for row in values)
    return beta * abs(above - below) / (4.0 * h * im_f)
