"""Three-stage resonance steering toward EDIT.

Stage 1 finds the spectral parameter beta_g at which a single pinned grating
is a perfect mirror (reflectance 1) for the chosen angle of incidence.  Stage
2 places two such mirrors a separation eta d apart and tunes eta to eta*
where the pair transmittance returns to exactly 1: the pair then supports an
optimized trapped mode between the gratings, with the slab (Fabry-Perot)
estimate eta = pi m / sqrt(beta_g^2 - alpha0^2) as the starting guess.  Stage
3 inserts a central grating and tunes its lateral shift xi until the even
trapped-mode resonance of the triplet merges, in beta, with the shift-
invariant odd resonance; at the merged shift xi_edit the transmission
spectrum develops an extremely narrow notch splitting a full-transmission
peak (Elasto-Dynamically Inhibited Transmission).

Resonances are the complex zeros (poles of the response) of the two
dispersion factors of the mode matrix (the factors of det M, continued by
modes._factor_complex).  steer polishes the unshifted triplet's even and
odd zeros directly from beta_g, and those at the EDIT point from beta_edit.
The window search (a batched grid of the factor's modulus over a beta
window, the zero polished from its deepest point) serves only
resonance_beta and stage 3: find_xi_edit runs it to seed the even zero,
where continuing it fails, and for the final bisection; between scan steps
of xi it continues the zero itself, from a seed extrapolated in xi.
Quality factors are measured on transmission spectra by FWHM, swept with
scattering.scan (feature_scan zooms with it; steer's envelope is a
spectrum_scan).  Stages 1 and 2 are roots of real lattice-sum conditions:
one batched grid brackets each sign change, and Brent's method
(_brent_root, a port of scipy's brentq) refines it to the nearest float on
the single-point function, whose values equal the batched ones exactly (the
grid's values serve the bracket's two ends).  Every other grid (the window
search's, each scan) is likewise evaluated in one batched call.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

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
    _interaction_matrices,
    _lattice_sums,
    greens,
)
from .modes import StackGeometry, _factor_complex, _factor_moduli, _mode_matrices
from .scattering import (PinStack, SpectrumRecord, _alpha0_rule, scan,
                         single_grating_reflectance, spectrum_scan, transmittance)

_R_TOL = 1e-10   # 1 - R_g at beta_g ("to at least ten decimal places")
_T_TOL = 1e-8    # 1 - T_pair at eta*
_MERGE_TOL = 1e-7  # |beta_even - beta_odd| at xi_edit
_BETA_WINDOW_HALFWIDTH = 0.05   # find_xi_edit's window searches, beta +- this
# How far a pole polished from a nearby real seed (beta_g, beta_edit) may
# move: the farthest a window search over beta_g +- 0.05 can return.
_POLE_REACH = 0.06
_MAX_ZOOM = 60    # feature_scan's window rescans before it gives up


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
    q_notch: float | None = None
    q_pair: float | None = None
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
    (0.55, 0.99) of that limit, clipped above |alpha0|.
    """
    if theta_i is not None:
        limit = TWO_PI / (1.0 + abs(math.sin(theta_i)))
        return 0.55 * limit, 0.99 * limit
    if alpha0 is None:
        raise ValueError("specify theta_i or alpha0")
    limit = TWO_PI - abs(alpha0)
    lo = max(0.55 * limit, 1.02 * abs(alpha0))
    return lo, 0.99 * limit


def find_beta_g(
    theta_i: float | None = None,
    beta_bracket: tuple[float, float] | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    alpha0: float | None = None,
    coarse: int = 241,
) -> float:
    """Stage 1: beta at which the single-grating reflectance reaches 1.

    One pin per period scatters with amplitude A = -u_inc(0, 0) / G(0, 0),
    so r_0 = i s A with s = 1 / (4 d beta^2 chi_0).  With one propagating
    order Im G(0, 0) = s exactly (every other order's term is real), hence
    1 - R = (Re G)^2 / |G|^2: the mirror condition is the root of Re G(0, 0).
    A grid of Re G(0, 0) over the bracket (one builder call) locates its sign
    changes; each, in grid order, is refined to the nearest float
    (_nearest_root) and the first with 1 - R <= 1e-10 is returned.  Raises
    NoUnityReflectance when there is none (wrong bracket, or more than one
    propagating order).
    """
    if beta_bracket is None:
        beta_bracket = default_bracket(theta_i, alpha0)
    lo, hi = beta_bracket
    alpha0_at = _alpha0_rule(theta_i, alpha0)

    def re_g(betas: list[float]) -> np.ndarray:
        """Re G(0, 0) at each beta, from one builder call."""
        entries, errors = _interaction_matrices([alpha0_at(b) for b in betas], betas,
                                                1.0, [(0.0, 0.0)], policy)
        for error in filter(None, errors):   # the first failure in grid order
            raise error
        return entries[:, 0, 0].real

    grid = np.linspace(lo, hi, coarse).tolist()
    values = re_g(grid)
    for i in _sign_changes(values):
        beta = _nearest_root(lambda b: re_g([b])[0], grid[i], grid[i + 1],
                             values[i], values[i + 1])
        point = SpectralPoint(alpha0_at(beta), beta)
        if 1.0 - single_grating_reflectance(point, policy) <= _R_TOL:
            return beta
    raise NoUnityReflectance(
        f"no root of Re G(0, 0) in bracket ({lo:g}, {hi:g}) gives unit "
        f"reflectance; wrong bracket or multiple propagating orders"
    )


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
    coarse: int = 41,
) -> float:
    """Stage 2: pair separation at which the pair transmittance returns to 1.

    Pins at y = 0 and L = eta d under the wave exp(i alpha0 x + i chi_0 y)
    solve M A_1 + N A_2 = -1, N A_1 + M A_2 = -e, with M = G(0, 0),
    N = G(0, L) and e = exp(i chi_0 L), so A_1 +- A_2 = -(1 +- e) / (M +- N).
    The reflection r_0 = i s (A_1 + e A_2) vanishes where (1 + e)^2 (M - N)
    + (1 - e)^2 (M + N) = 0, that is N = M cos(chi_0 L).  With one
    propagating order Im N = s cos(chi_0 L) and Im M = s (see find_beta_g),
    so T_pair = 1 exactly where Re G(0, eta d) = Re G(0, 0) cos(chi_0 eta d).

    That difference is sampled over [0.9, 1.1] * eta_guess (one kernel
    call), widening once to [0.8, 1.2]; each sign change, in grid order, is
    refined to the nearest float (_nearest_root) and the first with
    1 - T <= 1e-8 is returned, else NoUnityTransmittance is raised.  The
    guess is expected within 10% of the optimum (the slab model lands
    within ~2.5%).
    """
    a0 = _alpha0_rule(theta_i, alpha0)(beta_g)
    point = SpectralPoint(a0, beta_g)
    re_m11 = greens(point, 0.0, 0.0, policy).real
    chi0 = math.sqrt(beta_g * beta_g - a0 * a0)

    def condition(etas):
        """Re G(0, eta d) - Re G(0, 0) cos(chi_0 eta d), zero where T_pair = 1."""
        ys = np.multiply(etas, point.d)
        values, _ = _lattice_sums(a0, beta_g, point.d, 0.0, ys, policy)
        return values.real - re_m11 * np.cos(chi0 * ys)

    for spread in (0.1, 0.2):
        grid = np.linspace((1.0 - spread) * eta_guess, (1.0 + spread) * eta_guess,
                           coarse).tolist()
        values = condition(grid)
        for i in _sign_changes(values):
            eta = _nearest_root(lambda e: float(condition(e)), grid[i], grid[i + 1],
                                values[i], values[i + 1])
            t = transmittance(PinStack.pair(eta), beta_g, alpha0=a0, policy=policy)
            if 1.0 - t <= _T_TOL:
                return eta
    raise NoUnityTransmittance(
        f"no root of the pair condition at beta_g = {beta_g:.9g} with eta within "
        f"20% of the guess {eta_guess:.6g} gives unit transmittance"
    )


def _sign_changes(values: np.ndarray) -> list[int]:
    """Each i at which values[i] and values[i + 1] differ in sign, ascending."""
    positive = values > 0
    return np.nonzero(positive[:-1] != positive[1:])[0].tolist()


def _brent_root(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f changes sign, to xtol + 4 eps |root|.

    A line-for-line port of the C routine under scipy.optimize.brentq
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4):
    the same tolerance, the same interpolation, extrapolation and bisection
    rules, f(a) and f(b) evaluated first and at most 100 iterations, so it
    returns brentq's float for the same f, bracket and xtol.  Raises
    ValueError when f(a) and f(b) have the same sign and RuntimeError when
    100 iterations do not converge.
    """
    rtol = 4.0 * math.ulp(1.0)
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
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
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge in 100 iterations (x = {xcur!r})")


def _nearest_root(f: Callable[[float], float], a: float, b: float,
                  fa: float, fb: float) -> float:
    """The float nearest the root of f in [a, b], where f changes sign.

    fa and fb are f(a) and f(b) from the bracketing grid; f is never
    evaluated at a or b.  _brent_root narrows the bracket to a few ulp;
    stepping float by float from its answer to the sign change then returns
    whichever of the two straddling floats has the smaller |f|, so the
    result does not depend on where Brent's method stopped, and hence on
    neither the bracket nor the grid.
    """
    known = {a: fa, b: fb}

    def g(x: float) -> float:
        return known[x] if x in known else f(x)

    x = _brent_root(g, a, b, 1e-15)
    fx = g(x)
    toward = b if (fx > 0) == (fa > 0) else a
    while fx != 0.0:
        y = math.nextafter(x, toward)
        fy = g(y)
        if (fy > 0) != (fx > 0) or fy == 0.0:
            return y if abs(fy) < abs(fx) else x
        x, fx = y, fy
    return x


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
    when that polish is rejected (see _factor_pole; the reach is a tenth of
    the window width), as when the window holds no resonance.
    """
    return _window_search(kind, eta, xi, beta_window, policy, theta_i=theta_i,
                          alpha0=alpha0, coarse=coarse).real


def _polish_reach(beta_window: tuple[float, float]) -> float:
    """How far a polished pole may move from its seed in a window search."""
    return 0.1 * (beta_window[1] - beta_window[0])


def _window_search(kind, eta, xi, beta_window, policy=DEFAULT_POLICY, *, theta_i=None,
                   alpha0=None, coarse=241) -> complex:
    """The factor's complex zero, polished from the deepest point of a window grid."""
    if kind not in ("odd", "even"):
        raise ValueError(f"kind must be 'odd' or 'even', got {kind!r}")
    geometry = StackGeometry(eta=eta, xi=xi)
    alpha0_at = _alpha0_rule(theta_i, alpha0)
    lo, hi = beta_window
    betas = np.linspace(lo, hi, coarse).tolist()
    entries, errors = _mode_matrices([alpha0_at(b) for b in betas], betas,
                                     geometry, policy)
    for error in filter(None, errors):   # the first failure in grid order
        raise error
    seed = betas[int(np.argmin(_factor_moduli(entries)[0 if kind == "odd" else 1]))]
    return _polished_pole(kind, seed, alpha0_at, eta, xi, policy,
                          _polish_reach(beta_window), f"beta = {seed:.9g} in ({lo:g}, {hi:g})")


def _factor_pole(kind: str, beta0: complex, alpha0_at: Callable[[complex], complex],
                 eta: float, xi: float, policy: TruncationPolicy,
                 max_shift: float) -> complex | None:
    """Complex zero of a dispersion factor near beta0.

    On the real axis a leaky resonance leaves only a rounded minimum whose
    position is biased by up to its half linewidth; the underlying zero sits
    at complex beta, its real part is the resonance centre and |Im| its half
    linewidth.  A secant iteration (the factors are analytic, so no
    derivative bookkeeping is needed) recovers it from a real seed near the
    resonance, such as beta_g or the deepest point of a grid of the factor's
    modulus, or from a complex seed such as a pole continued from a nearby
    geometry.
    Returns None when the iteration fails to converge, does not halve the
    seed's residual, or moves Re beta or |Im beta| past max_shift from the
    seed's real part; the caller decides what a rejection means.
    alpha0_at is the incidence's _alpha0_rule.
    """

    geometry = StackGeometry(eta=eta, xi=xi)

    def f(beta: complex) -> complex:
        return _factor_complex(kind, alpha0_at(beta), beta, geometry, policy)

    seed = complex(beta0)
    z0, z1 = seed, seed + 1e-7
    f0, f1 = f(z0), f(z1)
    start = abs(f0)
    for _ in range(60):
        denom = f1 - f0
        if denom == 0:
            return None
        dz = -f1 * (z1 - z0) / denom
        z0, f0 = z1, f1
        z1 = z1 + dz
        f1 = f(z1)
        if abs(dz) <= 1e-14 * abs(z1) or f1 == 0:
            break
    else:
        return None
    if not (abs(f1) < 0.5 * start and abs(z1.real - seed.real) <= max_shift
            and abs(z1.imag) <= max_shift and z1.real > 0):
        return None
    return complex(z1)


def _polished_pole(kind, seed, alpha0_at, eta, xi, policy, max_shift, where) -> complex:
    """_factor_pole's zero, or Unresolved naming the parity and where the seed is."""
    pole = _factor_pole(kind, seed, alpha0_at, eta, xi, policy, max_shift)
    if pole is None:
        raise Unresolved(f"no zero of the {kind} factor within reach of {where}")
    return pole


def find_xi_edit(
    theta_i: float,
    beta_g: float,
    eta_star: float,
    xi_bracket: tuple[float, float] = (0.15, 0.30),
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    xi_step: float = 1e-3,
) -> tuple[float, float]:
    """Stage 3: central-grating shift merging the even resonance into the odd.

    The odd resonance beta_odd is shift-invariant (the odd factor involves
    only M11 and M13, neither of which depends on xi).  The even resonance
    beta_even(xi) is tracked while xi steps across the bracket: the even
    factor's complex zero is continued from step to step, its seed
    extrapolated linearly in xi from the two nearest tracked poles and
    polished by _factor_pole.  resonance_beta's window search runs only at
    the first step and wherever the continued secant is rejected (the track
    then restarts from the zero that search polished).  A sign change of the gap
    beta_even - beta_odd is closed by bisection on resonance_beta itself.
    The window searches span beta +- 0.05, around beta_g for the odd
    resonance and around beta_odd for the even one.  Returns (xi_edit,
    beta_edit) with |beta_even(xi_edit) - beta_odd| <= 1e-7.

    Raises ModesDidNotMerge (reporting the closest approach) when the gap
    never changes sign over the bracket.
    """
    window = (beta_g - _BETA_WINDOW_HALFWIDTH, beta_g + _BETA_WINDOW_HALFWIDTH)
    beta_odd = resonance_beta("odd", eta_star, 0.0, window,
                              policy, theta_i=theta_i)
    even_window = (beta_odd - _BETA_WINDOW_HALFWIDTH,
                   beta_odd + _BETA_WINDOW_HALFWIDTH)
    alpha0_at = _alpha0_rule(theta_i, None)
    track: list[tuple[float, complex]] = []   # (xi, even pole) of the scan steps

    def gap(xi: float) -> float:
        return resonance_beta("even", eta_star, xi, even_window,
                              policy, theta_i=theta_i) - beta_odd

    def scan_gap(xi: float) -> float:
        """gap(xi) at a scan step, from the even pole continued along the track."""
        if track:
            x1, seed = track[-1]
            if len(track) > 1:        # linear in xi through the two nearest poles
                x0, z0 = track[-2]
                seed = seed + (seed - z0) * ((xi - x1) / (x1 - x0))
            pole = _factor_pole("even", seed, alpha0_at, eta_star, xi, policy,
                                _polish_reach(even_window))
            if pole is not None and even_window[0] < pole.real < even_window[1]:
                track.append((xi, pole))
                return pole.real - beta_odd
        pole = _window_search("even", eta_star, xi, even_window, policy, theta_i=theta_i)
        track.append((xi, pole))
        return pole.real - beta_odd

    lo, hi = xi_bracket
    n_steps = max(2, int(math.ceil((hi - lo) / xi_step)) + 1)
    xs = np.linspace(lo, hi, n_steps)
    g_prev = scan_gap(float(xs[0]))
    best = (abs(g_prev), float(xs[0]))
    for x in xs[1:]:
        g_here = scan_gap(float(x))
        if abs(g_here) < best[0]:
            best = (abs(g_here), float(x))
        if np.sign(g_here) != np.sign(g_prev):
            xi_edit = _brent_root(gap, float(x) - (hi - lo) / (n_steps - 1),
                                  float(x), 1e-9)
            residual_gap = abs(gap(xi_edit))
            if residual_gap > _MERGE_TOL:
                raise ModesDidNotMerge(
                    f"bisection left |beta_even - beta_odd| = {residual_gap:.3e}"
                )
            return float(xi_edit), float(beta_odd)
        g_prev = g_here
    raise ModesDidNotMerge(
        f"no sign change of beta_even - beta_odd over xi in ({lo:g}, {hi:g}); "
        f"closest approach {best[0]:.3e} at xi = {best[1]:.6g}"
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
    if feature not in ("peak", "notch"):
        raise ValueError(f"feature must be 'peak' or 'notch', got {feature!r}")
    pts = [(r.beta, r.T) for r in spectrum if r.error is None and not math.isnan(r.T)]
    if len(pts) < 5:
        raise Unresolved("spectrum has fewer than 5 valid points")
    pts.sort()
    beta = np.array([b for b, _ in pts])
    t = np.array([v for _, v in pts])
    if feature == "notch":
        i0 = int(np.argmin(t))
        level = 0.5 * (np.max(t) + t[i0])
        inside = t < level
    else:
        i0 = int(np.argmax(t))
        level = 0.5 * (np.min(t) + t[i0])
        inside = t > level
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
    40 points fall inside the half-width interval.  Used for Q measurement
    of features narrower than any practical uniform scan (EDIT notches reach
    Q ~ 1e9..1e10).  Returns the last window's scan records; a point of a
    window that fails to evaluate raises Unresolved.
    """
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
        records = scan(stack, window, theta_i=theta_i, alpha0=alpha0,
                       policy=policy)
        bad = next((r for r in records if r.error is not None), None)
        if bad is not None:
            raise Unresolved(f"{feature} scan failed at beta = "
                             f"{bad.beta:.9g}: {bad.error}")
        ts = np.array([r.T for r in records])
        i0 = int(np.argmin(ts)) if feature == "notch" else int(np.argmax(ts))
        if feature == "notch":
            level = 0.5 * (np.max(ts) + ts[i0])
            inside = ts < level
        else:
            level = 0.5 * (np.min(ts) + ts[i0])
            inside = ts > level
        across = int(np.sum(inside))
        center = records[i0].beta
        if i0 in (0, len(ts) - 1):
            halfwidth *= 3.0          # feature fell off the edge; widen
            continue
        if not inside[i0] or across < 3:
            halfwidth *= 0.1          # feature unresolved; tighten toward center
            continue
        frac = across / len(ts)
        if across >= 40 and 0.05 <= frac <= 0.5:
            return records
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
    shift tuning when with_edit; notch and outer-pair Q factors when with_q
    (implies with_edit), from both poles polished from beta_edit: the darker
    labels the notch, 12 half-linewidths of the brighter size the envelope
    scan (Unresolved when either is rejected).  EDIT tuning and its Q
    factors run at the slab separation eta_edit = slab_guess(beta_g,
    alpha0_g, m), as in the paper's EDIT construction.  Failures are
    recorded per angle and do not stop the sweep.  EDIT tuning is skipped at
    normal incidence (no even/odd merging without a symmetry-breaking
    lateral shift relative to an oblique wave).
    """
    results = []
    for theta in theta_list:
        res = SteeringResult(theta_i=theta)
        results.append(res)
        try:
            res.beta_g = find_beta_g(theta, policy=policy)
            alpha0_at = _alpha0_rule(theta, None)
            res.alpha0_g = alpha0_at(res.beta_g)
            chi0 = math.sqrt(res.beta_g**2 - res.alpha0_g**2)
            guess = slab_guess(res.beta_g, res.alpha0_g, m)
            res.eta_star = find_eta_star(res.beta_g, guess, policy, theta_i=theta)
            res.m_eff = res.eta_star * chi0 / math.pi
            if with_modes or with_edit or with_q:
                for kind in ("odd", "even"):
                    pole = _polished_pole(kind, res.beta_g, alpha0_at, res.eta_star, 0.0,
                                          policy, _POLE_REACH, f"beta_g = {res.beta_g:.9g}")
                    setattr(res, f"beta_{kind}", pole.real)
            if (with_edit or with_q):
                if theta == 0.0:
                    res.error = "EDIT unsupported at normal incidence"
                    continue
                res.eta_edit = guess
                res.xi_edit, res.beta_edit = find_xi_edit(
                    theta, res.beta_g, res.eta_edit, policy=policy)
                if with_q:
                    # the merged resonance is the notch centre, labelled by
                    # the darker pole (smaller |Im|)
                    poles = {k: _polished_pole(k, res.beta_edit, alpha0_at, res.eta_edit,
                                               res.xi_edit, policy, _POLE_REACH,
                                               f"beta_edit = {res.beta_edit:.9g}")
                             for k in ("odd", "even")}
                    dark, bright = sorted(poles, key=lambda k: abs(poles[k].imag))
                    triplet = PinStack.triplet(res.eta_edit, res.xi_edit)
                    notch = feature_scan(triplet, res.beta_edit, 1e-7, "notch",
                                         policy, theta_i=theta)
                    res.q_notch = q_factor(notch, "notch", kind=dark).q
                    # The broad envelope the notch splits is the outer-pair
                    # cavity mode; its half-linewidth comes from the bright
                    # pole.  An even point count keeps the needle at the
                    # window centre from puncturing the envelope samples.
                    hw = 12.0 * abs(poles[bright].imag)
                    env = spectrum_scan(triplet, (res.beta_edit - hw, res.beta_edit + hw),
                                        theta_i=theta, resolution=2000, policy=policy)
                    res.q_pair = q_factor(env, "peak", kind=bright).q
        except Exception as exc:  # noqa: BLE001 - per-angle failures recorded
            res.error = f"{type(exc).__name__}: {exc}"
    return results
