"""Steering pipeline: mirror tuning, pair tuning, shift tuning, Q factors."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from pinstacks import modes, scattering
from pinstacks.cli import TABLE1_ANGLES_DEG
from pinstacks.errors import (
    DomainError,
    LightLineProximity,
    ModesDidNotMerge,
    NoUnityReflectance,
    NoUnityTransmittance,
    Unresolved,
)
from pinstacks.greens import DEFAULT_POLICY, SpectralPoint, greens, propagating_orders
from pinstacks.scattering import (
    IncidentWave,
    PinStack,
    SpectrumRecord,
    scan,
    scatter,
    single_grating_reflectance,
    spectrum_scan,
    transmittance,
)
from pinstacks.steering import (
    default_bracket,
    feature_scan,
    find_beta_g,
    find_eta_star,
    find_xi_edit,
    q_factor,
    resonance_beta,
    slab_guess,
    steer,
)

THETA_30 = math.radians(30.0)
steering = importlib.import_module("pinstacks.steering")


def _lorentzian_records(center, gamma, halfwidth, points, feature):
    """Synthetic transmittance spectrum with a known FWHM of 2 gamma."""
    betas = np.linspace(center - halfwidth, center + halfwidth, points)
    bump = 1.0 / (1.0 + ((betas - center) / gamma) ** 2)
    t = 1.0 - bump if feature == "notch" else bump
    return [SpectrumRecord(alpha0=0.0, beta=float(b), T=float(v), R=1.0 - float(v),
                           energy_residual=0.0)
            for b, v in zip(betas, t)]


def test_default_bracket_contains_mirror_condition():
    lo, hi = default_bracket(theta_i=THETA_30)
    assert lo < 3.599363 < hi
    lo, hi = default_bracket(alpha0=2.1)
    assert lo > 2.1 and lo < 3.3508 < hi
    lo, hi = default_bracket(theta_i=0.0)
    assert lo < 4.456001 < hi
    assert default_bracket(theta_i=-THETA_30) == default_bracket(theta_i=THETA_30)
    assert default_bracket(alpha0=-2.1) == default_bracket(alpha0=2.1)
    with pytest.raises(ValueError):
        default_bracket()


@pytest.mark.parametrize("incidence", [
    {"theta_i": 2.0}, {"theta_i": -math.pi / 2},
    {"alpha0": 3.1}, {"alpha0": 3.2}, {"alpha0": -7.0},
], ids=["past-grazing", "grazing", "alpha0-3.1", "alpha0-3.2", "alpha0-minus-7"])
def test_no_bracket_is_refused_before_any_evaluation(incidence, monkeypatch):
    # past grazing there is no incident wave; for |alpha0| above ~3.0947 the
    # bracket clipped above 1.02 |alpha0| is empty
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(DomainError):
        default_bracket(**incidence)
    with pytest.raises(DomainError):
        find_beta_g(**incidence)
    assert calls == []


def test_steer_records_an_angle_past_grazing(monkeypatch):
    calls = _counted_kernel(monkeypatch)
    res, = steer([2.0])
    assert res.error == "DomainError: theta_i must be in (-pi/2, pi/2), got 2.0"
    assert res.beta_g is None
    assert calls == []


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, 2.0])
def test_an_angle_outside_the_open_interval_gets_one_domain_error(theta, monkeypatch):
    # at +-inf math.sin raised a bare "math domain error" ValueError, which
    # scan raised instead of recording
    calls = _counted_kernel(monkeypatch)
    message = f"theta_i must be in (-pi/2, pi/2), got {theta}"
    record, = scan(PinStack.single(), [3.0], theta_i=theta)
    assert record.error == f"DomainError: {message}"
    for search in (lambda: transmittance(PinStack.single(), 3.0, theta_i=theta),
                   lambda: find_beta_g(theta)):
        with pytest.raises(DomainError) as exc:
            search()
        assert str(exc.value) == message
    res, = steer([theta])
    assert res.error == f"DomainError: {message}"
    # a scan whose every wave is refused called the kernel on (0, 1) arrays
    assert calls == []


def test_steer_refuses_a_mode_order_below_one_before_any_evaluation(monkeypatch):
    # every angle's slab guess would refuse it, after its mirror search
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match="mode order m must be >= 1, got 0"):
        steer([THETA_30, math.radians(60.0)], m=0)
    assert calls == []


def test_steer_refuses_a_fractional_mode_order_before_any_evaluation(monkeypatch):
    # m = 1.5 used to run stage 1 and then fail stage 2 at every angle
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match="mode order m must be an integer, got 1.5"):
        steer([THETA_30], m=1.5)
    assert calls == []
    assert steer([THETA_30], m=np.int64(1)) == steer([THETA_30])


@pytest.mark.parametrize("resolution", [3.0, 2.5])
def test_spectrum_scan_refuses_a_fractional_resolution_before_any_evaluation(resolution,
                                                                           monkeypatch):
    # both passed the >= 2 check and died in np.linspace with a bare TypeError
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match=f"resolution must be an integer, got {resolution}"):
        spectrum_scan(PinStack.single(), (3.5, 3.7), theta_i=THETA_30, resolution=resolution)
    assert calls == []
    records = spectrum_scan(PinStack.single(), (3.5, 3.7), theta_i=THETA_30,
                            resolution=np.int64(3))
    assert len(records) == 3


def test_feature_scan_refuses_a_fractional_point_count_before_any_evaluation(monkeypatch):
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match="points must be an integer, got 200.0"):
        feature_scan(PinStack.triplet(1.0, 0.0), 3.646, 0.01, "peak", alpha0=2.1,
                     points=200.0)
    assert calls == []


def test_find_beta_g_refuses_a_fractional_grid_before_any_evaluation(monkeypatch):
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match="coarse must be an integer, got 2.0"):
        find_beta_g(THETA_30, coarse=2.0)
    assert calls == []
    assert find_beta_g(THETA_30, coarse=np.int64(31)) == find_beta_g(THETA_30)


def test_resonance_beta_refuses_a_fractional_grid_before_any_evaluation(monkeypatch):
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match="coarse must be an integer, got 10.5"):
        resonance_beta("odd", 1.0, 0.0, (3.5, 3.7), alpha0=2.1, coarse=10.5)
    assert calls == []


def test_mirror_point_at_negative_bloch_parameter():
    assert find_beta_g(alpha0=-2.1) == pytest.approx(find_beta_g(alpha0=2.1), rel=1e-14)


class TestFindBetaG:
    def test_oblique_mirror_point(self):
        beta_g = find_beta_g(THETA_30)
        assert beta_g == pytest.approx(3.599363, abs=1e-4)
        alpha0 = beta_g * math.sin(THETA_30)
        miss = 1.0 - single_grating_reflectance(SpectralPoint(alpha0, beta_g))
        assert miss <= 1e-10

    def test_wrong_bracket_raises(self):
        with pytest.raises(NoUnityReflectance):
            find_beta_g(THETA_30, beta_bracket=(1.0, 1.5), coarse=41)

    def test_root_with_three_propagating_orders_is_refused(self):
        # past 2 pi at normal incidence orders -1, 0 and 1 propagate: Re G(0, 0)
        # has a root near beta = 10.686, but there R_0 is about 0.083
        with pytest.raises(NoUnityReflectance):
            find_beta_g(0.0, beta_bracket=(6.4, 12.0))

    def test_a_grid_point_on_a_light_line_raises_its_error(self):
        # at alpha0 = 2.1 the bracket's end 2 pi - 2.1 puts order -1 on its
        # light line: the grid's builder call refuses it
        with pytest.raises(LightLineProximity, match="beta=4.18318531"):
            find_beta_g(alpha0=2.1, beta_bracket=(3.5, 2.0 * math.pi - 2.1))

    def test_root_does_not_depend_on_the_grid(self):
        # each root is refined to the nearest float, whatever its bracket,
        # so the default 31-point grid returns the 241-point grid's float
        cases = [{"theta_i": math.radians(deg)} for deg in (0.0, 30.0, 45.0, 60.0, -40.0)]
        for inc in cases + [{"alpha0": 2.1}, {"alpha0": -0.7}]:
            roots = {find_beta_g(**inc, coarse=n) for n in (31, 41, 121, 241, 481)}
            assert len(roots) == 1, f"{inc}: {roots}"

    @pytest.mark.parametrize("coarse", [1, 0, -5])
    def test_a_grid_of_fewer_than_two_points_is_refused(self, coarse, monkeypatch):
        # one point brackets nothing: 0 and 1 used to raise NoUnityReflectance,
        # or from resonance_beta's argmin of an empty grid
        calls = _counted_kernel(monkeypatch)
        with pytest.raises(ValueError, match=f"coarse must be at least 2, got {coarse}"):
            find_beta_g(THETA_30, coarse=coarse)
        with pytest.raises(ValueError, match=f"coarse must be at least 2, got {coarse}"):
            resonance_beta("odd", 1.0, 0.0, (3.5, 3.7), alpha0=2.1, coarse=coarse)
        assert calls == []
        # two points are a grid: the bracket's ends
        assert find_beta_g(THETA_30, coarse=2) == find_beta_g(THETA_30)


class TestSlabGuess:
    def test_formula(self):
        beta_g, alpha0 = 3.6, 1.8
        expected = math.pi / math.sqrt(beta_g**2 - alpha0**2)
        assert slab_guess(beta_g, alpha0) == pytest.approx(expected, rel=1e-15)
        assert slab_guess(beta_g, alpha0, m=2) == pytest.approx(
            2.0 * expected, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            slab_guess(3.6, 1.8, m=0)
        with pytest.raises(DomainError):
            slab_guess(1.8, 3.6)


class TestFindEtaStar:
    def test_oblique_pair_tuning(self):
        beta_g = find_beta_g(THETA_30)
        guess = slab_guess(beta_g, beta_g * math.sin(THETA_30))
        eta_star = find_eta_star(beta_g, guess, theta_i=THETA_30)
        assert eta_star == pytest.approx(0.98624, abs=5e-4)
        alpha0 = beta_g * math.sin(THETA_30)
        t = transmittance(PinStack.pair(eta_star), beta_g, alpha0=alpha0)
        assert 1.0 - t <= 1e-8

    def test_root_off_the_mirror_frequency(self):
        # at a beta that is not beta_g, Re G(0, 0) != 0 and only the full pair
        # condition Re G(0, eta d) = Re G(0, 0) cos(chi_0 eta d) gives T = 1
        eta = find_eta_star(3.599363, 0.98624, theta_i=THETA_30)
        t = transmittance(PinStack.pair(eta), 3.599363, theta_i=THETA_30)
        assert abs(1.0 - t) <= 1e-12

    def test_guess_far_from_any_resonance_raises(self):
        with pytest.raises(NoUnityTransmittance):
            find_eta_star(3.599363, 0.5, theta_i=THETA_30)

    def test_guess_that_is_not_positive_is_refused(self, monkeypatch):
        # G(0, -eta) = G(0, eta): a negative guess would find the mirror
        # image -0.98624 of the root
        calls = _counted_kernel(monkeypatch)
        for guess in (-1.0, 0.0):
            with pytest.raises(ValueError, match="eta_guess must be positive"):
                find_eta_star(3.599363, guess, theta_i=THETA_30)
        assert calls == []

    def test_a_beta_g_on_a_light_line_raises_its_error(self):
        # order -1 on its light line at beta_g: order 0 alone propagates,
        # and the builder call for Re G(0, 0) refuses the point
        with pytest.raises(LightLineProximity, match="beta=4.18318531"):
            find_eta_star(2.0 * math.pi - 2.1, 1.0, alpha0=2.1)

    def test_roots_with_two_propagating_orders_are_refused(self):
        # at beta = 5 and 30 degrees order -1 propagates too: the pair
        # condition has two roots, where 1 - T is about 0.418
        with pytest.raises(NoUnityTransmittance):
            find_eta_star(5.0, 1.0, theta_i=THETA_30)


@pytest.mark.parametrize("deg, beta_g, eta_star", [
    (0.0, 4.456011789073157, 0.6955998702908188),
    (30.0, 3.599363462904312, 0.9862400477980744),
    (60.0, 2.9471596875548824, 2.1286633377919055),
])
def test_stage_roots_are_pinned(deg, beta_g, eta_star):
    # the nearest-float roots; reusing the bracket's grid values in
    # _nearest_root must not move them by a single bit
    theta = math.radians(deg)
    assert find_beta_g(theta) == beta_g
    assert find_eta_star(beta_g, slab_guess(beta_g, beta_g * math.sin(theta)),
                         theta_i=theta) == eta_star


def test_nearest_root_never_evaluates_the_bracket_ends(monkeypatch):
    # f(a) and f(b) come from the bracketing grid, which already holds them
    nearest, brackets = steering._nearest_root, []

    def spy(f, a, b, fa, fb):
        evaluated = []
        brackets.append((a, b, evaluated))
        return nearest(lambda x: evaluated.append(x) or f(x), a, b, fa, fb)

    monkeypatch.setattr(steering, "_nearest_root", spy)
    beta_g = find_beta_g(THETA_30)
    find_eta_star(beta_g, slab_guess(beta_g, beta_g * math.sin(THETA_30)),
                  theta_i=THETA_30)
    assert len(brackets) == 2
    for a, b, evaluated in brackets:
        assert evaluated and a not in evaluated and b not in evaluated


def test_steer_stage_roots_are_the_lone_functions_floats(table1_alone):
    # steer hands stage 2 the Re G(0, 0) that stage 1 computed at its root;
    # find_eta_star run alone builds it, and must land on the same float
    for deg, res in zip(TABLE1_ANGLES_DEG, table1_alone):
        theta = math.radians(deg)
        beta_g = find_beta_g(theta)
        assert res.beta_g == beta_g, f"{deg} deg"
        assert res.eta_star == find_eta_star(beta_g, slab_guess(beta_g, res.alpha0_g),
                                             theta_i=theta), f"{deg} deg"


def test_table1_builds_each_mirror_point_once(monkeypatch):
    # the 15 mirror grids are one builder call of 15 x _MIRROR_GRID rows,
    # and each later call holds at most one refinement point per angle.  No
    # point is built twice: stage 2 reads Re G(0, 0) at beta_g off stage 1's
    # root (at 241 grid points each angle's beta_g was built twice, and the
    # pass built 3,706 points)
    rows, sizes, builder = [], [], steering._interaction_matrices

    def spy(alpha0, beta, pins, policy):
        assert pins == steering._ONE_PIN
        sizes.append(len(beta))
        rows.extend(zip(alpha0.tolist(), beta.tolist()))
        return builder(alpha0, beta, pins, policy)

    monkeypatch.setattr(steering, "_interaction_matrices", spy)
    results = steer([math.radians(d) for d in TABLE1_ANGLES_DEG])
    assert all(res.error is None for res in results)
    n = len(TABLE1_ANGLES_DEG)
    assert sizes[0] == n * steering._MIRROR_GRID and max(sizes[1:]) <= n
    assert len(rows) <= n * (steering._MIRROR_GRID + 8)
    assert len(set(rows)) == len(rows)
    assert all((res.alpha0_g, res.beta_g) in rows for res in results)


def test_mirror_and_pair_conditions_hold_to_rounding():
    # stages 1 and 2 are roots of analytic conditions, not minima of 1 - R
    # and 1 - T, so both hold to rounding at every Table-1 angle
    cases = [{"theta_i": math.radians(deg)} for deg in TABLE1_ANGLES_DEG] + [{"alpha0": 2.1}]
    for inc in cases:
        beta_g = find_beta_g(**inc)
        alpha0 = inc.get("alpha0", beta_g * math.sin(inc.get("theta_i", 0.0)))
        eta_star = find_eta_star(beta_g, slab_guess(beta_g, alpha0), **inc)
        r = single_grating_reflectance(SpectralPoint(alpha0, beta_g))
        t = transmittance(PinStack.pair(eta_star), beta_g, alpha0=alpha0)
        assert 1.0 - r <= 1e-14, inc
        assert abs(1.0 - t) <= 2e-11, inc


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pair_condition_changes_sign_once_over_each_spread(m):
    # stage 2's grid only brackets: on 4,001 points each spread of the slab
    # guess holds one root, so every grid of it brackets that root (checked
    # at every 0.5 degree of [-89, 89.5]; sampled here)
    for deg in (-87.5, -60.0, -30.5, -9.0, 0.0, 12.0, 24.5, 45.0, 71.0, 89.5):
        theta = math.radians(deg)
        beta_g = find_beta_g(theta)
        alpha0 = beta_g * math.sin(theta)
        (re_m11,) = steering._run(steering._re_self_terms([alpha0], [beta_g], DEFAULT_POLICY))
        chi0 = math.sqrt(beta_g * beta_g - alpha0 * alpha0)
        guess = slab_guess(beta_g, alpha0, m)
        for spread in (0.1, 0.2):
            etas = np.linspace((1.0 - spread) * guess, (1.0 + spread) * guess, 4001)
            values, _ = steering._run(steering._summed(alpha0, beta_g, 0.0, etas,
                                                       DEFAULT_POLICY))
            condition = values.real - re_m11 * np.cos(chi0 * etas)
            assert len(steering._sign_changes(condition)) == 1, f"{deg} deg, m = {m}, {spread}"


def test_the_grid_moves_a_pair_root_by_one_ulp_at_most(monkeypatch):
    # every grid brackets the one root (above), refined to a float where the
    # condition changes sign; at -30.5 and 24.5 degrees rounding makes it
    # change sign three times among four neighbouring floats, so there the
    # float follows Brent's path from the bracket, and every grid below 41
    # points moves some guesses' roots by 1 ulp (why _PAIR_GRID is 41)
    cases = []
    for deg in [*TABLE1_ANGLES_DEG, -30.5, 24.5]:
        theta = math.radians(deg)
        beta_g = find_beta_g(theta)
        cases.append((deg, beta_g, slab_guess(beta_g, beta_g * math.sin(theta)), theta))
    default = [find_eta_star(beta_g, guess, theta_i=theta) for _, beta_g, guess, theta in cases]
    for n in (5, 11, 21, 31):
        monkeypatch.setattr(steering, "_PAIR_GRID", n)
        for (deg, beta_g, guess, theta), eta in zip(cases, default):
            got = find_eta_star(beta_g, guess, theta_i=theta)
            if deg in TABLE1_ANGLES_DEG:
                assert got == eta, f"{deg} deg, {n} points"
            else:
                assert abs(got - eta) <= math.ulp(eta), f"{deg} deg, {n} points"


class TestResonanceBeta:
    def test_odd_resonance_is_shift_invariant(self):
        window = (3.55, 3.65)
        values = [resonance_beta("odd", 0.98624, xi, window, theta_i=THETA_30)
                  for xi in (0.0, 0.1, 0.25)]
        assert max(values) - min(values) <= 1e-6

    def test_even_resonance_tracks_the_shift(self):
        window = (3.55, 3.65)
        b1 = resonance_beta("even", 0.98624, 0.10, window, theta_i=THETA_30)
        b2 = resonance_beta("even", 0.98624, 0.25, window, theta_i=THETA_30)
        assert abs(b2 - b1) > 1e-4

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            resonance_beta("both", 1.0, 0.0, (3.5, 3.7), alpha0=2.1)

    def test_monotone_window_raises(self):
        with pytest.raises(Unresolved):
            resonance_beta("odd", 1.0, 0.0, (3.30, 3.35), alpha0=2.1)

    def test_rejected_polish_raises(self, monkeypatch):
        # no real-axis minimum stands in for a zero the polish did not reach;
        # an empty search returns None at once
        monkeypatch.setattr(steering, "_pole_search", lambda *args, **kwargs: iter(()))
        with pytest.raises(Unresolved, match="odd factor"):
            resonance_beta("odd", 0.98624, 0.0, (3.55, 3.65), theta_i=THETA_30)


def test_find_xi_edit_merges_the_resonances():
    # eta = 1 places the even resonance close enough for a small central
    # shift to close the gap; the merge point is known to five figures
    xi_edit, beta_edit = find_xi_edit(THETA_30, 3.599363, 1.0,
                                      xi_bracket=(0.20, 0.30))
    assert xi_edit == pytest.approx(0.25200, abs=1e-3)
    assert beta_edit == pytest.approx(3.61747, abs=1e-4)
    # the merged centre is the shift-invariant odd resonance
    beta_odd = resonance_beta("odd", 1.0, 0.0, (3.57, 3.67), theta_i=THETA_30)
    assert beta_edit == pytest.approx(beta_odd, abs=1e-6)


def test_find_xi_edit_reports_no_merge():
    # a bracket entirely above the crossing: the gap keeps one sign
    with pytest.raises(ModesDidNotMerge, match="closest approach"):
        find_xi_edit(THETA_30, 3.599363, 1.0, xi_bracket=(0.27, 0.30))


def test_find_xi_edit_reports_a_merge_below_resolution():
    # at m = 3 and 80 deg every tracked even pole's real part is beta_odd's
    # float: the gap is 0 without changing sign, so "no sign change" with a
    # closest approach of 0 would contradict itself
    message = ("beta_even - beta_odd is 0 in double precision at 16 of the 16 shifts "
               "tracked over xi in (0.15, 0.3): the merge is below resolution")
    theta = math.radians(80.0)
    beta_g = find_beta_g(theta)
    with pytest.raises(ModesDidNotMerge) as raised:
        find_xi_edit(theta, beta_g, slab_guess(beta_g, beta_g * math.sin(theta), m=3))
    assert str(raised.value) == message
    res, = steer([theta], m=3, with_edit=True)
    assert res.error == f"ModesDidNotMerge: {message}"
    assert res.beta_edit is None


def test_find_xi_edit_refuses_a_bracket_that_is_not_finite_and_ascending(monkeypatch):
    # a NaN end would reach the scan's step count, a reversed or empty
    # bracket would scan nothing useful: each is refused before any call
    calls = _counted_kernel(monkeypatch)
    for bracket in [(math.nan, 0.30), (0.15, math.nan), (0.30, 0.15), (0.2, 0.2),
                    (-math.inf, 0.30), (0.15, math.inf)]:
        with pytest.raises(ValueError, match="xi_bracket must be finite and ascending"):
            find_xi_edit(THETA_30, 3.599363, 1.0, xi_bracket=bracket)
    assert calls == []


def _edit_inputs(degrees):
    """(theta, beta_g, slab eta): find_xi_edit's inputs at an angle, as in criterion 3."""
    theta = math.radians(degrees)
    beta_g = find_beta_g(theta)
    return theta, beta_g, slab_guess(beta_g, beta_g * math.sin(theta))


@pytest.fixture(scope="module", params=[30.0, 45.0, 60.0])
def edit_inputs(request):
    return _edit_inputs(request.param)


@pytest.fixture(scope="module")
def inputs_60():
    return _edit_inputs(60.0)


def _counted(monkeypatch, name, module=steering):
    """The argument tuples of every call of module's function name.

    resonance_beta runs the window search steering._window_search.
    """
    calls, function = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _continued_secants(monkeypatch, reject=False):
    """Record (xi, pole) of every continued secant, or reject them all as (xi, None).

    The continuation starts _pole_search from a complex seed (a tracked
    pole, or the odd pole); the odd pole's polish from beta_g, the window
    search's and the Q stage's start from a real one.  The spy is a search
    itself.
    """
    search = steering._pole_search
    tracked = []

    def spy(kind, beta0, alpha0_at, eta, xi, *args, **kwargs):
        if not isinstance(beta0, complex):
            return (yield from search(kind, beta0, alpha0_at, eta, xi, *args, **kwargs))
        pole = None if reject else (
            yield from search(kind, beta0, alpha0_at, eta, xi, *args, **kwargs))
        if pole is not None or reject:
            tracked.append((xi, pole))
        return pole

    monkeypatch.setattr(steering, "_pole_search", spy)
    return tracked


def test_continued_pole_is_resonance_beta_at_every_step(edit_inputs, monkeypatch):
    theta, beta_g, eta = edit_inputs
    tracked = _continued_secants(monkeypatch)
    xi_edit, _ = find_xi_edit(theta, beta_g, eta)
    # the scan's steps up to the merge, then Brent's probes, each polished once
    xis = [xi for xi, _ in tracked]
    assert xis[:2] == [0.15, 0.16] and xi_edit in xis and len(set(xis)) == len(xis)
    monkeypatch.undo()
    beta_odd = resonance_beta("odd", eta, 0.0, (beta_g - 0.05, beta_g + 0.05),
                              theta_i=theta)
    even_window = (beta_odd - 0.05, beta_odd + 0.05)
    for xi, pole in tracked:
        assert pole.real == pytest.approx(
            resonance_beta("even", eta, xi, even_window, theta_i=theta), abs=1e-12)


def _xi_edit_by_window_search(theta, beta_g, eta, lo=0.15, hi=0.30, xi_step=1e-3):
    """find_xi_edit as a search of resonance_beta at every scan step."""
    brentq = pytest.importorskip("scipy.optimize").brentq   # independent of the port
    window = (beta_g - 0.05, beta_g + 0.05)
    beta_odd = resonance_beta("odd", eta, 0.0, window, theta_i=theta)
    even_window = (beta_odd - 0.05, beta_odd + 0.05)

    def gap(xi):
        return resonance_beta("even", eta, xi, even_window, theta_i=theta) - beta_odd

    n_steps = max(2, int(math.ceil((hi - lo) / xi_step)) + 1)
    xs = np.linspace(lo, hi, n_steps)
    g_prev = gap(float(xs[0]))
    for x in xs[1:]:
        g_here = gap(float(x))
        if np.sign(g_here) != np.sign(g_prev):
            return brentq(gap, float(x) - (hi - lo) / (n_steps - 1), float(x),
                          xtol=1e-9), beta_odd
        g_prev = g_here
    raise AssertionError("no merge in the bracket")


def test_find_xi_edit_equals_the_window_search(edit_inputs):
    # the root on the continued pole and brentq's on window searches share
    # xtol 1e-9; beta_edit is the odd pole's real part either way
    xi_edit, beta_edit = find_xi_edit(*edit_inputs)
    xi_ref, beta_ref = _xi_edit_by_window_search(*edit_inputs)
    assert abs(xi_edit - xi_ref) <= 1e-9
    assert abs(beta_edit - beta_ref) <= 2 * math.ulp(beta_ref)


def test_rejected_continuation_raises_unresolved(inputs_60, monkeypatch):
    # no window search stands in for a continued pole the polish missed
    rejected = _continued_secants(monkeypatch, reject=True)
    searches = _counted(monkeypatch, "_window_search")
    with pytest.raises(Unresolved, match="no zero of the even factor within reach of "
                                         "xi = 0.15$"):
        find_xi_edit(*inputs_60)
    assert rejected == [(0.15, None)] and searches == []


def test_edit60_result_bits_are_pinned(inputs_60):
    # The 60-degree EDIT pass with its notch and envelope Q, pinned to the
    # bit.  A refactor that claims to leave every result unchanged must
    # pass this; an intended change updates these values and says why.
    # max |R + T - 1| sits at rounding level, so it jumps with the last
    # bits of its inputs and shows any such change at once.
    theta, beta_g, eta = inputs_60
    xi_edit, beta_edit = find_xi_edit(theta, beta_g, eta)
    stack = PinStack.triplet(eta, xi_edit)
    q_notch = q_factor(feature_scan(stack, beta_edit, 1e-7, "notch", theta_i=theta),
                       "notch").q
    envelope = spectrum_scan(stack, (beta_edit - 1.2e-4, beta_edit + 1.2e-4),
                             theta_i=theta, resolution=2000)
    residual = max(r.energy_residual for r in envelope if r.error is None)
    assert (beta_g, eta, xi_edit, beta_edit, q_notch, q_factor(envelope, "peak").q,
            residual) == (2.9471596875548824, 2.1319459999781842, 0.24777142666253502,
                          2.947171960007326, 13316266938.571634, 150857.2485421109,
                          1.2212453270876722e-15)


def test_find_xi_edit_runs_few_window_searches(inputs_60, monkeypatch):
    # the odd pole is polished from beta_g and the even one continued from
    # it, so no window grid is built (a search at every step of the old
    # 1e-3 scan made 106, the coarse scan 7)
    searches = _counted(monkeypatch, "_window_search")
    public = _counted(monkeypatch, "resonance_beta")
    builds = _counted(monkeypatch, "_interaction_matrices")
    find_xi_edit(*inputs_60)
    assert searches == [] and public == [] and builds == []


def test_find_xi_edit_makes_few_kernel_calls(inputs_60, monkeypatch):
    # the odd pole, the even pole at each 0.01 step up to the merge and at
    # each of Brent's probes, every secant asking for its two starting
    # values in one request and none for the iterate it returns.  Continued
    # at every step of a 1e-3 grid, the search made 436 calls; on a coarse
    # scan of that grid with window searches beside it, 87 (7 of them
    # builder calls); evaluating each polish's converged iterate, 60
    calls = _counted_kernel(monkeypatch)
    find_xi_edit(*inputs_60)
    assert 0 < len(calls) <= 45


def test_polishing_a_polished_pole_returns_it():
    # from a seed already on the zero the secant converges there and is
    # accepted: convergence and reach alone decide
    for deg in (9.0, 30.0, 60.0):
        res, = steer([math.radians(deg)], with_modes=False)
        alpha0_at = steering._alpha0_rule(res.theta_i, None)
        for kind in ("odd", "even"):
            pole = steering._run(steering._pole_search(kind, res.beta_g, alpha0_at, res.eta_star,
                                                       0.0, DEFAULT_POLICY, 0.06))
            again = steering._run(steering._pole_search(kind, pole, alpha0_at, res.eta_star,
                                                        0.0, DEFAULT_POLICY, 0.06))
            assert again is not None and abs(again - pole) <= 1e-13 * abs(pole)


def _evaluating_pole_search(kind, beta0, alpha0_at, eta, xi, policy, max_shift):
    """_pole_search's secant as it was when it evaluated the iterate it returns.

    The reference for _pole_search, which stops before that evaluation:
    both must return the same float, from the same number of steps.
    """
    xs, ys = modes._factor_offsets(kind, modes.StackGeometry(eta=eta, xi=xi))

    def f(beta):
        values, _ = yield from steering._summed(alpha0_at(beta), beta, xs, ys, policy)
        return modes._factor_from(kind, values)

    seed = complex(beta0)
    z0, z1 = seed, seed + 1e-7
    starts, _ = yield from steering._summed(np.array([[alpha0_at(z0)], [alpha0_at(z1)]]),
                                            np.array([[z0], [z1]]), xs, ys, policy)
    f0, f1 = (modes._factor_from(kind, values) for values in starts)
    for _ in range(60):
        denom = f1 - f0
        if denom == 0:
            return None
        dz = -f1 * (z1 - z0) / denom
        z0, f0 = z1, f1
        z1 = z1 + dz
        f1 = yield from f(z1)
        if abs(dz) <= 1e-14 * abs(z1) or f1 == 0:
            break
    else:
        return None
    if not (abs(z1.real - seed.real) <= max_shift and abs(z1.imag) <= max_shift and z1.real > 0):
        return None
    return complex(z1)


@pytest.fixture(scope="module")
def table1_polishes():
    """The arguments of every polish steer with_edit makes at the Table-1 angles, m = 1-3."""
    polishes, search = [], steering._pole_search

    def spy(*args):
        polishes.append(args)
        return (yield from search(*args))

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(steering, "_pole_search", spy)
        for m in (1, 2, 3):
            steer([math.radians(d) for d in TABLE1_ANGLES_DEG], m=m, with_edit=True)
    return polishes


def test_the_polish_returns_the_evaluating_secants_float(table1_polishes):
    # both parities from beta_g at eta*, the odd one from beta_g at the slab
    # eta too, and the even one from every seed the xi continuation makes
    seeds = {(kind, type(beta0)) for kind, beta0, *_ in table1_polishes}
    assert seeds == {("odd", float), ("even", float), ("even", complex)}
    poles = steering._lockstep([steering._pole_search(*args) for args in table1_polishes])
    expected = steering._lockstep([_evaluating_pole_search(*args) for args in table1_polishes])
    assert list(map(repr, poles)) == list(map(repr, expected))
    assert all(isinstance(pole, complex) for pole in poles)


def test_a_converged_polish_never_asks_for_the_iterate_it_returns(inputs_60, monkeypatch):
    # the secant stops on |dz| before evaluating its last iterate, where
    # the evaluating copy spends one more kernel call on it, a nonzero value
    theta, beta_g, eta = inputs_60
    alpha0_at = steering._alpha0_rule(theta, None)
    calls = _counted_kernel(monkeypatch)
    for kind in ("odd", "even"):
        args = (kind, beta_g, alpha0_at, eta, 0.0, DEFAULT_POLICY, steering._POLE_REACH)
        del calls[:]
        pole = steering._run(steering._pole_search(*args))
        asked = [beta for call in calls for beta in np.ravel(call[1]).tolist()]
        assert pole not in asked
        evaluating = len(calls)
        del calls[:]
        assert steering._run(_evaluating_pole_search(*args)) == pole
        assert len(calls) == evaluating + 1 and set(np.ravel(calls[-1][1]).tolist()) == {pole}
        xs, ys = modes._factor_offsets(kind, modes.StackGeometry(eta=eta, xi=0.0))
        values, _ = steering._lattice_sums(alpha0_at(pole), pole, xs, ys, DEFAULT_POLICY)
        assert modes._factor_from(kind, values) != 0


class TestQFactor:
    def test_peak_quality(self):
        c, gamma = 3.6, 1e-3
        peak = q_factor(_lorentzian_records(c, gamma, 50 * gamma, 4001, "peak"),
                        "peak", kind="even")
        assert peak.beta_center == pytest.approx(c, abs=gamma / 10)
        assert peak.fwhm == pytest.approx(2 * gamma, rel=1e-3)
        assert peak.q == pytest.approx(c / (2 * gamma), rel=1e-3)
        assert peak.kind == "even" and not peak.is_notch

    def test_notch_quality(self):
        c, gamma = 3.6, 1e-5
        notch = q_factor(_lorentzian_records(c, gamma, 50 * gamma, 4001, "notch"),
                         "notch")
        assert notch.fwhm == pytest.approx(2 * gamma, rel=1e-3)
        assert notch.q == pytest.approx(c / (2 * gamma), rel=1e-3)
        assert notch.is_notch

    def test_undersampled_feature_raises(self):
        records = _lorentzian_records(3.6, 1e-3, 50e-3, 101, "peak")
        with pytest.raises(Unresolved):
            q_factor(records, "peak")

    def test_boundary_extremum_raises(self):
        betas = np.linspace(3.5, 3.7, 100)
        ramp = [SpectrumRecord(alpha0=0.0, beta=float(b), T=float(b - 3.5),
                               R=0.0, energy_residual=0.0) for b in betas]
        with pytest.raises(Unresolved):
            q_factor(ramp, "peak")

    def test_feature_validation(self):
        with pytest.raises(ValueError):
            q_factor(_lorentzian_records(3.6, 1e-3, 5e-2, 501, "peak"), "dip")

    def test_too_few_points(self):
        with pytest.raises(Unresolved):
            q_factor(_lorentzian_records(3.6, 1e-3, 5e-2, 4, "peak"), "peak")


@pytest.fixture(scope="module")
def peak_records():
    # the unshifted stack's odd resonance is broad (Q ~ 160)
    return feature_scan(PinStack.triplet(1.0, 0.0), 3.646, 0.01, "peak",
                        alpha0=2.1, points=301)


def test_feature_scan_resolves_transmission_peak(peak_records):
    # the scan must still center on the broad peak and resolve its width
    peak = q_factor(peak_records, "peak", kind="odd")
    assert peak.beta_center == pytest.approx(3.6458116, abs=1e-3)
    assert peak.q > 50.0
    assert peak.fwhm < 0.05


def test_feature_scan_records_are_computed_not_made_up(peak_records):
    # every field of a returned record comes from scatter at its beta
    stack = PinStack.triplet(1.0, 0.0)
    for rec in peak_records[::30]:
        direct = scatter(stack, IncidentWave.from_alpha0(2.1, rec.beta))
        assert rec.error is None
        assert rec.T == direct.T and rec.R == direct.R
        assert rec.energy_residual == direct.energy_residual
        assert rec.R_orders == direct.R_orders


def test_feature_scan_reports_a_failed_point():
    # the window reaches below beta = alpha0, where no incident wave propagates
    with pytest.raises(Unresolved, match="failed at beta = 2.09.*DomainError"):
        feature_scan(PinStack.single(), 2.1, 0.01, "peak", alpha0=2.1, points=101)


class _Scanned(Exception):
    """Raised by the spy on feature_scan's window scans at the first window."""


def _spied_windows(monkeypatch) -> list:
    """The beta windows feature_scan hands its scan path, which stops at the first."""
    windows = []

    def spy(stack, betas, *args):
        windows.append(betas)
        raise _Scanned

    monkeypatch.setattr(steering, "_scan_columns", spy)
    return windows


@pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf, 0.0, -3.6])
def test_feature_scan_refuses_a_bad_center_before_any_scan(center, monkeypatch):
    # NaN and inf used to scan a whole window of refused points, 0 and -3.6
    # to raise a misleading Unresolved
    windows = _spied_windows(monkeypatch)
    with pytest.raises(ValueError, match="center must be positive and finite"):
        feature_scan(PinStack.triplet(1.0, 0.0), center, 0.01, "peak", alpha0=2.1)
    assert windows == []
    with pytest.raises(_Scanned):
        feature_scan(PinStack.triplet(1.0, 0.0), 3.646, 0.01, "peak", alpha0=2.1)
    assert len(windows) == 1


@pytest.mark.parametrize("halfwidth", [0.0, -0.01, math.nan, math.inf])
def test_feature_scan_refuses_a_bad_halfwidth_before_any_scan(halfwidth, monkeypatch):
    # a zero halfwidth would rescan one point at every zoom step, then give up
    windows = _spied_windows(monkeypatch)
    with pytest.raises(ValueError, match="halfwidth must be positive and finite"):
        feature_scan(PinStack.triplet(1.0, 0.0), 3.646, halfwidth, "peak", alpha0=2.1)
    assert windows == []
    # the spy sits on the scan path: a good halfwidth reaches it at once
    with pytest.raises(_Scanned):
        feature_scan(PinStack.triplet(1.0, 0.0), 3.646, 0.01, "peak", alpha0=2.1)
    assert len(windows) == 1


def test_feature_scan_refuses_an_unknown_feature_before_any_scan(monkeypatch):
    # anything but "notch" used to zoom as a peak, while q_factor refused it
    windows = _spied_windows(monkeypatch)
    with pytest.raises(ValueError, match="feature must be 'peak' or 'notch', got 'dip'"):
        feature_scan(PinStack.triplet(1.0, 0.252), 3.6, 1e-3, "dip", theta_i=0.3)
    assert windows == []
    with pytest.raises(_Scanned):
        feature_scan(PinStack.triplet(1.0, 0.252), 3.6, 1e-3, "notch", theta_i=0.3)
    assert len(windows) == 1


@pytest.mark.parametrize("points", [1, 2, 3, 79])
def test_feature_scan_refuses_too_few_points_before_any_scan(points, monkeypatch):
    # success needs 40 points inside the half-width and at most half the
    # window, so fewer than 80 can never succeed; 3 used to run all 60 zooms
    windows = _spied_windows(monkeypatch)
    with pytest.raises(ValueError, match="points must be at least 80"):
        feature_scan(PinStack.triplet(1.0, 0.0), 3.646, 0.01, "peak", alpha0=2.1,
                     points=points)
    assert windows == []
    with pytest.raises(_Scanned):
        feature_scan(PinStack.triplet(1.0, 0.0), 3.646, 0.01, "peak", alpha0=2.1, points=80)
    assert [len(w) for w in windows] == [80]


_NO_INCIDENCE_CALLS = {
    "scan": lambda **inc: scan(PinStack.single(), [3.0, 3.1], **inc),
    "spectrum_scan": lambda **inc: spectrum_scan(PinStack.single(), (3.0, 3.1),
                                                 resolution=3, **inc),
    "transmittance": lambda **inc: transmittance(PinStack.single(), 3.0, **inc),
    "feature_scan": lambda **inc: feature_scan(PinStack.triplet(1.0, 0.0), 3.646,
                                               0.01, "peak", points=301, **inc),
    "resonance_beta": lambda **inc: resonance_beta("odd", 1.0, 0.0, (3.5, 3.7),
                                                   **inc),
    "find_eta_star": lambda **inc: find_eta_star(3.599363, 0.98624, **inc),
    "default_bracket": lambda **inc: default_bracket(**inc),
}


@pytest.mark.parametrize("incidence", [{}, {"theta_i": THETA_30, "alpha0": 1.8}],
                         ids=["neither", "both"])
@pytest.mark.parametrize("name", sorted(_NO_INCIDENCE_CALLS))
def test_exactly_one_incidence_is_required(name, incidence, monkeypatch):
    # refused up front: no point is evaluated, so no failure is recorded on one
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match="exactly one of theta_i, alpha0"):
        _NO_INCIDENCE_CALLS[name](**incidence)
    assert calls == []


class TestSteer:
    def test_single_angle_pipeline(self):
        res, = steer([THETA_30])
        assert res.error is None
        assert res.beta_g == pytest.approx(3.599363, abs=1e-4)
        assert res.alpha0_g == pytest.approx(
            res.beta_g * math.sin(THETA_30), abs=1e-10)
        assert res.eta_star == pytest.approx(0.98624, abs=5e-4)
        assert 0.97 <= res.m_eff <= 1.01
        # unshifted triplet: distinct even/odd resonances near beta_g
        assert res.beta_odd is not None and res.beta_even is not None
        assert res.beta_odd != pytest.approx(res.beta_even, abs=1e-4)
        assert res.xi_edit is None and res.q_notch is None

    def test_negative_angle_mirrors_the_positive_row(self):
        # x -> -x maps the wave at -theta onto the one at +theta: every
        # stage finds the same beta and eta, with alpha0 negated
        minus, plus = steer([-THETA_30, THETA_30], with_q=True)
        assert minus.error is None and plus.error is None
        assert minus.alpha0_g == pytest.approx(-plus.alpha0_g, rel=1e-14)
        for name in ("beta_g", "eta_star", "m_eff", "beta_even", "beta_odd", "eta_edit",
                     "xi_edit", "beta_edit", "q_notch", "q_pair"):
            assert getattr(minus, name) == pytest.approx(getattr(plus, name), rel=1e-9), name

    def test_normal_incidence_skips_edit(self):
        res, = steer([0.0], with_edit=True)
        assert res.beta_g == pytest.approx(4.456001, abs=1e-4)
        assert res.error == "EDIT unsupported at normal incidence"
        assert res.xi_edit is None

    def test_both_resonances_at_every_integer_degree(self):
        # each pole is polished from beta_g and reaches the zero that the
        # window search over beta_g +- 0.05 polishes from its deepest point
        degrees = range(61)
        for deg, res in zip(degrees, steer([math.radians(d) for d in degrees])):
            assert res.error is None, f"{deg} deg: {res.error}"
            assert res.beta_even < res.beta_g < res.beta_odd, f"{deg} deg"
            window = (res.beta_g - 0.05, res.beta_g + 0.05)
            for kind, found in (("odd", res.beta_odd), ("even", res.beta_even)):
                searched = resonance_beta(kind, res.eta_star, 0.0, window,
                                          theta_i=res.theta_i)
                assert abs(found - searched) <= 4 * math.ulp(searched), f"{deg} deg {kind}"

    def test_resonance_pair_runs_no_window_grid(self, monkeypatch):
        # without EDIT the pipeline evaluates no 241-point mode-matrix grid:
        # no builder call, lockstep or not, builds a triplet's matrices
        searches = _counted(monkeypatch, "_window_search")
        grids, build = [], modes._interaction_matrices

        def counted_build(*args, **kwargs):
            grids.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(modes, "_interaction_matrices", counted_build)
        stacks, builder = [], steering._interaction_matrices

        def counted_builder(alpha0, beta, pins, policy):
            stacks.append(len(pins))
            return builder(alpha0, beta, pins, policy)

        monkeypatch.setattr(steering, "_interaction_matrices", counted_builder)
        results = steer([math.radians(d) for d in TABLE1_ANGLES_DEG])
        assert all(res.error is None and res.beta_odd is not None for res in results)
        assert searches == [] and grids == []
        assert stacks and 3 not in stacks

    def test_rejected_pole_is_recorded(self, monkeypatch):
        # no grid search stands in for a pole the polish from beta_g missed;
        # an empty search returns None at once
        monkeypatch.setattr(steering, "_pole_search", lambda *args, **kwargs: iter(()))
        res, = steer([THETA_30])
        assert res.error.startswith("Unresolved: ")
        assert "odd factor" in res.error
        assert res.beta_odd is None and res.beta_even is None
        assert res.beta_g is not None and res.eta_star is not None

    @pytest.mark.parametrize("deg", [9.0, 30.0, 36.0])
    def test_q_where_the_bright_pole_is_broad(self, deg):
        # envelope Q below ~1,800: the bright pole's |Im beta| passes 1e-3,
        # and the polish from beta_edit must still reach it
        res, = steer([math.radians(deg)], with_q=True)
        assert res.error is None, f"{deg} deg: {res.error}"
        assert res.q_notch > 1e5 and 500 < res.q_pair < 2000

    def test_rejected_q_pole_is_recorded(self, monkeypatch):
        # a pole at the EDIT point that the polish misses stops the Q stage
        search = steering._pole_search

        def reject_at_edit(kind, beta0, alpha0_at, eta, xi, policy, max_shift):
            # the Q stage seeds from the real beta_edit; EDIT tuning continues
            # the even pole from complex ones
            if kind == "even" and xi != 0.0 and not isinstance(beta0, complex):
                return None
            return (yield from search(kind, beta0, alpha0_at, eta, xi, policy, max_shift))

        monkeypatch.setattr(steering, "_pole_search", reject_at_edit)
        res, = steer([math.radians(60.0)], with_q=True)
        assert res.error.startswith("Unresolved: no zero of the even factor "
                                    "within reach of beta_edit = ")
        assert res.beta_edit is not None and res.q_notch is None

    def test_edit_at_every_oblique_table1_angle(self, oblique_edit):
        results, _ = oblique_edit
        for deg, res in zip(TABLE1_ANGLES_DEG[1:], results):
            assert res.error is None, f"{deg} deg: {res.error}"
            assert res.xi_edit is not None and res.beta_edit is not None

    def test_edit_runs_at_the_slab_separation(self):
        # criterion 3's gates, reached through the public pipeline
        res, = steer([math.radians(60.0)], with_q=True)
        assert res.error is None
        assert res.eta_edit == slab_guess(res.beta_g, res.alpha0_g)
        assert res.eta_edit != res.eta_star
        assert res.xi_edit == pytest.approx(0.2476, abs=2e-3)
        assert res.beta_edit == pytest.approx(2.94716, abs=1e-4)
        assert res.q_notch >= 1e9
        assert 5e4 <= res.q_pair <= 5e5


@pytest.fixture(scope="module")
def table1_alone():
    """steer at each Table-1 angle on its own."""
    return [steer([math.radians(d)])[0] for d in TABLE1_ANGLES_DEG]


def test_lockstep_equals_one_angle_at_a_time(table1_alone):
    # the kernel's values depend only on their own inputs, so advancing every
    # angle's searches together changes no bit of any field
    together = steer([math.radians(d) for d in TABLE1_ANGLES_DEG])
    assert together == table1_alone


def test_a_failed_request_fails_its_own_angle(table1_alone, monkeypatch):
    # a kernel call that raises for one angle's pair condition: the joined
    # call fails, each request is retried alone, and only that angle records
    # the error, as a per-angle run does
    bad = TABLE1_ANGLES_DEG.index(30.0)
    bad_alpha0 = table1_alone[bad].alpha0_g
    kernel = steering._lattice_sums

    def failing(alpha0, beta, x, y, policy):
        if np.isrealobj(alpha0) and np.any(np.asarray(alpha0) == bad_alpha0):
            raise ArithmeticError("injected failure")
        return kernel(alpha0, beta, x, y, policy)

    monkeypatch.setattr(steering, "_lattice_sums", failing)
    together = steer([math.radians(d) for d in TABLE1_ANGLES_DEG])
    alone, = steer([math.radians(30.0)])
    assert together[bad] == alone
    assert alone.error == "ArithmeticError: injected failure"
    assert alone.beta_g == table1_alone[bad].beta_g and alone.eta_star is None
    assert together[:bad] + together[bad + 1:] == table1_alone[:bad] + table1_alone[bad + 1:]


_EVEN_OFFSETS = modes._factor_offsets("even", modes.StackGeometry(eta=1.0, xi=0.2))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_lone_sums_request_gets_exactly_the_kernel_value():
    # a lone request is not joined: one kernel call on its own flat columns
    beta = 3.6 - 1e-3j
    alpha0 = beta * 0.5
    (values, near), = steering._lockstep([steering._summed(alpha0, beta, *_EVEN_OFFSETS,
                                                           DEFAULT_POLICY)])
    expected, expected_near = steering._lattice_sums(alpha0, beta, *_EVEN_OFFSETS,
                                                     DEFAULT_POLICY)
    assert _same_bits(values, expected) and _same_bits(near, expected_near)


def test_a_lone_build_request_gets_exactly_the_builder_value():
    betas = [3.5, 3.6, -1.0, 3.7]       # beta < 0 is a per-point error
    alphas = [0.5 * b for b in betas]
    pins = modes._triplet_pins(modes.StackGeometry(eta=1.0, xi=0.2))
    (matrices, errors), = steering._lockstep([steering._built(alphas, betas, pins,
                                                              DEFAULT_POLICY)])
    expected, expected_errors = steering._interaction_matrices(alphas, betas, pins,
                                                               DEFAULT_POLICY)
    assert _same_bits(matrices, expected)
    assert list(map(repr, errors)) == list(map(repr, expected_errors))
    assert errors[2] is not None and errors.count(None) == 3


def test_one_round_joins_every_request_shape_with_the_bits_of_each_alone(monkeypatch):
    # the shapes the searches ask for: a polish step's scalar complex point
    # against its offsets, _pole_search's (2, 1) starting grid, stage 2's
    # scalar real point with a 0-d or a vector y, and builds of 1 and 31
    # points; real and complex sums pending in the same round
    beta = 3.6 - 1e-3j
    starts = np.array([[beta], [beta + 1e-7]])
    etas = np.linspace(0.9, 1.1, 41)
    betas = np.linspace(3.5, 3.7, 31)
    columns = [*_EVEN_OFFSETS, starts, etas, betas]
    kept = [c.copy() for c in columns]

    def searches():
        return [steering._summed(0.5 * beta, beta, *_EVEN_OFFSETS, DEFAULT_POLICY),
                steering._summed(0.5 * starts, starts, *_EVEN_OFFSETS, DEFAULT_POLICY),
                steering._summed(1.8, 3.6, 0.0, np.asarray(0.95), DEFAULT_POLICY),
                steering._summed(1.8, 3.6, 0.0, etas, DEFAULT_POLICY),
                steering._built([1.8], [3.6], steering._ONE_PIN, DEFAULT_POLICY),
                steering._built(0.5 * betas, betas, steering._ONE_PIN, DEFAULT_POLICY)]

    alone = [steering._lockstep([search])[0] for search in searches()]
    calls = _counted_kernel(monkeypatch)
    together = steering._lockstep(searches())
    assert len(calls) == 3          # complex sums, real sums and the builder, one call each
    for (values, second), (expected, expected_second) in zip(together, alone):
        assert _same_bits(values, expected)
        if isinstance(second, list):    # the builder's per-point errors
            assert second == expected_second == [None] * len(second)
        else:
            assert _same_bits(second, expected_second)
    shapes = [values.shape for values, _ in together]
    assert shapes == [(4,), (2, 4), (), (41,), (1, 1, 1), (31, 1, 1)]
    assert all(_same_bits(c, k) for c, k in zip(columns, kept))


def test_a_failing_request_in_a_group_fails_alone(monkeypatch):
    # three requests of one key join; a NaN beta makes the joined call raise,
    # so each is answered as a group of one: the others get their lone
    # answers, the NaN one the exception its own call raises
    betas = [3.6 - 1e-3j, complex(math.nan, 0.0), 3.65 - 2e-3j]

    def step(beta):
        return steering._summed(0.5 * beta, beta, *_EVEN_OFFSETS, DEFAULT_POLICY)

    alone = [steering._lockstep([step(beta)])[0] for beta in betas]
    with pytest.raises(Exception) as raised:
        steering._lattice_sums(0.5 * betas[1], betas[1], *_EVEN_OFFSETS, DEFAULT_POLICY)
    calls = _counted_kernel(monkeypatch)
    together = steering._lockstep([step(beta) for beta in betas])
    assert len(calls) == 1 + len(betas)     # the joined call, then each alone
    assert type(together[1]) is raised.type and type(alone[1]) is raised.type
    for k in (0, 2):
        assert all(map(_same_bits, together[k], alone[k]))


def test_a_fork_joins_the_rounds_of_every_other_search(monkeypatch):
    # a fork's searches start at once and their requests join every other
    # pending request of their key; the forking search is sent each one's
    # outcome in order, an exception included, when the last one ends
    betas = [3.6 - 1e-3j, 3.65 - 2e-3j]

    def step(beta):
        return steering._summed(0.5 * beta, beta, *_EVEN_OFFSETS, DEFAULT_POLICY)

    def refused():
        raise ValueError("refused")
        yield

    def nested():
        (values,) = yield steering._Fork((step(betas[0]),))
        return values

    def forking():
        return (yield steering._Fork((step(betas[0]), refused(), nested())))

    alone = [steering._lockstep([step(beta)])[0] for beta in betas]
    calls = _counted_kernel(monkeypatch)
    (first, failed, deeper), other = steering._lockstep([forking(), step(betas[1])])
    assert len(calls) == 1
    assert type(failed) is ValueError and str(failed) == "refused"
    for values, expected in ((first, alone[0]), (deeper, alone[0]), (other, alone[1])):
        assert all(map(_same_bits, values, expected))


def _stages_one_by_one(res, m, with_modes, with_edit, with_q, policy):
    """steer's search at one angle with every stage waiting for the one before.

    The reference for _angle_search, whose independent stages run side by
    side: both must fill the same fields and raise the same error.
    """
    alpha0_at = scattering._alpha0_rule(res.theta_i, None)
    res.beta_g, re_m11 = yield from steering._mirror_search(
        alpha0_at, default_bracket(res.theta_i), policy)
    res.alpha0_g = alpha0_at(res.beta_g)
    chi0 = math.sqrt(res.beta_g**2 - res.alpha0_g**2)
    guess = slab_guess(res.beta_g, res.alpha0_g, m)
    res.eta_star = yield from steering._pair_search(res.beta_g, res.alpha0_g, guess, policy,
                                                    re_m11)
    res.m_eff = res.eta_star * chi0 / math.pi
    if with_modes:
        for kind in ("odd", "even"):
            pole = yield from steering._resolved_pole(
                kind, res.beta_g, alpha0_at, res.eta_star, 0.0, policy, steering._POLE_REACH,
                f"beta_g = {res.beta_g:.9g}")
            setattr(res, f"beta_{kind}", pole.real)
    if not with_edit:
        return
    if res.theta_i == 0.0:
        res.error = "EDIT unsupported at normal incidence"
        return
    res.eta_edit = guess
    res.xi_edit, res.beta_edit = yield from steering._edit_search(alpha0_at, res.beta_g, guess,
                                                                  policy)
    if not with_q:
        return
    even = yield from steering._resolved_pole(
        "even", res.beta_edit, alpha0_at, res.eta_edit, res.xi_edit, policy,
        steering._POLE_REACH, f"beta_edit = {res.beta_edit:.9g}")
    res.q_notch = yield from steering._dark_q(res.beta_edit, alpha0_at, res.eta_edit, policy)
    res.q_pair = even.real / (2.0 * abs(even.imag))


def _steer_one_by_one(thetas, m=1, with_modes=True, with_edit=False, with_q=False):
    """steer, each angle's stages run one by one (_stages_one_by_one)."""
    with_edit = with_edit or with_q
    results = [steering.SteeringResult(theta_i=theta) for theta in thetas]
    searches = [_stages_one_by_one(res, m, with_modes, with_edit, with_q, DEFAULT_POLICY)
                for res in results]
    for res, outcome in zip(results, steering._lockstep(searches)):
        if isinstance(outcome, Exception):
            res.error = f"{type(outcome).__name__}: {outcome}"
    return results


def test_forked_stages_equal_the_stages_one_by_one():
    # every field, None and error, at m = 3 from 60 to 89 deg, where EDIT fails
    # from 70 deg, and at the Table-1 angles with and without the pair
    thetas = [math.radians(d) for d in range(60, 90)]
    assert steer(thetas, m=3, with_q=True) == _steer_one_by_one(thetas, m=3, with_q=True)
    thetas = [math.radians(d) for d in TABLE1_ANGLES_DEG]
    for options in ({}, {"with_edit": True, "with_modes": False}):
        assert steer(thetas, **options) == _steer_one_by_one(thetas, **options)


_STAGES = ("beta_g", "eta_star", "beta_odd", "beta_even", "eta_edit", "xi_edit", "q_notch",
           "q_pair")


def _failing(monkeypatch, name, fails):
    """Make steering's search name fail wherever fails(*its arguments) holds.

    _pole_search then returns None, a rejected polish that _resolved_pole
    raises as Unresolved; any other search raises ArithmeticError.
    """
    search = getattr(steering, name)

    def spy(*args):
        if fails(*args):
            if name == "_pole_search":
                return None
            raise ArithmeticError(f"injected failure in {name}")
        return (yield from search(*args))

    monkeypatch.setattr(steering, name, spy)


@pytest.fixture(scope="module")
def q_30_60():
    """steer with_q at 30 and 60 degrees, untouched."""
    return steer([THETA_30, math.radians(60.0)], with_q=True)


@pytest.mark.parametrize("failures, unset, error", [
    ([("_pole_search", lambda ref, kind, beta0, rule, eta, xi, *_: kind == "odd"
       and eta == ref.eta_star)],
     "beta_odd", "Unresolved: no zero of the odd factor within reach of beta_g = "),
    ([("_pole_search", lambda ref, kind, beta0, rule, eta, xi, *_: kind == "even"
       and eta == ref.eta_star)],
     "beta_even", "Unresolved: no zero of the even factor within reach of beta_g = "),
    ([("_pair_search", lambda ref, beta_g, *_: beta_g == ref.beta_g)],
     "eta_star", "ArithmeticError: injected failure in _pair_search"),
    ([("_pair_search", lambda ref, beta_g, *_: beta_g == ref.beta_g),
      ("_pole_search", lambda ref, kind, beta0, rule, eta, xi, *_: eta == ref.eta_edit)],
     "eta_star", "ArithmeticError: injected failure in _pair_search"),
    ([("_pole_search", lambda ref, kind, beta0, rule, eta, xi, *_: kind == "odd"
       and eta == ref.eta_edit)],
     "xi_edit", "Unresolved: no zero of the odd factor within reach of beta_g = "),
    ([("_pole_search", lambda ref, kind, beta0, rule, eta, xi, *_: kind == "even"
       and beta0 == ref.beta_edit)],
     "q_notch", "Unresolved: no zero of the even factor within reach of beta_edit = "),
    ([("_dark_q", lambda ref, beta, *_: beta == ref.beta_edit)],
     "q_notch", "ArithmeticError: injected failure in _dark_q"),
], ids=["odd pole", "even pole", "stage 2 while EDIT succeeds", "stage 2 and EDIT",
        "EDIT while stage 2 succeeds", "Q even pole", "Q dark pole"])
def test_a_failed_stage_leaves_the_fields_of_the_stages_one_by_one(
        failures, unset, error, q_30_60, monkeypatch):
    # one side-by-side stage fails at 30 deg: the fields before it in stage
    # order are set, the rest None, the error is the first failed stage's,
    # and 60 deg is untouched
    for name, fails in failures:
        _failing(monkeypatch, name, lambda *args, fails=fails: fails(q_30_60[0], *args))
    thetas = [THETA_30, math.radians(60.0)]
    bad, good = steer(thetas, with_q=True)
    assert [bad, good] == _steer_one_by_one(thetas, with_q=True)
    assert good == q_30_60[1]
    assert bad.error.startswith(error)
    k = _STAGES.index(unset)
    assert all(getattr(bad, name) is not None for name in _STAGES[:k])
    assert all(getattr(bad, name) is None for name in _STAGES[k:])


def _counted_kernel(monkeypatch) -> list:
    """The argument tuples of every _lattice_sums call, from whichever module."""
    calls, kernel = [], steering._lattice_sums

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    for name in ("greens", "modes", "scattering", "steering"):
        module = importlib.import_module(f"pinstacks.{name}")
        if hasattr(module, "_lattice_sums"):
            monkeypatch.setattr(module, "_lattice_sums", counted)
    return calls


def test_two_propagating_orders_are_refused_before_the_pair_grid(monkeypatch):
    # the one-order rule depends on (alpha0, beta_g) alone, so no root of the
    # pair condition is refined only to be refused
    calls = _counted_kernel(monkeypatch)
    with pytest.raises(NoUnityTransmittance):
        find_eta_star(5.0, 1.0, theta_i=THETA_30)
    assert len(calls) <= 1


def test_table1_makes_few_kernel_calls(monkeypatch):
    # each lockstep round makes one kernel call per kind of pending step; one
    # angle at a time, the 15 angles made 486 one-point calls, with one
    # request per starting value of a pole polish 32, with stage 2 asking
    # the builder again for stage 1's Re G(0, 0) 30, and with the odd pole
    # polished before the even one 29, with the two side by side 22, and
    # with neither polish evaluating its converged iterate 21.  No root is
    # confirmed by a scattering solve: the one-order rule needs none
    calls = _counted_kernel(monkeypatch)
    solves = _counted(monkeypatch, "_scatter_all", scattering)
    results = steer([math.radians(d) for d in TABLE1_ANGLES_DEG])
    assert all(res.error is None for res in results)
    assert 0 < len(calls) <= 21
    assert solves == []
    # the spy sits on the one scattering path: a scatter and a scan reach it
    scatter(PinStack.single(), IncidentWave.from_angle(THETA_30, 3.6))
    scan(PinStack.single(), [3.5, 3.6], theta_i=THETA_30)
    assert len(solves) == 2


@pytest.fixture(scope="module")
def oblique_edit():
    """steer with_edit over the 14 oblique Table-1 angles, and its kernel calls."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counted_kernel(monkeypatch)
        results = steer([math.radians(d) for d in TABLE1_ANGLES_DEG[1:]], with_edit=True)
    return results, calls


def test_edit_lockstep_equals_one_angle_at_a_time(oblique_edit):
    # xi_edit's searches join the lockstep too, and change no bit of any field
    results, _ = oblique_edit
    alone = [steer([math.radians(d)], with_edit=True)[0] for d in TABLE1_ANGLES_DEG[1:]]
    assert results == alone


def test_q_lockstep_equals_one_angle_at_a_time():
    # the even pole at beta_edit and the dark pole's slope join the lockstep
    thetas = [math.radians(30.0), math.radians(60.0)]
    together = steer(thetas, with_q=True)
    assert all(res.error is None and res.q_notch is not None for res in together)
    assert together == [steer([theta], with_q=True)[0] for theta in thetas]


def test_edit_makes_few_kernel_calls(oblique_edit):
    # each round's continued secants share their calls; run angle by angle,
    # the 14 EDIT searches made 5,333, in lockstep with the even pole
    # continued at every step of a 1e-3 grid 629, on a coarse scan of that
    # grid with window searches beside it 229, and after stage 2 and the
    # unshifted pair, not beside them, 97; beside them 84; with no polish
    # evaluating its converged iterate 69
    results, calls = oblique_edit
    assert all(res.error is None for res in results)
    assert 0 < len(calls) <= 69


def test_q_makes_few_kernel_calls(monkeypatch):
    # the Q stage's even pole and dark-pole slope run side by side, and beside
    # stage 2 and the unshifted pair: 84 calls, 100 when each polish
    # evaluated its converged iterate, 112 when also each stage waited for
    # the one before
    calls = _counted_kernel(monkeypatch)
    results = steer([math.radians(d) for d in TABLE1_ANGLES_DEG], with_q=True)
    assert results[0].error == "EDIT unsupported at normal incidence"
    assert all(res.error is None and res.q_pair is not None for res in results[1:])
    assert 0 < len(calls) <= 84


def test_edit_merges_the_window_search_poles(oblique_edit):
    # both poles from the independent window search of resonance_beta: at
    # xi_edit they coincide far inside the 1e-7 gate (a root found on the
    # window searches' own gap, to xtol 1e-9, left up to 9.8e-11)
    for deg, res in zip(TABLE1_ANGLES_DEG[1:], oblique_edit[0]):
        beta_odd = resonance_beta("odd", res.eta_edit, 0.0, (res.beta_g - 0.05, res.beta_g + 0.05),
                                  theta_i=res.theta_i)
        beta_even = resonance_beta("even", res.eta_edit, res.xi_edit,
                                   (beta_odd - 0.05, beta_odd + 0.05), theta_i=res.theta_i)
        assert abs(beta_even - beta_odd) <= 1e-11, f"{deg} deg"


def test_edit_without_modes_polishes_no_pair(oblique_edit):
    # EDIT tuning runs at the slab eta with its own odd pole and never
    # reads the unshifted pair
    res, = steer([math.radians(60.0)], with_modes=False, with_edit=True)
    full = oblique_edit[0][TABLE1_ANGLES_DEG[1:].index(60.0)]
    assert res.error is None
    assert res.beta_odd is None and res.beta_even is None
    assert (res.xi_edit, res.beta_edit) == (full.xi_edit, full.beta_edit)


def test_a_failed_q_pole_fails_its_own_angle(monkeypatch):
    # the Q stage polishes the even pole from beta_edit inside each angle's
    # search: an exception there is that angle's error, and the other
    # angle's result is its lone run's
    thirty, sixty = math.radians(30.0), math.radians(60.0)
    alone, = steer([sixty], with_q=True)
    search = steering._pole_search

    def failing(kind, beta0, alpha0_at, eta, xi, policy, max_shift):
        # EDIT tuning seeds its even polishes from complex poles, the Q
        # stage from the real beta_edit
        if (kind == "even" and xi != 0.0 and not isinstance(beta0, complex)
                and alpha0_at(1.0) == math.sin(thirty)):
            raise ArithmeticError("injected failure")
        return (yield from search(kind, beta0, alpha0_at, eta, xi, policy, max_shift))

    monkeypatch.setattr(steering, "_pole_search", failing)
    bad, good = steer([thirty, sixty], with_q=True)
    assert bad.error == "ArithmeticError: injected failure"
    assert bad.beta_edit is not None
    assert bad.q_notch is None and bad.q_pair is None
    assert good == alone


def test_steer_runs_no_scan(monkeypatch):
    # both Q factors come off the poles: no scattering solve, and no scan
    columns = _counted(monkeypatch, "_scan_columns", scattering)
    monkeypatch.setattr(steering, "_scan_columns", scattering._scan_columns)
    solves = _counted(monkeypatch, "_scatter_all", scattering)
    res, = steer([math.radians(60.0)], with_q=True)
    assert res.error is None and res.q_notch is not None
    assert columns == [] and solves == []


_DEGREES = range(1, 61)


@pytest.fixture(scope="module")
def q_sweep():
    """steer with_q at every integer degree 1-60 for m = 1 and 2, each row beside its
    odd pole polished from beta_g (EDIT tuning's) and even pole from beta_edit."""
    sweep = {}
    for m in (1, 2):
        results = steer([math.radians(d) for d in _DEGREES], m=m, with_q=True)
        polishes = [steering._resolved_pole(kind, seed, scattering._alpha0_rule(res.theta_i, None),
                                            res.eta_edit, xi, DEFAULT_POLICY,
                                            steering._POLE_REACH, kind)
                    for res in results
                    for kind, seed, xi in (("odd", res.beta_g, 0.0),
                                           ("even", res.beta_edit, res.xi_edit))]
        poles = steering._lockstep(polishes)   # a row that failed gets exceptions
        sweep[m] = list(zip(_DEGREES, results, poles[0::2], poles[1::2]))
    return sweep


@pytest.mark.parametrize("m", [1, 2])
def test_q_stage_reads_both_poles_at_every_integer_degree(q_sweep, m):
    # steer --with-q fails at no angle (m = 2 failed from 49 deg while its
    # notch was scanned); the odd pole EDIT tuning polished is the one at
    # beta_edit, and the dark one; q_pair is the stage's even pole's
    # Re beta / 2 |Im beta|
    for deg, res, odd, even in q_sweep[m]:
        assert res.error is None, f"{deg} deg: {res.error}"
        assert odd.real == res.beta_edit, f"{deg} deg"
        assert abs(odd.imag) < abs(even.imag), f"{deg} deg"
        assert res.q_pair == even.real / (2.0 * abs(even.imag)), f"{deg} deg"


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_q_matches_the_polished_dark_pole(q_sweep, m):
    # wherever |Im beta| >= 1e-12 (every angle at m = 1, 1-40 deg at m = 2;
    # past 48 deg at m = 2 it sinks to the rounding of beta), the closed
    # form agrees with the polished pole to 1e-4 (measured 2.5e-5)
    checked = 0
    for deg, res, odd, _ in q_sweep[m]:
        if abs(odd.imag) >= 1e-12:
            checked += 1
            q_pole = odd.real / (2.0 * abs(odd.imag))
            assert res.q_notch == pytest.approx(q_pole, rel=1e-4), f"{deg} deg"
    assert checked >= 40


@pytest.mark.parametrize("m", [1, 2])
def test_notch_q_follows_the_high_reflectance_law(q_sweep, m):
    # EDIT runs where sin(chi_0 eta) vanishes at beta_g, so the dark pole's Q
    # grows like (beta_edit - beta_g)^-2: the paper's high-reflectance
    # strategy, and the quasi-bound-state law (measured 0.84-5.01)
    for deg, res, _, _ in q_sweep[m]:
        assert 0.5 <= res.q_notch * (res.beta_edit - res.beta_g) ** 2 <= 10.0, f"{deg} deg"


def test_dark_q_sums_every_propagating_order():
    # at (alpha0, beta) = (2.5, 4.0) orders 0 and -1 propagate; the closed
    # form's Im f must then equal Im (G(0, 0) - G(0, 2 eta)) itself, which
    # at eta = 0.37 suffers no cancellation
    beta, eta, h = 4.0, 0.37, 4e-6
    rule = scattering._alpha0_rule(None, 2.5)
    assert len(propagating_orders(SpectralPoint(2.5, beta))) == 2

    def f(b):
        point = SpectralPoint(2.5, b)
        return greens(point, 0.0, 0.0) - greens(point, 0.0, 2.0 * eta)

    slope = (f(beta + h).real - f(beta - h).real) / (2.0 * h)
    expected = beta / (2.0 * abs(f(beta).imag / slope))
    assert steering._run(steering._dark_q(beta, rule, eta, DEFAULT_POLICY)) == pytest.approx(
        expected, rel=1e-9)
