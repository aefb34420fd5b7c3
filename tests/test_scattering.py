"""Scattering solver: pin conditions, energy balance, spectra, reflectance."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from pinstacks.errors import DomainError, SingularSystem
from pinstacks.greens import DEFAULT_POLICY, SpectralPoint, TruncationPolicy, greens
from pinstacks.modes import StackGeometry, assemble, dispersion_residual
from pinstacks import scattering
from pinstacks.scattering import (
    IncidentWave,
    PinStack,
    SpectrumRecord,
    fabry_perot_model,
    plane_wave_amplitudes,
    scan,
    scatter,
    single_grating_reflectance,
    solve_coefficients,
    spectrum_scan,
    transmittance,
)

TWO_PI = 2.0 * math.pi
THETA_30 = math.radians(30.0)
SCAN30 = PinStack.triplet(1.0, 0.252)   # the 30-degree triplet of the CLI scans


def _random_incidence(rng: np.random.Generator) -> IncidentWave:
    """Incidence with every diffraction order away from its light line."""
    while True:
        alpha0 = rng.uniform(0.0, 2.5)
        beta = rng.uniform(0.5, 5.5)
        if abs(alpha0) >= 0.98 * beta:
            continue
        if min(abs(abs(alpha0 + TWO_PI * n) - beta) for n in range(-3, 4)) > 1e-3:
            return IncidentWave.from_alpha0(alpha0, beta)


def _random_stack(rng: np.random.Generator) -> PinStack:
    n = int(rng.integers(1, 4))
    ys = np.sort(rng.uniform(-1.5, 1.5, size=n))
    while np.any(np.diff(ys) < 0.2):
        ys = np.sort(rng.uniform(-1.5, 1.5, size=n))
    xs = rng.uniform(-0.5, 0.5, size=n)
    return PinStack(pins=tuple((float(x), float(y)) for x, y in zip(xs, ys)))


class TestIncidentWave:
    def test_angle_parameter_identity(self):
        w = IncidentWave.from_angle(math.radians(30.0), 3.6)
        assert w.alpha0**2 + w.chi0**2 == pytest.approx(w.beta**2, rel=1e-14)
        v = IncidentWave.from_alpha0(w.alpha0, w.beta)
        assert v.theta_i == pytest.approx(math.radians(30.0), rel=1e-12)

    def test_rejects_evanescent_incidence(self):
        with pytest.raises(DomainError):
            IncidentWave.from_alpha0(2.5, 2.0)

    def test_rejects_grazing_angle(self):
        with pytest.raises(DomainError):
            IncidentWave.from_angle(math.pi / 2, 2.0)
        with pytest.raises(DomainError):
            IncidentWave.from_angle(-math.pi / 2, 2.0)

    def test_negative_bloch_parameter_is_a_negative_angle(self):
        w = IncidentWave.from_alpha0(-1.8, 3.6)
        assert w.theta_i == pytest.approx(-math.radians(30.0), rel=1e-12)
        assert IncidentWave.from_angle(w.theta_i, 3.6).alpha0 == pytest.approx(-1.8)


@pytest.mark.parametrize("stack, mirror", [
    (PinStack.single(), PinStack.single()),
    (PinStack.pair(1.0), PinStack.pair(1.0)),
    (PinStack.triplet(1.0, 0.252), PinStack.triplet(1.0, -0.252)),
], ids=["single", "pair", "triplet"])
def test_negative_incidence_mirrors_positive(stack, mirror):
    # x -> -x maps alpha0 to -alpha0, order n to -n and the shift xi to -xi
    for beta in (3.3, 3.62, 5.0):
        for alpha0 in (0.7, 1.8, 2.1):
            plus = scatter(stack, IncidentWave.from_alpha0(alpha0, beta))
            minus = scatter(mirror, IncidentWave.from_alpha0(-alpha0, beta))
            assert sorted(minus.R_orders) == sorted(-n for n in plus.R_orders)
            for n, energy in plus.R_orders.items():
                assert minus.R_orders[-n] == pytest.approx(energy, abs=1e-13)
                assert minus.T_orders[-n] == pytest.approx(plus.T_orders[n], abs=1e-13)
    records = scan(mirror, np.linspace(3.3, 3.9, 41), alpha0=-1.8)
    assert [r.error for r in records] == [None] * 41


def _gram(stack: PinStack, inc: IncidentWave) -> np.ndarray:
    """W W^H over the wave's propagating orders and both sides: the pin matrix's
    anti-Hermitian part, sum_n cos(chi_n dy) exp(i alpha_n dx) / (4 beta^2 chi_n)."""
    pins = np.array(stack.pins, dtype=float).reshape(-1, 2)
    dx = pins[:, None, 0] - pins[None, :, 0]
    dy = pins[:, None, 1] - pins[None, :, 1]
    gram = np.zeros(dx.shape, dtype=complex)
    for n in range(-5, 6):
        alpha = inc.alpha0 + TWO_PI * n
        if alpha * alpha < inc.beta * inc.beta:
            chi = math.sqrt(inc.beta * inc.beta - alpha * alpha)
            gram += np.cos(chi * dy) * np.exp(1j * alpha * dx) / (4.0 * inc.beta**2 * chi)
    return gram


SINGULAR = "SingularSystem: Hermitian part of the pin interaction matrix: condition exceeds 1e+14"


class TestSingularSystem:
    """Every system, 1x1 included, faces the one condition test, on H."""

    @pytest.fixture(autouse=True)
    def zero_matrices(self, monkeypatch):
        def zeros(alpha0, beta, pins, policy):
            n = len(pins)
            return np.zeros((len(beta), n, n), dtype=complex), [None] * len(beta)

        monkeypatch.setattr(scattering, "_interaction_matrices", zeros)

    @pytest.mark.parametrize("stack", [PinStack.single(), PinStack.pair(1.0)],
                             ids=["single", "pair"])
    def test_exactly_singular_system(self, stack):
        # M = 0 has H = 0: no reactance matrix exists
        inc = IncidentWave.from_angle(0.3, 3.0)
        with pytest.raises(SingularSystem, match="condition exceeds 1e\\+14"):
            scatter(stack, inc)
        with pytest.raises(SingularSystem):
            solve_coefficients(stack, inc)
        records = scan(stack, [3.0, 3.1], theta_i=0.3)
        assert [r.error for r in records] == [SINGULAR] * 2

    def test_a_singular_system_fails_only_its_own_wave(self, monkeypatch):
        # every other wave's matrix is the identity: H = I, so its reactions
        # solve (I + i W W^H) A = -u
        def alternate(alpha0, beta, pins, policy):
            matrices = np.zeros((len(beta), len(pins), len(pins)), dtype=complex)
            matrices[1::2] = np.eye(len(pins))
            return matrices, [None] * len(beta)

        monkeypatch.setattr(scattering, "_interaction_matrices", alternate)
        stack = PinStack.pair(1.0)
        waves = [IncidentWave.from_angle(0.3, beta) for beta in (3.0, 3.1, 3.2, 3.3)]
        columns = scattering._scatter_all(scattering._pins(stack), scattering._wave_arrays(waves),
                                          [None] * 4, DEFAULT_POLICY)
        assert [type(error).__name__ for error in columns.errors] == [
            "SingularSystem", "NoneType"] * 2
        assert (columns.coeffs[::2] == 0.0).all()
        for k in (1, 3):
            u = [waves[k].field(x, y) for x, y in stack.pins]
            expected = np.linalg.solve(np.eye(2) + 1j * _gram(stack, waves[k]), np.negative(u))
            np.testing.assert_allclose(columns.coeffs[k], expected, rtol=1e-14)
            assert columns.energy_residual[k] <= 1e-15


def test_each_failure_stage_fails_only_its_own_wave_in_one_batch(monkeypatch):
    # one wave refused before the builder, one the builder fails, one with a
    # singular H, and waves that solve between them; the builder makes each
    # matrix alone, so the solved waves' bits can only come from the pass
    builder = scattering._interaction_matrices
    unbuilt = DomainError("no matrix at this wave")

    def staged(alpha0, beta, pins, policy):
        parts = [builder(alpha0[k:k + 1], beta[k:k + 1], pins, policy) for k in range(len(beta))]
        matrices = np.concatenate([m for m, _ in parts])
        errors = [e for _, (e,) in parts]
        for k, b in enumerate(beta.tolist()):
            if b == 3.3:
                matrices[k], errors[k] = np.nan, unbuilt
            elif b == 3.5:
                matrices[k] = 0.0
        return matrices, errors

    monkeypatch.setattr(scattering, "_interaction_matrices", staged)
    stack = PinStack.pair(1.0)
    pins = scattering._pins(stack)
    waves = scattering._wave_arrays([IncidentWave.from_angle(0.3, beta)
                                     for beta in (3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7)])
    refused = DomainError("refused before the builder")
    errors = [None, refused] + [None] * 6
    columns = scattering._scatter_all(pins, waves, errors, DEFAULT_POLICY)
    assert columns.errors[1] is refused and columns.errors[3] is unbuilt
    assert isinstance(columns.errors[5], SingularSystem)
    failed = [1, 3, 5]
    solved = [0, 2, 4, 6, 7]
    assert all(columns.errors[k] is None for k in solved)
    for values in (columns.R, columns.T, columns.energy_residual):
        assert np.isnan(values[failed]).all() and not np.isnan(values[solved]).any()
    assert (columns.coeffs[failed] == 0.0).all()
    alone = scattering._scatter_all(pins, tuple(a[solved] for a in waves), [None] * 5,
                                    DEFAULT_POLICY)
    assert all(e is None for e in alone.errors)
    assert np.array_equal(columns.coeffs[solved], alone.coeffs)
    assert np.array_equal(columns.T[solved], alone.T)
    assert np.array_equal(columns.T_orders[solved], alone.T_orders)
    assert np.array_equal(columns.R_orders[solved], alone.R_orders)


def _conditioned(rng: np.random.Generator, n: int, kappa: float) -> np.ndarray:
    """A random Hermitian n x n matrix whose 2-norm condition is about kappa (1 at n = 1)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    signs = rng.choice([-1.0, 1.0], size=n)
    matrix = scale * (q * (signs * np.geomspace(1.0, 1.0 / kappa, n))) @ np.conj(q.T)
    return 0.5 * (matrix + np.conj(matrix.T))


class TestConditionGate:
    """The condition test fails exactly the systems np.linalg.cond(H) > 1e14 fails."""

    @staticmethod
    def _coefficients(monkeypatch, matrices, n):
        # the builder returns the Hermitian matrices, so H is each of them
        monkeypatch.setattr(scattering, "_interaction_matrices",
                            lambda alpha0, beta, pins, policy: (matrices, [None] * len(beta)))
        rng = np.random.default_rng(5)
        pins = rng.uniform(-1.0, 1.0, size=(n, 2))
        b = len(matrices)
        alpha0 = rng.uniform(-1.0, 1.0, b)
        waves = (alpha0, np.full(b, 3.0), rng.normal(size=b) + 1j * rng.normal(size=b),
                 np.full(b, -1.0))
        columns = scattering._scatter_all(pins, waves, [None] * b, DEFAULT_POLICY)
        return columns.coeffs, columns.errors, waves, pins

    @staticmethod
    def _alone(monkeypatch, matrices, waves, pins, kept):
        """The reactions of the kept waves, solved in a stack of their own."""
        monkeypatch.setattr(scattering, "_interaction_matrices",
                            lambda alpha0, beta, pins, policy: (matrices[kept],
                                                                [None] * len(beta)))
        return scattering._scatter_all(pins, tuple(a[kept] for a in waves), [None] * len(kept),
                                       DEFAULT_POLICY).coeffs

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fails_exactly_the_svd_test_and_keeps_the_solve_bits(self, monkeypatch, n):
        # kappa_2 spread over 1e12-1e16 covers the band (1e14 / n^2, n 1e14)
        # where kappa_1 alone cannot decide; a kept wave's reactions are the
        # bits of a stack without the failed ones
        rng = np.random.default_rng(n)
        matrices = np.array([_conditioned(rng, n, 10.0 ** rng.uniform(12.0, 16.0))
                             for _ in range(400)])
        coeffs, errors, waves, pins = self._coefficients(monkeypatch, matrices, n)
        cond = np.linalg.cond(matrices)
        failed = np.array([isinstance(e, SingularSystem) for e in errors])
        assert all(e is None or isinstance(e, SingularSystem) for e in errors)
        np.testing.assert_array_equal(failed, cond > 1e14)
        if n > 1:   # both fates, and systems only the SVD could clear
            assert 0 < failed.sum() < len(failed)
            assert np.any((np.linalg.cond(matrices, 1) > 1e14 / (2 * n)) & ~failed)
        kept = np.flatnonzero(~failed)
        assert np.array_equal(coeffs[kept], self._alone(monkeypatch, matrices, waves, pins, kept))
        assert (coeffs[failed] == 0.0).all()

    def test_an_exactly_singular_member_fails_alone(self, monkeypatch):
        # a zero row and column make one H exactly singular: the stacked
        # solve refuses the whole pass, and the SVD path decides every system
        rng = np.random.default_rng(11)
        kappas = [1.0, 1e3, 2e13, 1.0, 1e8, 9e13]
        matrices = np.array([_conditioned(rng, 3, kappa) for kappa in kappas])
        matrices[3, 1] = matrices[3, :, 1] = 0.0
        kept = np.delete(np.arange(6), 3)
        assert (np.linalg.cond(matrices[kept]) < 1e14).all()
        coeffs, errors, waves, pins = self._coefficients(monkeypatch, matrices, 3)
        names = [type(e).__name__ for e in errors]
        assert names == ["NoneType"] * 3 + ["SingularSystem"] + ["NoneType"] * 2
        assert (coeffs[3] == 0.0).all()
        assert np.array_equal(coeffs[kept], self._alone(monkeypatch, matrices, waves, pins, kept))


def test_pin_stack_geometry():
    t = PinStack.triplet(0.9, 0.25)
    assert t.pins == ((0.0, 0.9), (0.25, 0.0), (0.0, -0.9))
    p = PinStack.pair(1.2)
    assert p.pins == ((0.0, 0.6), (0.0, -0.6))
    with pytest.raises(ValueError):
        PinStack(pins=((0.0, 0.3), (0.5, 0.3)))


class TestSolveCoefficients:
    def test_zero_amplitude(self):
        inc = IncidentWave.from_alpha0(0.5, 3.0, amplitude=0.0)
        coeffs = solve_coefficients(PinStack.triplet(1.0, 0.1), inc)
        assert np.allclose(coeffs, 0.0)

    def test_single_grating_closed_form(self):
        inc = IncidentWave.from_alpha0(0.5, 3.0)
        coeffs = solve_coefficients(PinStack.single(), inc)
        g00 = greens(SpectralPoint(0.5, 3.0), 0.0, 0.0)
        assert coeffs[0] == pytest.approx(-inc.field(0.0, 0.0) / g00, rel=1e-13)

    def test_pin_condition_on_random_stacks(self):
        rng = np.random.default_rng(101)
        point = SpectralPoint(0.0, 1.0)  # placeholder, rebound per draw
        checked = 0
        while checked < 200:
            inc = _random_incidence(rng)
            stack = _random_stack(rng)
            try:
                coeffs = solve_coefficients(stack, inc)
            except SingularSystem:
                continue
            point = SpectralPoint(inc.alpha0, inc.beta)
            for xm, ym in stack.pins:
                total = inc.field(xm, ym)
                for (xj, yj), a in zip(stack.pins, coeffs):
                    total += a * greens(point, xm - xj, ym - yj)
                assert abs(total) <= 1e-10
            checked += 1

    def test_pin_condition_on_transparency_notch(self):
        inc = IncidentWave.from_angle(math.radians(30.0), 3.61747)
        stack = PinStack.triplet(1.0, 0.25200)
        coeffs = solve_coefficients(stack, inc)
        point = SpectralPoint(inc.alpha0, inc.beta)
        for xm, ym in stack.pins:
            total = inc.field(xm, ym)
            for (xj, yj), a in zip(stack.pins, coeffs):
                total += a * greens(point, xm - xj, ym - yj)
            assert abs(total) <= 1e-10

    def test_singular_system_on_coalescing_gratings(self):
        # both offsets sit on the column x = 0, whose window is always
        # N_FAR: the two matrix rows genuinely coincide as the separation
        # vanishes
        with pytest.raises(SingularSystem):
            solve_coefficients(PinStack.pair(1e-10), IncidentWave.from_angle(0.3, 3.0))


class TestPlaneWaveAmplitudes:
    def test_no_pins_is_transparent(self):
        inc = IncidentWave.from_alpha0(0.5, 3.0)
        r, t = plane_wave_amplitudes(np.zeros(0, dtype=complex),
                                     PinStack(pins=()), inc)
        assert all(abs(v) == 0.0 for v in r.values())
        assert t[0] == inc.amplitude
        assert all(abs(t[n]) == 0.0 for n in t if n != 0)

    def test_a_grazing_order_is_refused(self):
        # at beta = 2 pi + 1e-12 orders -1 and 1 propagate with
        # chi = 3.5e-6 < 1e-6 beta; at the default guard no double beta
        # grazes (chi^2 >= ulp(beta) beta)
        inc = IncidentWave.from_alpha0(0.0, TWO_PI + 1e-12)
        coeffs = np.zeros(3, dtype=complex)
        with pytest.raises(DomainError, match="^order -1 grazes its light line$"):
            plane_wave_amplitudes(coeffs, PinStack.triplet(1.0), inc,
                                  TruncationPolicy(lightline_tol=1e-6))
        r, _ = plane_wave_amplitudes(coeffs, PinStack.triplet(1.0), inc)
        assert sorted(r) == [-1, 0, 1]

    def test_energy_identity(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            inc = _random_incidence(rng)
            stack = _random_stack(rng)
            try:
                rec = scatter(stack, inc)
            except SingularSystem:
                continue
            assert rec.energy_residual <= 1e-8

    def test_order_energies_are_nonnegative(self):
        rec = scatter(PinStack.triplet(1.0, 0.2),
                      IncidentWave.from_alpha0(0.5, 6.1))
        assert len(rec.R_orders) > 1  # several propagating orders
        for fractions in (rec.R_orders, rec.T_orders):
            for value in fractions.values():
                assert value >= 0.0


def _outcome(evaluate):
    """T's bits, or the class and message of what evaluating it raises."""
    try:
        return np.float64(evaluate()).tobytes()
    except Exception as exc:  # noqa: BLE001 - compared by class and message
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("beta, incidence", [
    (3.0, {"theta_i": 0.3}), (3.0, {"alpha0": -1.2}), (1.0, {"alpha0": 2.0}),
    (3.0, {"theta_i": math.pi / 2}), (TWO_PI, {"theta_i": 0.0}), (-1.0, {"theta_i": 0.3}),
], ids=["angle", "alpha0", "evanescent", "grazing angle", "light line", "negative beta"])
def test_transmittance_is_scatters_at_its_wave(beta, incidence):
    # the one-point scan: scatter's T bits, or what building and solving its
    # wave raises
    stack = PinStack.triplet(1.0, 0.252)
    make = IncidentWave.from_angle if "theta_i" in incidence else IncidentWave.from_alpha0
    expected = _outcome(lambda: scatter(stack, make(*incidence.values(), beta)).T)
    assert _outcome(lambda: transmittance(stack, beta, **incidence)) == expected


def test_reciprocity_up_down():
    for stack in (PinStack.pair(1.1), PinStack.triplet(1.0, 0.0),
                  PinStack.triplet(1.0, 0.17)):
        for beta in (3.55, 3.62):
            down = scatter(stack, IncidentWave.from_angle(
                math.radians(30.0), beta, direction="down"))
            up = scatter(stack, IncidentWave.from_angle(
                math.radians(30.0), beta, direction="up"))
            assert down.T == pytest.approx(up.T, abs=1e-10)


class TestSingleGratingReflectance:
    def test_normal_incidence_mirror(self):
        r = single_grating_reflectance(SpectralPoint(0.0, 4.456001))
        assert 1.0 - r <= 1e-10
        assert r <= 1.0 + 1e-9

    def test_oblique_mirrors(self):
        for deg, beta in [(30.0, 3.599363), (45.0, 3.205694)]:
            alpha0 = beta * math.sin(math.radians(deg))
            r = single_grating_reflectance(SpectralPoint(alpha0, beta))
            assert 1.0 - r <= 1e-10

    def test_long_wave_reflectance_saturates(self):
        # A zero-radius pin never becomes invisible: G(0,0) diverges as
        # -(1-i)/(4 d beta^3) for beta -> 0, so r0 -> i/(1-i) and
        # R_g -> 1/2 from above (monotone decay toward the limit).
        values = [single_grating_reflectance(SpectralPoint(0.0, b))
                  for b in (0.1, 0.05, 0.01)]
        assert values[0] > values[1] > values[2]
        assert values[2] == pytest.approx(0.5, abs=1e-4)


def test_scan_records_scatter_at_each_beta_in_order():
    # beta = 2.0 < |alpha0| makes the incident wave evanescent: recorded
    stack = PinStack.triplet(1.0, 0.252)
    betas = [3.62, 2.0, 3.55]
    records = scan(stack, np.array(betas), alpha0=2.1)
    assert [r.beta for r in records] == betas
    failed = records.pop(1)
    assert failed.error == ("DomainError: |alpha0| = 2.1 must be < beta = 2.0 "
                            "for a propagating incident wave")
    assert failed.alpha0 == 2.1
    assert math.isnan(failed.T)
    for rec in records:
        assert rec == scatter(stack, IncidentWave.from_alpha0(2.1, rec.beta))


# a pair 1e-7 apart at theta_i = 0.3 or alpha0 = 0.1: its H is singular
# (condition 4e14) at beta = 0.5 and solves at 1, 3 and 3.5;
# 4.849932308946276 is on order -1's light line at the angle (2 pi / (1 + sin 0.3)
# rounds 1 ulp below, which _reactance fails as singular instead), and
# 2 pi - 0.1 on it at the Bloch parameter
@pytest.mark.parametrize("incidence, betas, failures", [
    ({"theta_i": 0.3}, [3.0, math.nan, 0.5, -1.0, 4.849932308946276, 1.0, 3.5],
     ["ValueError", "SingularSystem", "ValueError", "LightLineProximity"]),
    ({"alpha0": 0.1}, [3.0, math.nan, 0.5, -1.0, TWO_PI - 0.1, 0.05, 1.0, 3.5],
     ["DomainError", "SingularSystem", "DomainError", "LightLineProximity", "DomainError"]),
], ids=["theta_i", "alpha0"])
def test_every_failure_in_a_scan_is_its_scatter_outcome(incidence, betas, failures):
    # failures from each stage in one scan (refused before the builder at a
    # fixed Bloch parameter or by its validation at a fixed angle, the
    # builder's light-line guard, _reactance's condition test) beside points
    # that solve: each record is the one-point scatter's, or its exception
    stack = PinStack.pair(1e-7)
    make = IncidentWave.from_angle if "theta_i" in incidence else IncidentWave.from_alpha0
    records = scan(stack, betas, **incidence)
    raised = []
    for beta, record in zip(betas, records):
        try:
            expected = scatter(stack, make(*incidence.values(), beta))
        except Exception as exc:  # noqa: BLE001 - compared by class and message
            raised.append(type(exc).__name__)
            assert record.error == f"{type(exc).__name__}: {exc}"
            assert math.isnan(record.T) and math.isnan(record.R)
            assert record.R_orders == record.T_orders == {}
        else:
            assert record == expected
    assert raised == failures
    # the columns under the records are NaN exactly where a wave failed
    columns = scattering._scan_columns(stack, np.array(betas), incidence.get("theta_i"),
                                       incidence.get("alpha0"), DEFAULT_POLICY)
    failed = [error is not None for error in columns.errors]
    for values in (columns.R, columns.T, columns.energy_residual):
        assert np.isnan(values).tolist() == failed


def test_a_clean_window_has_only_none_errors():
    # a kernel-built window and an interpolated one (scattering._interpolated)
    for stack, betas, theta in (
            (SCAN30, np.linspace(3.3, 3.9, 401), THETA_30),
            (PinStack.triplet(2.1319459999781842, 0.24777142666253502),
             np.linspace(2.947171960007326 - 1e-7, 2.947171960007326 + 1e-7, 1001),
             math.radians(60.0))):
        columns = scattering._scan_columns(stack, betas, theta, None, DEFAULT_POLICY)
        assert columns.errors == [None] * len(betas)
        assert np.isfinite(columns.T).all() and np.isfinite(columns.R).all()


def test_spectrum_record_fields_defaults_and_equality():
    # records are slotted rather than frozen; their fields, defaults and
    # equality are the dataclass's all the same
    fields = dataclasses.fields(SpectrumRecord)
    assert [f.name for f in fields] == ["alpha0", "beta", "R_orders", "T_orders", "R", "T",
                                        "energy_residual", "error"]
    first, second = SpectrumRecord(0.5, 3.0), SpectrumRecord(0.5, 3.0)
    assert first.R_orders == first.T_orders == {}
    assert len({id(first.R_orders), id(first.T_orders), id(second.R_orders),
                id(second.T_orders)}) == 4
    assert all(math.isnan(x) for x in (first.R, first.T, first.energy_residual))
    assert first.error is None
    assert not hasattr(first, "__dict__")
    (record,) = scan(SCAN30, [3.6], theta_i=THETA_30)
    rebuilt = SpectrumRecord(alpha0=record.alpha0, beta=record.beta,
                             R_orders=dict(record.R_orders), T_orders=dict(record.T_orders),
                             R=record.R, T=record.T, energy_residual=record.energy_residual,
                             error=record.error)
    assert record == rebuilt
    assert repr(record) == repr(rebuilt)


def _bisect_point_by_point(stack, beta_range, resolution, refine_jump, **opts):
    """spectrum_scan's refinement as a depth-first work list, one scan per midpoint."""
    betas = np.linspace(*beta_range, resolution)
    records = {r.beta: r for r in scan(stack, betas, **opts)}
    work = list(zip(betas.tolist(), betas[1:].tolist()))
    while work and len(records) < scattering._MAX_POINTS:
        b_lo, b_hi = work.pop()
        t_lo, t_hi = records[b_lo].T, records[b_hi].T
        if (b_hi - b_lo <= 2.0 * scattering._MIN_STEP or math.isnan(t_lo)
                or math.isnan(t_hi) or abs(t_hi - t_lo) <= refine_jump):
            continue
        mid = 0.5 * (b_lo + b_hi)
        if mid not in records:
            records[mid], = scan(stack, [mid], **opts)
        work += [(b_lo, mid), (mid, b_hi)]
    return [records[b] for b in sorted(records)]


def _scanned_rounds(monkeypatch) -> list:
    """The betas of each scan spectrum_scan runs: the grid, then one round each."""
    rounds, real_scan = [], scattering.scan

    def counted(stack, betas, **opts):
        rounds.append(list(betas))
        return real_scan(stack, betas, **opts)

    monkeypatch.setattr(scattering, "scan", counted)
    return rounds


def _split_intervals(rounds: list) -> list:
    """Each midpoint's interval: its neighbours among the points of earlier rounds."""
    seen, intervals = sorted(rounds[0]), []
    for mids in rounds[1:]:
        for mid in mids:
            i = int(np.searchsorted(seen, mid))
            intervals.append((seen[i - 1], seen[i]))
        seen = sorted(seen + mids)
    return intervals


class TestSpectrumScan:
    def test_single_grating_matches_reflectance(self):
        records = spectrum_scan(PinStack.single(), (3.0, 3.2), alpha0=0.9,
                                resolution=5)
        for rec in records:
            direct = single_grating_reflectance(
                SpectralPoint(0.9, rec.beta))
            assert rec.R_orders[0] == direct

    def test_empty_stack_is_transparent(self):
        records = spectrum_scan(PinStack(pins=()), (2.0, 3.0),
                                theta_i=math.radians(10.0), resolution=7)
        for rec in records:
            assert rec.T == pytest.approx(1.0, abs=1e-14)
            assert rec.R == pytest.approx(0.0, abs=1e-14)

    def test_monotone_output_and_error_records(self):
        # below beta = |alpha0| the incident wave is evanescent; those points
        # are recorded as failures, not raised
        records = spectrum_scan(PinStack.single(), (2.05, 2.15), alpha0=2.1,
                                resolution=5)
        betas = [r.beta for r in records]
        assert betas == sorted(betas)
        statuses = [r.error for r in records]
        assert statuses[0] == ("DomainError: |alpha0| = 2.1 must be < beta = 2.05 "
                               "for a propagating incident wave")
        assert statuses[-1] is None
        assert math.isnan(records[0].T)

    def test_refinement_resolves_sharp_feature(self):
        stack = PinStack.triplet(1.0, 0.0)
        coarse = spectrum_scan(stack, (3.62, 3.67), alpha0=2.1, resolution=11)
        refined = spectrum_scan(stack, (3.62, 3.67), alpha0=2.1, resolution=11,
                                refine=True, refine_jump=0.1)
        assert len(refined) > len(coarse)
        t = np.array([r.T for r in refined])
        assert np.max(np.abs(np.diff(t))) <= 0.1

    def test_refinement_agrees_with_point_by_point_bisection(self):
        # each split depends only on the T values at its two ends, and a
        # record depends on its batch only where the batch is a narrow window
        # whose H is interpolated (here the last two rounds, 67 and 59
        # midpoints within 0.0073 and 0.0044): rounds split the same
        # intervals, and give the one-point scans' T to 1e-12
        expected = _bisect_point_by_point(SCAN30, (3.6, 3.63), 21, 0.01, theta_i=THETA_30)
        records = spectrum_scan(SCAN30, (3.6, 3.63), theta_i=THETA_30, resolution=21,
                                refine=True, refine_jump=0.01)
        assert len(records) == 269
        assert [r.beta for r in records] == [r.beta for r in expected]
        assert [r.error for r in records] == [None] * 269
        for rec, one in zip(records, expected):
            assert abs(rec.T - one.T) <= 1e-12 and abs(rec.R - one.R) <= 1e-12
        assert sum(rec == one for rec, one in zip(records, expected)) >= 269 - 67 - 59

    def test_refinement_inserts_no_point_beside_a_failed_point(self):
        # the range of spectrum_alpha0.json: below beta = 2.1 the first 11
        # grid points have no incident wave, and a NaN T splits nothing
        grid = np.linspace(2.0, 4.3, 231).tolist()
        records = spectrum_scan(SCAN30, (2.0, 4.3), alpha0=2.1, resolution=231, refine=True)
        betas = [r.beta for r in records]
        assert betas == [r.beta for r in _bisect_point_by_point(SCAN30, (2.0, 4.3), 231, 0.1,
                                                                 alpha0=2.1)]
        failed = [i for i, r in enumerate(records) if r.error is not None]
        assert failed == list(range(11)) and len(records) > len(grid)
        assert betas[:12] == grid[:12]

    def test_refinement_splits_no_interval_of_two_min_steps(self, monkeypatch):
        # with _MIN_STEP = 1e-3 the 2.5e-3 intervals still split, their
        # 1.25e-3 halves no longer, though T still jumps across some
        monkeypatch.setattr(scattering, "_MIN_STEP", 1e-3)
        rounds = _scanned_rounds(monkeypatch)
        records = spectrum_scan(SCAN30, (3.6, 3.63), theta_i=THETA_30, resolution=4,
                                refine=True, refine_jump=0.01)
        widths = [b_hi - b_lo for b_lo, b_hi in _split_intervals(rounds)]
        assert len(records) == 4 + len(widths)
        assert min(widths) == pytest.approx(2.5e-3) and min(widths) > 2e-3
        assert np.max(np.abs(np.diff([r.T for r in records]))) > 0.01

    def test_refinement_fills_the_point_cap_breadth_first(self, monkeypatch):
        # the cap takes the lowest midpoints of the first round, each
        # halfway between two neighbouring grid points
        monkeypatch.setattr(scattering, "_MAX_POINTS", 405)
        grid = set(np.linspace(3.3, 3.9, 401).tolist())
        records = spectrum_scan(SCAN30, (3.3, 3.9), theta_i=THETA_30, refine=True)
        betas = [r.beta for r in records]
        assert len(betas) == 405 and betas == sorted(betas)
        assert grid <= set(betas)
        inserted = [i for i, beta in enumerate(betas) if beta not in grid]
        assert all(betas[i - 1] in grid and betas[i + 1] in grid for i in inserted)

    def test_refinement_scans_once_per_round(self, monkeypatch):
        # the 401-point grid, then the 6 and 7 midpoints of two rounds
        calls, columns = [], scattering._scan_columns

        def counted(stack, betas, *args):
            calls.append(len(betas))
            return columns(stack, betas, *args)

        monkeypatch.setattr(scattering, "_scan_columns", counted)
        records = spectrum_scan(SCAN30, (3.3, 3.9), theta_i=THETA_30, refine=True)
        assert calls == [401, 6, 7] and len(records) == 414

    @pytest.mark.parametrize("options", [
        {"resolution": 1},
        {"resolution": 0},
        {"refine": True, "refine_jump": 0.0},
        {"refine": True, "refine_jump": -0.1},
        {"refine": True, "refine_jump": float("nan")},
        {"beta_range": (3.0, math.inf)},
        {"beta_range": (-math.inf, 3.1)},
    ])
    def test_refuses_bad_options_before_any_evaluation(self, monkeypatch, options):
        # one point would drop beta_max, no point returns nothing, a jump
        # that is not positive bisects every interval up to the point cap,
        # and an infinite bound makes NaN and inf points
        calls = []
        monkeypatch.setattr(scattering, "scan", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError):
            spectrum_scan(PinStack.single(), **{"beta_range": (3.0, 3.1), "alpha0": 0.5,
                                                **options})
        assert calls == []

    def test_requires_exactly_one_incidence(self):
        with pytest.raises(ValueError):
            spectrum_scan(PinStack.single(), (3.0, 3.1))
        with pytest.raises(ValueError):
            spectrum_scan(PinStack.single(), (3.0, 3.1), alpha0=0.5,
                          theta_i=0.3)


def test_resonance_positions_match_dispersion_minima():
    # transmission peaks of the unshifted stack sit on the dispersion-curve
    # minima to within a small systematic offset
    geometry = StackGeometry(eta=1.0, xi=0.0)
    stack = PinStack.triplet(1.0, 0.0)

    def residual(kind: str, beta: float) -> float:
        r = dispersion_residual(assemble(SpectralPoint(2.1, beta), geometry))
        return r.odd if kind == "odd" else r.even

    for kind, window in [("even", (3.46, 3.49)), ("odd", (3.63, 3.66))]:
        betas = np.linspace(*window, 301)
        t_peak = betas[np.argmax([transmittance(stack, float(b), alpha0=2.1)
                                  for b in betas])]
        d_min = betas[np.argmin([residual(kind, float(b)) for b in betas])]
        assert abs(t_peak - d_min) <= 5e-3


class TestFabryPerotModel:
    def test_resonant_phase(self):
        for n in range(3):
            assert fabry_perot_model(0.7, 2.0 * math.pi * n) == pytest.approx(1.0)

    def test_transparent_mirrors(self):
        for delta in (0.0, 1.0, math.pi):
            assert fabry_perot_model(0.0, delta) == 1.0

    def test_antiresonance_value(self):
        assert fabry_perot_model(0.9, math.pi) == pytest.approx(
            1.0 / 361.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            fabry_perot_model(1.0, 0.5)
