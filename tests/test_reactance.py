"""The reactance-form solve and the interpolated narrow windows.

At real points scattering solves S = (I - i K)(I + i K)^-1 with the
Hermitian reactance matrix K = W^H H^-1 W, so every solved point conserves
energy to rounding; a scan over a window that is narrow against its
distance to the nearest light line takes H from a Chebyshev interpolant of
the builder at a few nodes (scattering._interpolated).
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pinstacks.cli import main
from pinstacks.greens import DEFAULT_POLICY
from pinstacks.scattering import IncidentWave, PinStack, scan, scatter

scattering = importlib.import_module("pinstacks.scattering")
DATA = Path(__file__).resolve().parent / "data"
TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps

# the 60-degree EDIT study's stack and EDIT point (test_edit60_result_bits_are_pinned)
THETA_60 = math.radians(60.0)
EDIT60 = PinStack.triplet(2.1319459999781842, 0.24777142666253502)
BETA_EDIT = 2.947171960007326
EDIT60_WINDOWS = {"envelope": (1.2e-4, 2000), "notch": (1e-7, 1001), "narrowest": (3e-9, 1001)}

# the pinned spectra with their incidence: (stack, theta_i, alpha0)
PINNED = {
    "spectrum_refine": (PinStack.triplet(1.0, 0.252), math.radians(30.0), None),
    "spectrum_alpha0": (PinStack.triplet(1.0, 0.252), None, 2.1),
    "spectrum_mirror": (PinStack.triplet(1.0, 0.252), None, -1.8),
    "spectrum_singular": (PinStack.triplet(4.2638919999563685, 0.24989750370889235),
                          math.radians(60.0), None),
}


def _window(halfwidth: float, points: int) -> np.ndarray:
    return np.linspace(BETA_EDIT - halfwidth, BETA_EDIT + halfwidth, points)


def _kernel_parts(stack: PinStack, betas: np.ndarray, theta_i: float | None = None,
                  alpha0: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The builder's M and H = (M + M^H) / 2 at every beta."""
    bloch = np.full(len(betas), scattering._alpha0_rule(theta_i, alpha0)(betas), dtype=float)
    matrices, errors = scattering._interaction_matrices(bloch, betas, scattering._pins(stack),
                                                        DEFAULT_POLICY)
    assert errors == [None] * len(betas)
    return matrices, scattering._hermitian(matrices)


def _lu_transmittance(matrices: np.ndarray, stack: PinStack, betas: np.ndarray,
                      bloch: np.ndarray) -> np.ndarray:
    """T from the LU solve of M A = -u and the plane-wave sums over the reactions."""
    pins = scattering._pins(stack)
    chi0 = np.sqrt(betas * betas - bloch * bloch)
    u = np.exp(1j * (bloch[:, None] * pins[:, 0] - chi0[:, None] * pins[:, 1]))
    reactions = np.linalg.solve(matrices, -u[:, :, None])[:, :, 0]
    out = np.zeros(len(betas))
    for n in range(-3, 4):
        alpha = bloch + TWO_PI * n
        flows = alpha * alpha < betas * betas
        chi = np.sqrt(np.where(flows, betas * betas - alpha * alpha, 1.0))
        t = 1j / (4.0 * betas * betas * chi) * np.sum(
            reactions * np.exp(-1j * alpha[:, None] * pins[:, 0]
                               + 1j * chi[:, None] * pins[:, 1]), axis=1)
        t = t + (n == 0)
        out += np.where(flows, np.abs(t) ** 2 * chi / chi0, 0.0)
    return out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_spectra_conserve_energy(name):
    rows = json.loads((DATA / f"{name}.json").read_text())["rows"]
    residuals = [row["energy_residual"] for row in rows if row["status"] == "ok"]
    assert len(residuals) > 200
    assert max(residuals) <= 1e-13


@pytest.mark.parametrize("theta_deg, m", [(48, 2), (60, 1)])
def test_notch_scans_conserve_energy(tmp_path, capsys, theta_deg, m):
    # steer --with-q --results-dir's notch scans reached 3.7e-3 (m = 2, 48
    # degrees) and 1.45e-6 (m = 1, 60 degrees) with the LU solve of M
    code = main(["steer", "--theta", str(theta_deg), "--m", str(m), "--with-q",
                 "--results-dir", str(tmp_path), "--no-timestamp"])
    capsys.readouterr()
    assert code == 0
    text = (tmp_path / f"theta{theta_deg}_notch.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(
        "\n".join(line for line in text.splitlines() if not line.startswith("#")))))
    assert len(rows) == 1001
    assert all(row["status"] == "ok" for row in rows)
    assert max(float(row["energy_residual"]) for row in rows) <= 1e-13


@pytest.mark.parametrize("name", ["spectrum_refine", "spectrum_mirror", "spectrum_alpha0"])
def test_transmittance_is_the_lu_solves_where_m_is_well_conditioned(name):
    # where kappa_2(M) <= 1e8 the LU solve of M (the solve before the
    # reactance form) and the reactance form agree to 1e-12 (2.7e-14 seen)
    stack, theta_i, alpha0 = PINNED[name]
    rows = json.loads((DATA / f"{name}.json").read_text())["rows"]
    betas = np.array([row["beta"] for row in rows])
    records = scan(stack, betas, theta_i=theta_i, alpha0=alpha0)
    ok = np.array([r.error is None for r in records])
    betas = betas[ok]
    matrices, _ = _kernel_parts(stack, betas, theta_i, alpha0)
    well = np.linalg.cond(matrices) <= 1e8
    assert well.sum() > 200
    bloch = np.full(len(betas), scattering._alpha0_rule(theta_i, alpha0)(betas), dtype=float)
    lu = _lu_transmittance(matrices, stack, betas, bloch)
    t = np.array([r.T for r in records])[ok]
    assert np.max(np.abs(t - lu)[well]) <= 1e-12


def test_narrowest_notch_window_matches_a_40_digit_solve():
    # On edit60's +-3e-9 notch window the kernel fixes M's entries only to
    # its point-to-point noise, up to ~30 ulp of max |M| (see the
    # interpolation test below), and T there moves by up to ~1e-5 under
    # entry moves of that size (the interpolated H against the kernel-built
    # one moves T by up to 5.3e-6).  So the reactance form's T, from the
    # interpolated H, must agree with a 40-digit solve of the kernel-built M
    # to that noise, 2e-5 (5.3e-6 seen), where T spans 1.3e-8 to 0.9986
    mpmath = pytest.importorskip("mpmath")
    betas = _window(3e-9, 1001)
    records = scan(EDIT60, betas, theta_i=THETA_60)
    picks = [0, 300, 480, 500, 520, 700, 1000]
    matrices, _ = _kernel_parts(EDIT60, betas[picks], THETA_60)
    pins = scattering._pins(EDIT60)
    with mpmath.workdps(40):
        for k, i in enumerate(picks):
            beta = mpmath.mpf(float(betas[i]))
            bloch = mpmath.mpf(float(betas[i] * math.sin(THETA_60)))
            chi0 = mpmath.sqrt(beta**2 - bloch**2)
            m = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in matrices[k]])
            u = mpmath.matrix([-mpmath.exp(1j * (bloch * x - chi0 * y)) for x, y in pins])
            reactions = mpmath.lu_solve(m, u)
            # only order 0 propagates on this window
            t = 1 + 1j / (4 * beta**2 * chi0) * mpmath.fsum(
                reactions[j] * mpmath.exp(-1j * bloch * x + 1j * chi0 * y)
                for j, (x, y) in enumerate(pins))
            reference = float(abs(t) ** 2)
            assert abs(records[i].T - reference) <= 2e-5, (i, records[i].T, reference)
            assert records[i].energy_residual <= 1e-13


@pytest.mark.parametrize("window", sorted(EDIT60_WINDOWS))
def test_interpolated_h_is_the_kernels_within_the_check_bound(window):
    halfwidth, points = EDIT60_WINDOWS[window]
    betas = _window(halfwidth, points)
    interpolated = scattering._interpolated(scattering._pins(EDIT60), betas, THETA_60, None,
                                            DEFAULT_POLICY)
    assert interpolated is not None
    matrices, parts = _kernel_parts(EDIT60, betas, THETA_60)
    bound = scattering._CHECK_ULPS * EPS * np.abs(matrices).max()
    assert np.abs(interpolated - parts).max() <= bound
    # exactly Hermitian, as the node values are
    assert np.array_equal(interpolated, np.conj(np.swapaxes(interpolated, 1, 2)))


def test_a_missed_check_takes_the_full_builds_bits(monkeypatch):
    # the builder's answer at the check points moved by 1e-12 of max |M|
    # (4,500 ulp): the interpolant misses them, and the window takes the
    # full build
    builder, calls = scattering._interaction_matrices, []

    def moved_checks(alpha0, beta, pins, policy):
        matrices, errors = builder(alpha0, beta, pins, policy)
        calls.append(len(beta))
        if len(beta) == scattering._NODES + 2:
            matrices[scattering._NODES:] += 1e-12 * np.abs(matrices).max()
        return matrices, errors

    monkeypatch.setattr(scattering, "_interaction_matrices", moved_checks)
    betas = _window(1e-7, 1001)
    columns = scattering._scan_columns(EDIT60, betas, THETA_60, None, DEFAULT_POLICY)
    assert calls == [scattering._NODES + 2, 1001]
    monkeypatch.setattr(scattering, "_interaction_matrices", builder)
    waves = (betas * math.sin(THETA_60), betas, np.ones(1001, dtype=complex),
             np.full(1001, -1.0))
    full = scattering._scatter_all(scattering._pins(EDIT60), waves, [None] * 1001,
                                   DEFAULT_POLICY)
    for name in ("R", "T", "energy_residual", "R_orders", "T_orders", "coeffs"):
        assert np.array_equal(getattr(columns, name), getattr(full, name)), name


def test_a_failed_node_takes_the_full_build_and_fails_each_point_alone(monkeypatch):
    # a window 1e-6 wide at beta = 5e5 is narrow, but every node is refused
    # as wider than 2^20 orders: the full build fails each point with its
    # own message
    builder, calls = scattering._interaction_matrices, []

    def counted(alpha0, beta, pins, policy):
        calls.append(len(beta))
        return builder(alpha0, beta, pins, policy)

    monkeypatch.setattr(scattering, "_interaction_matrices", counted)
    betas = np.linspace(5e5, 5e5 + 1e-6, 40)
    records = scan(PinStack.triplet(1.0, 0.252), betas, theta_i=0.3)
    assert calls == [scattering._NODES + 2, 40]
    assert [r.beta for r in records] == betas.tolist()
    for rec in records:
        assert rec.error == (f"ValueError: no window at alpha0={rec.alpha0}, "
                             f"beta={rec.beta}: wider than 2^20 orders")


def test_scan30_window_is_one_builder_call_over_all_its_points(monkeypatch):
    # 3.3-3.9 is 0.6 wide, against a light-line gap of 0.57 from its centre
    builder, calls = scattering._interaction_matrices, []

    def counted(alpha0, beta, pins, policy):
        calls.append(len(beta))
        return builder(alpha0, beta, pins, policy)

    monkeypatch.setattr(scattering, "_interaction_matrices", counted)
    scan(PinStack.triplet(1.0, 0.252), np.linspace(3.3, 3.9, 401), theta_i=math.radians(30.0))
    assert calls == [401]


def test_scan_records_are_scatters_to_the_bit_or_within_the_interpolation_bound():
    # A kernel-built window's records are scatter's records, bit for bit;
    # an interpolated window's H is the kernel's within _CHECK_ULPS ulp of
    # max |M| (above), which moves T by at most 1e-9 on edit60's envelope
    # (4.2e-11 seen), and keeps every record's energy residual at rounding
    theta = math.radians(30.0)
    wide = np.linspace(3.3, 3.9, 41)
    for rec in scan(PinStack.triplet(1.0, 0.252), wide, theta_i=theta):
        assert rec == scatter(PinStack.triplet(1.0, 0.252),
                              IncidentWave.from_angle(theta, rec.beta))
    betas = _window(1.2e-4, 2000)
    records = scan(EDIT60, betas, theta_i=THETA_60)
    assert max(r.energy_residual for r in records) <= 1e-13
    for rec in records[::40]:
        one = scatter(EDIT60, IncidentWave.from_angle(THETA_60, rec.beta))
        assert abs(rec.T - one.T) <= 1e-9 and abs(rec.R - one.R) <= 1e-9
        assert sorted(rec.T_orders) == sorted(one.T_orders)
