"""Batched evaluation: a point's result never depends on its batch-mates.

scan, dispersion_grid and the steering grids evaluate whole beta vectors in
one call of one lattice-sum kernel and one interaction-matrix builder;
scatter, assemble and greens are their single-point cases.  Every batched
result must equal the single-point one exactly (==), whatever the batch
size, the chunk a point falls in, or the windows and failures of the points
around it.
"""

from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pinstacks.greens import DEFAULT_POLICY, SpectralPoint, TruncationPolicy, greens
from pinstacks.modes import StackGeometry, assemble, dispersion_grid, dispersion_residual
from pinstacks.scattering import IncidentWave, PinStack, scan, scatter

greens_module = importlib.import_module("pinstacks.greens")
MODULE_CHUNK = greens_module._CHUNK

TWO_PI = 2.0 * math.pi
TRIPLET = PinStack.triplet(1.0, 0.252)
# a wider light-line guard puts exactly one grid point inside it
POLICY = TruncationPolicy(lightline_tol=1e-6)


def _single(make_wave, beta):
    """scatter's record at beta, or "Class: message" of what it raises."""
    try:
        return scatter(TRIPLET, make_wave(beta), POLICY)
    except Exception as exc:  # noqa: BLE001 - compared as scan records it
        return f"{type(exc).__name__}: {exc}"


def _check_scan(records, betas, make_wave):
    assert [r.beta for r in records] == list(betas)
    for rec in records:
        single = _single(make_wave, rec.beta)
        if isinstance(single, str):
            assert rec.error == single and math.isnan(rec.T)
        else:
            assert rec == single


@pytest.fixture(params=["module chunk", "one pass"])
def chunk(request, monkeypatch):
    """The module's chunk (many passes), or one pass large enough for numpy
    to turn ``a * temporary`` into an in-place product."""
    if request.param == "one pass":
        monkeypatch.setattr(greens_module, "_CHUNK", 1 << 24)
    return request.param


def test_fixed_angle_scan_across_a_wood_anomaly(chunk):
    theta = math.radians(30.0)
    wood = TWO_PI / (1.0 + math.sin(theta))   # order -1 turns propagating
    betas = np.linspace(wood - 0.3, wood + 0.3, 600)
    assert wood not in betas
    betas = np.insert(betas, 300, wood)
    # more than one kernel pass at the module's chunk (4 offsets, 41 orders)
    assert len(betas) * 4 * 41 > 2 * MODULE_CHUNK
    records = scan(TRIPLET, betas, theta_i=theta, policy=POLICY)
    _check_scan(records, betas, lambda b: IncidentWave.from_angle(theta, b))
    assert [r.error.partition(": ")[0] for r in records if r.error] == [
        "LightLineProximity"]
    keys = {tuple(r.R_orders) for r in records if r.error is None}
    assert keys == {(0,), (-1, 0)}


def test_fixed_bloch_scan_with_failed_points(chunk):
    # beta < alpha0: no incident wave (DomainError); 2 pi - alpha0: order -1
    # on its light line (LightLineProximity)
    alpha0 = 2.1
    betas = np.concatenate([np.linspace(2.0, 4.4, 400), [TWO_PI - alpha0]])
    records = scan(TRIPLET, betas, alpha0=alpha0, policy=POLICY)
    _check_scan(records, betas, lambda b: IncidentWave.from_alpha0(alpha0, b))
    errors = [r.error.partition(": ")[0] for r in records if r.error]
    assert set(errors) == {"DomainError", "LightLineProximity"}
    assert {tuple(r.R_orders) for r in records if r.error is None} == {(0,), (-1, 0)}


def test_dispersion_grid_equals_assemble_cell_by_cell(chunk):
    # the x = 0 window grows from 20 to 21 orders near beta = 8.25, so the
    # columns mix windows; (0, 2 pi) sits on a light line
    geometry = StackGeometry(eta=1.0, xi=0.25)
    alpha0s = np.array([0.0, 0.3, 0.7])
    betas = np.concatenate([np.linspace(5.9, 8.6, 90), [TWO_PI]])
    windows = {DEFAULT_POLICY.window(0.3, b, 0.0, 0.0) for b in betas}
    assert len(windows) > 1
    rows = dispersion_grid(alpha0s, betas, geometry)
    assert [(r["alpha0"], r["beta"]) for r in rows] == [
        (a, b) for a in alpha0s.tolist() for b in betas.tolist()]
    for row in rows:
        try:
            direct = dispersion_residual(
                assemble(SpectralPoint(row["alpha0"], row["beta"]), geometry))
        except Exception as exc:  # noqa: BLE001 - compared by class name
            assert row["status"] == type(exc).__name__
            assert math.isnan(row["log10_odd"])
            continue
        assert row["status"] == "ok"
        assert row["log10_odd"] == direct.log10_odd
        assert row["log10_even"] == direct.log10_even
    statuses = [r["status"] for r in rows]
    assert statuses.count("LightLineProximity") == 1


def test_triplet_scatter_sums_four_lattice_sums_in_one_call(monkeypatch):
    calls = []
    kernel = greens_module._lattice_sums

    def counting(*args, **kwargs):
        values, near = kernel(*args, **kwargs)
        calls.append(values.size)
        return values, near

    monkeypatch.setattr(greens_module, "_lattice_sums", counting)
    inc = IncidentWave.from_angle(math.radians(30.0), 3.6)
    scatter(TRIPLET, inc)
    assert calls == [4]           # M11 once, mirror entries once each
    calls.clear()
    scatter(PinStack.pair(1.0), inc)
    assert calls == [2]


def test_mode_matrix_is_the_triplet_interaction_matrix():
    point = SpectralPoint(1.808735, 3.61747)
    geometry = StackGeometry(eta=1.0, xi=0.252)
    matrices, errors = greens_module._interaction_matrices(
        [point.alpha0], [point.beta], TRIPLET.pins, DEFAULT_POLICY)
    assert errors == [None]
    assert np.array_equal(assemble(point, geometry).entries, matrices[0])


def test_points_without_a_window_fail_per_point():
    # an infinite or NaN point has no truncation window: OverflowError for
    # infinity (as int(inf)), ValueError for NaN, recorded per point, never
    # aborting the batch and never reaching the kernel
    inf, nan = math.inf, math.nan
    theta = math.radians(30.0)
    records = scan(TRIPLET, [3.0, inf, nan, 3.1], theta_i=theta)
    assert [r.error for r in records] == [
        None, "OverflowError: no window at alpha0=inf, beta=inf",
        "ValueError: beta must be positive, got nan", None]
    assert records[3] == scatter(TRIPLET, IncidentWave.from_angle(theta, 3.1))
    # alpha0 = inf * sin(0) is NaN; the empty stack never calls the kernel
    empty = scan(PinStack(pins=()), [3.0, inf], theta_i=0.0)
    assert [r.error for r in empty] == [
        None, "ValueError: no window at alpha0=nan, beta=inf"]
    fixed = scan(TRIPLET, [inf, 3.0], alpha0=0.3)
    assert [r.error for r in fixed] == [
        "OverflowError: no window at alpha0=0.3, beta=inf", None]
    rows = dispersion_grid([0.3, inf], [3.0, nan], StackGeometry(eta=1.0, xi=0.25))
    assert [r["status"] for r in rows] == ["ok", "ValueError", "OverflowError", "ValueError"]
    with pytest.raises(OverflowError):
        greens(SpectralPoint(0.3, inf), 0.0, 0.0)
    with pytest.raises(ValueError):
        greens(SpectralPoint(nan, 3.0), 0.0, 0.0)


def test_points_past_the_widest_window_fail_per_point():
    # beta = 1e15 needs a window of about 2.5e15 orders at x = 0, past the
    # widest the kernel sums (2^20): each such point records a ValueError,
    # a whole window of them included, and the good points keep their bits
    records = scan(TRIPLET, np.linspace(1e15, 1e15 + 1e3, 40), theta_i=0.3)
    assert all(r.error.startswith("ValueError: no window at") and
               r.error.endswith(": wider than 2^20 orders") for r in records)
    good = [3.3, 3.61747, 3.9]
    mixed = scan(TRIPLET, [3.3, 1e15, 3.61747, 1e15 + 1e3, 3.9], theta_i=0.3)
    assert [r.error is None for r in mixed] == [True, False, True, False, True]
    alone = scan(TRIPLET, good, theta_i=0.3)
    for name in ("alpha0", "beta", "T", "R", "energy_residual"):
        assert _bits([getattr(r, name) for r in mixed[::2]]) == _bits(
            [getattr(r, name) for r in alone])
    assert [r.T_orders for r in mixed[::2]] == [r.T_orders for r in alone]
    # an explicit window or n_self past 2^20 is refused before any sum
    with pytest.raises(ValueError, match="n_terms must be at most 2"):
        greens(SpectralPoint(1.2, 2.7), 0.3, 0.4, n_terms=10**12)
    with pytest.raises(ValueError, match="n_self must be at most 2"):
        TruncationPolicy(n_self=2**20 + 1)
    assert TruncationPolicy(n_self=2**20).window(1.2, 2.7, 0.3, 0.0) == 2**20


def test_self_term_is_the_same_beside_a_damped_tail():
    # a close pair puts G(0, 0) (tail on the line) and G(0, 0.05) (damped
    # tail, c q < 40) in one kernel block; greens sums each alone
    point = SpectralPoint(1.808735, 3.61747)
    matrices, errors = greens_module._interaction_matrices(
        [point.alpha0], [point.beta], PinStack.pair(0.05).pins, DEFAULT_POLICY)
    assert errors == [None]
    assert matrices[0, 0, 0] == greens(point, 0.0, 0.0)
    assert matrices[0, 0, 1] == greens(point, 0.0, 0.05)


def _bits(values) -> bytes:
    """Both words of every complex value, sign bits and NaN payloads included."""
    return np.asarray(values, dtype=complex).tobytes()


def _one_pair_sums(alpha0s, betas, pins, policy):
    """Every entry of the pins' interaction matrices, one _lattice_sums pair each."""
    return np.array([[[greens_module._lattice_sums(a, b, xm - xj, ym - yj, policy)[0]
                       for xj, yj in pins] for xm, ym in pins]
                     for a, b in zip(alpha0s, betas)])


@pytest.mark.parametrize("pins", [PinStack.triplet(0.05, 0.3).pins, TRIPLET.pins,
                                  ((0.0, 0.0), (0.3, 0.0), (0.0, 0.7))],
                         ids=["close triplet", "triplet", "mirrored on the source line"])
def test_builder_entries_are_the_one_pair_sums(chunk, pins):
    # at eta = 0.05 the off-column windows exceed N_FAR and the column
    # entries G(0, 0.05), G(0, 0.1) take the damped Kummer tail; the point
    # at beta = 2 pi + 1e-12 is within the wider guard of the light line.
    # Every stack has an offset and its mirror (-x, the same |y|), the last
    # one on the source line y = 0 too, where the window is n_self; the
    # points below the light cone (|alpha_n| > beta at every order) have no
    # propagating order, so every mirrored term there is a conjugate
    main = np.linspace(2.5, 9.0, 120)
    below = np.linspace(0.5, 3.0, 20)
    betas = np.concatenate([main, below, [TWO_PI + 1e-12]])
    alpha0s = np.concatenate([main * np.linspace(-0.9, 0.9, 120),
                              np.resize([1.0, -1.0], 20) * (below + (TWO_PI - 2.0 * below)
                                                            * np.linspace(0.1, 0.9, 20)),
                              [0.0]])
    assert (np.abs(alpha0s[120:140]) > betas[120:140]).all()
    assert all(greens_module.propagating_orders(SpectralPoint(a, b)) == []
               for a, b in zip(alpha0s[120:140], betas[120:140]))
    assert POLICY.window(alpha0s[0], betas[0], 0.3, 0.05) > greens_module.N_FAR
    matrices, errors = greens_module._interaction_matrices(alpha0s, betas, pins, POLICY)
    assert [type(e).__name__ for e in errors if e is not None] == ["LightLineProximity"]
    assert _bits(matrices) == _bits(_one_pair_sums(alpha0s, betas, pins, POLICY))
    # as flat columns, one offset per point, every kind of offset in one column
    pins = np.array(pins)
    dx, dy = (np.subtract.outer(pins[:, k], pins[:, k]).ravel() for k in (0, 1))
    flat, _ = greens_module._lattice_sums(np.repeat(alpha0s, len(dx)), np.repeat(betas, len(dx)),
                                          np.tile(dx, len(betas)), np.tile(dy, len(betas)), POLICY)
    assert _bits(matrices) == _bits(flat)


def test_complex_sums_are_the_one_pair_sums(chunk):
    # complex (alpha0, beta), some with a zero imaginary part as a real seed
    # of the pole search has, against the offsets of every kind: the grid,
    # its flat columns (one offset per point, as joined search requests
    # are) and each pair alone give the same bits
    betas = np.linspace(2.5, 9.0, 90) - 1j * np.linspace(0.0, 0.05, 90)
    betas[::9] = betas[::9].real
    alpha0s = betas * np.linspace(-0.9, 0.9, 90)
    # (0.3, 0.05) and its mirror (-0.3, 0.05): complex points take the
    # general formula at both
    xs = np.array([0.0, 0.0, 0.0, 0.3, -0.3, 0.25, -0.3])
    ys = np.array([0.0, 0.05, 2.0, 0.05, 1.0, 0.0, 0.05])
    grid, near = greens_module._lattice_sums(alpha0s[:, None], betas[:, None], xs, ys, POLICY)
    assert not near.any()
    flat, _ = greens_module._lattice_sums(np.repeat(alpha0s, len(xs)), np.repeat(betas, len(xs)),
                                          np.tile(xs, len(betas)), np.tile(ys, len(betas)), POLICY)
    pairs = [[greens_module._lattice_sums(a, b, x, y, POLICY)[0] for x, y in zip(xs, ys)]
             for a, b in zip(alpha0s, betas)]
    assert _bits(grid) == _bits(flat) == _bits(pairs)


def _random_points(size=200):
    """The real points of the term-level tests: above and below the light cone."""
    rng = np.random.default_rng(7)
    betas = rng.uniform(0.5, 25.0, size)
    return betas * rng.uniform(-1.2, 1.2, size), betas


# (lead x, |y|): a shifted triplet's pair, the source line, a near-zero phase,
# and |y| = 12 and 40, which damp the far orders past the least double
_MIRROR_CASES = [(0.252, 1.0), (-0.3, 0.0), (1e-9, 2.0), (3.7, 12.0), (0.4, 40.0)]


def test_mirror_terms_are_the_general_formula_terms():
    # term by term, zero signs included: the leads' terms made their mirrors'
    # in place (conjugates at evanescent orders, the general formula wherever
    # a part of a lead's term underflows or an order propagates) are the
    # general formula's terms at the mirrors, each lead alone and all in one
    # block, in a 60-order and a 1000-order window
    alpha0s, betas = _random_points()
    for n_terms in (60, 1000):
        orders = greens_module._orders(alpha0s, betas, n_terms, POLICY.lightline_tol)
        for cases in [[case] for case in _MIRROR_CASES] + [_MIRROR_CASES]:
            lead = np.tile([x for x, _ in cases], (len(betas), 1))
            y = np.tile([ay for _, ay in cases], (len(betas), 1))
            terms = greens_module._terms(greens_module._phase(lead, orders.alpha), y, orders)
            general = greens_module._terms(greens_module._phase(-lead, orders.alpha), y, orders)
            mirrored = greens_module._mirror_terms(terms, -lead, y, orders)
            assert mirrored is terms
            assert _bits(mirrored) == _bits(general)


@pytest.mark.parametrize("points, passes", [(401, 5), (1001, 11), (2000, 21)])
def test_a_mirrored_pair_is_one_column_of_a_pass(monkeypatch, points, passes):
    # a shifted triplet's four sums (the pin, G(0, 2 eta) and the pair
    # G(+-xi, eta)) share one 41-order window; the pair's mirror reuses its
    # lead's temporaries, so a pass holds 97 points, not 48
    sizes, orders = [], greens_module._orders

    def counted(alpha0, *args):
        sizes.append(len(alpha0))
        return orders(alpha0, *args)

    monkeypatch.setattr(greens_module, "_orders", counted)
    betas = np.linspace(3.3, 3.9, points)
    greens_module._interaction_matrices(0.5 * betas, betas, TRIPLET.pins, DEFAULT_POLICY)
    assert len(sizes) == passes
    assert max(sizes) * 41 <= MODULE_CHUNK


def test_exp_of_a_conjugate_is_the_conjugate_of_exp():
    # the kernel sums a mirrored offset's evanescent terms as the conjugates
    # of its lead's (greens._mirror_terms), which needs exp(conj z) ==
    # conj(exp z) to the bit (C99 Annex G.6.3.1).  Arguments as the kernel
    # makes them: real part -tau_n |y| or -|chi_n| |y|, from 0 to past
    # underflow; imaginary part alpha_n x, from 0 to n_self windows' orders
    rng = np.random.default_rng(19)
    size = 200_000
    real = -rng.uniform(0.0, 800.0, size) * (rng.random(size) < 0.9)
    imag = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-12.0, 4.5, size)
    z = real + 1j * imag
    z[:8] = [0.0, -0.0, 1j, -1j, 1e-300j, -745.0 + 2.0j, -1e-310 + 3.0j, 1e4j]
    assert _bits(np.exp(np.conj(z))) == _bits(np.conj(np.exp(z)))


# 20 repeats of a 401-point triplet scan, then of a 2,000-point scan of
# edit60's stack (slab eta and xi_edit at 60 degrees, its envelope window),
# in a process of its own: what the heap does on free() depends on what the
# process allocated before.  The first count is the whole scan's, the second
# the reactance pass's alone (the solve, R_n and T_n and the reactions): the
# builder's or interpolant's (points, pins, pins) arrays and the pass's
# (points, pins) and (points, orders) results of a 2,000-point scan fault
# erratically with the heap's state
_FAULT_PROBE = """
import math, resource
import numpy as np
from pinstacks import scattering
from pinstacks.scattering import PinStack, scan

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

reactance, inside = scattering._reactance, [0]

def counted(*args, **kwargs):
    before = faults()
    try:
        return reactance(*args, **kwargs)
    finally:
        inside[0] += faults() - before

scattering._reactance = counted

def repeated(stack, theta, betas):
    scan(stack, betas, theta_i=theta)
    before, inside[0] = faults(), 0
    for _ in range(20):
        scan(stack, betas, theta_i=theta)
    return faults() - before, inside[0]

print(repeated(PinStack.triplet(1.0, 0.252), math.radians(30.0), np.linspace(3.3, 3.9, 401))[0])
print(repeated(PinStack.triplet(2.1319459999781842, 0.247771426660849), math.radians(60.0),
               np.linspace(2.94717 - 1.2e-4, 2.94717 + 1.2e-4, 2000))[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_repeated_scans_fault_in_no_new_memory():
    # the kernel's (points, orders) temporaries and the reactance pass's
    # (points, pins, channels) ones stay under the size whose free() trims
    # the C heap, so a repeated scan reuses their pages instead of faulting
    # them in again (with 128 KiB kernel temporaries: ~1,400 per 401-point
    # scan; with whole-scan amplitude arrays, ~290 KB at 2,000 points: 5,300
    # to 8,900 in the amplitude pass over the 20 scans)
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True,
                          text=True, timeout=300, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    whole_short, reactance_pass = map(int, done.stdout.split())
    assert whole_short < 400
    assert reactance_pass < 1000
