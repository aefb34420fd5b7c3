"""Mode matrix: closed-form eigensystem, residuals, coincidences, projection."""

from __future__ import annotations

import numpy as np
import pytest

from pinstacks.errors import DegenerateFormula
from pinstacks.greens import DEFAULT_POLICY, SpectralPoint, _lattice_sums
from pinstacks.modes import (
    ModeMatrix,
    StackGeometry,
    _factor_from,
    _factor_offsets,
    assemble,
    coincidence_conditions,
    determinant,
    dispersion_grid,
    dispersion_residual,
    eigensystem,
    even_family_vector,
    lightline_matrix,
    locate_crossing,
    project,
    scan_even_family,
)

TWO_PI = 2.0 * np.pi


def _synthetic(m11: complex, m12: complex, m13: complex,
               m21: complex) -> ModeMatrix:
    entries = np.array(
        [[m11, m12, m13], [m21, m11, m21], [m13, m12, m11]], dtype=complex
    )
    return ModeMatrix(entries=entries, point=SpectralPoint(0.0, 1.0),
                      geometry=StackGeometry(eta=1.0))


def _random_matrix(rng: np.random.Generator) -> ModeMatrix:
    def z() -> complex:
        return complex(rng.standard_normal(), rng.standard_normal())

    return _synthetic(z(), z(), z(), z())


def _random_assembled(rng: np.random.Generator) -> ModeMatrix:
    while True:
        alpha0 = rng.uniform(-2.5, 2.5)
        beta = rng.uniform(0.5, 5.5)
        if min(abs(abs(alpha0 + TWO_PI * n) - beta) for n in range(-3, 4)) < 1e-3:
            continue
        geometry = StackGeometry(eta=float(rng.uniform(0.3, 2.5)),
                                 xi=float(rng.uniform(-0.5, 0.5)))
        return assemble(SpectralPoint(alpha0, beta), geometry)


def test_stack_geometry_validation():
    with pytest.raises(ValueError):
        StackGeometry(eta=0.0)


def test_factor_complex_is_the_assembled_factor():
    # the pole searches' factors use the mode matrix's entries bit for bit
    point = SpectralPoint(1.808735, 3.61747)
    geometry = StackGeometry(eta=1.0, xi=0.252)
    m = assemble(point, geometry)
    m11, m12, m13, m21 = (complex(v) for v in (m.m11, m.m12, m.m13, m.m21))

    def factor(kind):
        values, _ = _lattice_sums(point.alpha0, point.beta,
                                  *_factor_offsets(kind, geometry), DEFAULT_POLICY)
        return _factor_from(kind, values)

    assert factor("odd") == m11 - m13
    assert factor("even") == 2.0 * m12 * m21 - m11 * (m11 + m13)


def test_matrix_structure():
    m = _random_assembled(np.random.default_rng(3))
    e = m.entries
    assert e[1, 1] == e[0, 0] == e[2, 2]
    assert e[2, 1] == e[0, 1]
    assert e[1, 2] == e[1, 0]
    assert e[2, 0] == e[0, 2]


def test_normal_incidence_is_symmetric():
    m = assemble(SpectralPoint(0.0, 3.1), StackGeometry(eta=0.9, xi=0.23))
    assert abs(m.m12 - m.m21) <= 1e-14 * abs(m.m12)


def test_unshifted_is_symmetric_toeplitz():
    m = assemble(SpectralPoint(1.3, 3.1), StackGeometry(eta=0.9, xi=0.0))
    assert abs(m.m12 - m.m21) <= 1e-14 * abs(m.m12)


def test_shift_parity_at_normal_incidence():
    plus = dispersion_residual(
        assemble(SpectralPoint(0.0, 3.1), StackGeometry(eta=0.9, xi=0.23)))
    minus = dispersion_residual(
        assemble(SpectralPoint(0.0, 3.1), StackGeometry(eta=0.9, xi=-0.23)))
    assert plus.odd == pytest.approx(minus.odd, rel=1e-14)
    assert plus.even == pytest.approx(minus.even, rel=1e-14)


class TestEigensystem:
    def test_identity_scaled_matrix(self):
        # diagonal-dominant limit: all three eigenvalues equal the diagonal
        c = 0.7 - 0.2j
        es = eigensystem(_synthetic(c, 1e-290, 0.0, 1e-290))
        assert np.allclose(es.eigenvalues, c, rtol=1e-13, atol=0.0)

    def test_zero_m12_is_degenerate(self):
        with pytest.raises(DegenerateFormula):
            eigensystem(_synthetic(1.0, 0.0, 0.3, 0.0))

    def test_symmetric_case_square_root(self):
        m = _synthetic(0.4 + 0.1j, 0.2 - 0.3j, -0.1j, 0.2 - 0.3j)
        es = eigensystem(m)
        s = np.sqrt(m.m13**2 + 8.0 * m.m12**2 + 0j)
        assert es.lambda_plus - es.lambda_minus == pytest.approx(s, rel=1e-13)

    def test_eigen_identity_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = _random_matrix(rng)
            es = eigensystem(m)
            scale = np.linalg.norm(m.entries)
            for lam, v in [(es.lambda_1, es.v_odd),
                           (es.lambda_minus, es.v_e_minus),
                           (es.lambda_plus, es.v_e_plus)]:
                residual = np.linalg.norm(m.entries @ v - lam * v)
                assert residual <= 1e-10 * scale * np.linalg.norm(v)

    def test_matches_general_eigensolver(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m = _random_matrix(rng)
            ours = np.sort_complex(eigensystem(m).eigenvalues)
            numpy_eig = np.sort_complex(np.linalg.eigvals(m.entries))
            assert np.allclose(ours, numpy_eig, rtol=1e-10, atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = _random_matrix(rng)
            es = eigensystem(m)
            assert np.sum(es.eigenvalues) == pytest.approx(
                3.0 * m.m11, rel=1e-13)

    def test_determinant_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            m = _random_matrix(rng)
            assert determinant(m) == pytest.approx(
                np.linalg.det(m.entries), rel=1e-10)


class TestDispersionResidual:
    def test_odd_equals_first_eigenvalue(self):
        m = _random_assembled(np.random.default_rng(31))
        r = dispersion_residual(m)
        assert r.odd == abs(eigensystem(m).lambda_1)

    def test_even_equals_eigenvalue_product(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            m = _random_matrix(rng)
            r = dispersion_residual(m)
            es = eigensystem(m)
            assert r.even == pytest.approx(
                abs(es.lambda_minus) * abs(es.lambda_plus), rel=1e-10)

    def test_edit_point_residuals(self):
        # shifted triplet tuned for the 30-degree transparency point: both
        # factors vanish to the 1e-6 scale at the same spectral point
        m = assemble(SpectralPoint(1.808735, 3.61747),
                     StackGeometry(eta=1.0, xi=0.25200))
        r = dispersion_residual(m)
        assert r.odd <= 1e-6
        assert r.even <= 1e-6
        es = eigensystem(m)
        assert abs(es.lambda_1) <= 1e-6
        assert min(abs(es.lambda_minus), abs(es.lambda_plus)) <= 1e-4


class TestLightLineMatrix:
    def test_degenerate_limit(self):
        lam, vecs = lightline_matrix(1.0)
        assert np.allclose(np.sort_complex(lam), [0.0, 0.0, 3.0], atol=1e-14)
        normalized = vecs / np.linalg.norm(vecs, axis=0)
        expected = np.column_stack([
            np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0),
            np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0),
            np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
        ])
        assert np.allclose(normalized, expected, atol=1e-14)

    def test_identity_limit(self):
        lam, _ = lightline_matrix(0.0)
        assert np.allclose(lam, 1.0, atol=1e-15)

    def test_eigen_residual_random_phase(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            x = complex(rng.standard_normal(), rng.standard_normal())
            lam, vecs = lightline_matrix(x)
            matrix = np.array([[1.0, x, x * x],
                               [x, 1.0, x],
                               [x * x, x, 1.0]], dtype=complex)
            for k in range(3):
                residual = np.linalg.norm(matrix @ vecs[:, k] - lam[k] * vecs[:, k])
                assert residual <= 1e-12 * np.linalg.norm(matrix)


class TestCoincidence:
    def test_even_odd_synthetic(self):
        # M12 M21 = M11^2 with M13 = M11: eigenvalues (0, 0, 3 M11) and a
        # full eigenvector basis
        c = 0.3 + 0.4j
        m = _synthetic(c, c, c, c)
        es = eigensystem(m)
        assert np.allclose(np.sort_complex(es.eigenvalues),
                           np.sort_complex([0.0, 0.0, 3.0 * c]), atol=1e-15)
        report = coincidence_conditions(m)
        assert report.even_odd <= 1e-15
        assert report.defective_basis is not None
        assert np.linalg.matrix_rank(report.defective_basis) == 3

    def test_even_even_synthetic_is_defective(self):
        # M13 = -2 M11 and M21 = -M11^2 / (2 M12): the even eigenvalues both
        # vanish and only two independent eigenvectors remain
        c, b = 0.5 - 0.1j, 0.7 + 0.2j
        m = _synthetic(c, b, -2.0 * c, -c * c / (2.0 * b))
        es = eigensystem(m)
        assert np.allclose(np.sort_complex(es.eigenvalues),
                           np.sort_complex([0.0, 0.0, 3.0 * c]), atol=1e-15)
        report = coincidence_conditions(m)
        assert report.even_even_m13 <= 1e-15
        assert report.even_even_m21 <= 1e-15
        basis = np.column_stack([es.v_odd, es.v_e_minus, es.v_e_plus])
        assert np.linalg.matrix_rank(basis, tol=1e-8) == 2

    def test_edit_point_report(self):
        m = assemble(SpectralPoint(1.808735, 3.61747),
                     StackGeometry(eta=1.0, xi=0.25200))
        report = coincidence_conditions(m, tol=0.02)
        assert report.even_odd <= 1e-6
        assert report.defective_basis is not None
        assert np.linalg.matrix_rank(report.defective_basis) == 3


class TestProjection:
    def test_odd_projection_equals_odd_residual(self):
        m = _random_assembled(np.random.default_rng(43))
        v = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert abs(project(m, v)) == pytest.approx(
            dispersion_residual(m).odd, rel=1e-14)

    def test_projection_of_exact_eigenvector(self):
        # real symmetric example: v^T M v = lambda for a unit eigenvector
        m = _synthetic(2.0, 0.5, 0.3, 0.5)
        lam, vecs = np.linalg.eigh(m.entries.real)
        for k in range(3):
            assert project(m, vecs[:, k]) == pytest.approx(lam[k], rel=1e-12)

    def test_even_family_vectors(self):
        assert np.allclose(even_family_vector(0.0),
                           np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
        assert np.allclose(even_family_vector(2.0),
                           np.array([1.0, 2.0, 1.0]) / np.sqrt(6.0))
        for a in (-2.0, -0.7, 1.3):
            assert np.linalg.norm(even_family_vector(a)) == pytest.approx(1.0)

    def test_scan_matches_pointwise_projection(self):
        geometry = StackGeometry(eta=1.0, xi=0.0)
        matrices = [assemble(SpectralPoint(2.1, b), geometry)
                    for b in (3.45, 3.47, 3.49)]
        a_values = np.array([-1.0, 0.0, 2.0])
        surface = scan_even_family(matrices, a_values)
        assert surface.shape == (3, 3)
        expected = np.log10(abs(project(matrices[1], even_family_vector(0.0))))
        assert surface[1, 1] == pytest.approx(expected, rel=1e-12)

    def test_fully_symmetric_shape_resonates(self):
        # near the even resonance of the unshifted stack the projection dips
        # deepest for the (1, 2, 1) mode shape
        geometry = StackGeometry(eta=1.0, xi=0.0)
        betas = np.linspace(3.465, 3.481, 9)
        matrices = [assemble(SpectralPoint(2.1, float(b)), geometry)
                    for b in betas]
        a_values = np.linspace(-2.0, 2.0, 5)
        surface = scan_even_family(matrices, a_values)
        deepest = np.unravel_index(np.argmin(surface), surface.shape)
        assert a_values[deepest[0]] == 2.0


class TestDispersionGrid:
    def test_single_cell_equals_direct_call(self):
        geometry = StackGeometry(eta=1.0, xi=0.0)
        rows = dispersion_grid(np.array([1.3]), np.array([3.1]), geometry)
        assert len(rows) == 1
        direct = dispersion_residual(assemble(SpectralPoint(1.3, 3.1), geometry))
        assert rows[0]["log10_odd"] == direct.log10_odd
        assert rows[0]["log10_even"] == direct.log10_even
        assert rows[0]["status"] == "ok"

    def test_light_line_cell_is_recorded_not_raised(self):
        geometry = StackGeometry(eta=1.0, xi=0.0)
        rows = dispersion_grid(np.array([0.0]), np.array([TWO_PI, 3.0]),
                               geometry)
        by_beta = {r["beta"]: r for r in rows}
        assert by_beta[TWO_PI]["status"] == "LightLineProximity"
        assert np.isnan(by_beta[TWO_PI]["log10_odd"])
        assert by_beta[3.0]["status"] == "ok"

    def test_crossing_location(self):
        geometry = StackGeometry(eta=1.0, xi=0.0)
        alpha0 = np.linspace(1.6545, 1.6745, 21)
        beta = np.linspace(3.5870, 3.6070, 21)
        rows = dispersion_grid(alpha0, beta, geometry)
        ca, cb = locate_crossing(rows)
        assert ca == pytest.approx(1.66451, abs=1e-3)
        assert cb == pytest.approx(3.596951, abs=1e-3)
