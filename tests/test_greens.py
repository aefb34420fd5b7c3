"""Quasi-periodic Green's function: values, symmetries, convergence, guards."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from pinstacks.errors import LightLineProximity, NonFiniteValue
from pinstacks.greens import (
    DEFAULT_POLICY,
    N_FAR,
    SpectralPoint,
    TruncationPolicy,
    _interaction_matrices,
    _lattice_sums,
    greens,
    order_quantities,
    propagating_orders,
)
from pinstacks.scattering import PinStack, scan
from pinstacks.steering import default_bracket

TWO_PI = 2.0 * math.pi
greens_module = importlib.import_module("pinstacks.greens")


def _random_point(rng: np.random.Generator) -> SpectralPoint:
    """A spectral point with every order safely away from its light line."""
    while True:
        alpha0 = rng.uniform(-2.5, 2.5)
        beta = rng.uniform(0.5, 5.5)
        point = SpectralPoint(alpha0, beta)
        margins = [abs(abs(alpha0 + TWO_PI * n) - beta)
                   for n in range(-3, 4)]
        if min(margins) > 1e-3:
            return point


class TestOrderQuantities:
    def test_zero_order_propagating(self):
        q = order_quantities(SpectralPoint(0.0, 2.0), 0)
        assert q.alpha_n == 0.0
        assert q.chi_n == 2.0 + 0.0j
        assert q.tau_n == 2.0
        assert q.propagating

    def test_first_order_evanescent(self):
        q = order_quantities(SpectralPoint(0.0, 2.0), 1)
        assert q.alpha_n == pytest.approx(TWO_PI, abs=0.0)
        assert q.chi_n.real == 0.0
        assert q.chi_n.imag == pytest.approx(math.sqrt(4 * math.pi**2 - 4.0))
        assert q.tau_n == pytest.approx(math.sqrt(4 * math.pi**2 + 4.0))
        assert not q.propagating

    def test_an_order_on_its_light_line_does_not_propagate(self):
        # alpha_n^2 < beta^2, as propagating_orders: chi_n = 0 on the line
        point = SpectralPoint(0.0, TWO_PI)
        q = order_quantities(point, 1)
        assert q.chi_n == 0j and not q.propagating
        assert [n for n in range(-2, 3) if order_quantities(point, n).propagating] == [0]
        assert propagating_orders(point) == [0]

    def test_oblique_zero_order(self):
        q = order_quantities(SpectralPoint(1.79968, 3.599363), 0)
        oracle = math.sqrt(3.599363**2 - 1.79968**2)  # 3.1171406614666908
        assert q.chi_n.real == pytest.approx(oracle, rel=1e-12)
        assert q.chi_n.real == pytest.approx(3.11713, abs=2e-5)
        assert q.chi_n.imag == 0.0

    def test_wavenumber_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = _random_point(rng)
            n = int(rng.integers(-4, 5))
            q = order_quantities(p, n)
            assert q.alpha_n == pytest.approx(p.alpha0 + TWO_PI * n, rel=1e-15)
            assert q.chi_n**2 + q.alpha_n**2 == pytest.approx(
                p.beta**2, rel=1e-12)
            assert q.tau_n**2 - q.alpha_n**2 == pytest.approx(
                p.beta**2, rel=1e-12)
            # chi is positive real or positive imaginary, never mixed
            assert q.chi_n.real == 0.0 or q.chi_n.imag == 0.0
            assert q.chi_n.real >= 0.0 and q.chi_n.imag >= 0.0


def test_propagating_orders_enumeration():
    assert propagating_orders(SpectralPoint(0.0, 2.0)) == [0]
    assert propagating_orders(SpectralPoint(0.5, 7.0)) == [-1, 0, 1]
    # just below the first light line only order 0 survives
    assert propagating_orders(SpectralPoint(0.0, TWO_PI * 0.999)) == [0]


def test_spectral_point_validation():
    with pytest.raises(ValueError):
        SpectralPoint(0.0, -1.0)


def test_truncation_policy_validation():
    with pytest.raises(ValueError, match="n_self must be at least 20"):
        TruncationPolicy(n_self=10)
    with pytest.raises(ValueError):
        TruncationPolicy(lightline_tol=0.0)


def test_a_negative_window_override_is_refused():
    # it was raised to the kernel's minimum window as if it were 0
    with pytest.raises(ValueError, match="n_terms must not be negative, got -3"):
        greens(SpectralPoint(1.0, 3.0), 0.0, 0.0, n_terms=-3)
    with pytest.raises(ValueError, match="n_terms must not be negative"):
        DEFAULT_POLICY.window(1.0, 3.0, np.zeros(2), 0.0, np.array([5, -1]))
    # 0 and 3 are raised to the kernel's minimum alike
    assert DEFAULT_POLICY.window(1.0, 3.0, 0.0, 0.0, 0) == 10
    assert DEFAULT_POLICY.window(1.0, 3.0, 0.0, 0.0, 3) == 10


def test_finite_value_off_line():
    value = greens(SpectralPoint(0.0, 2.0), 0.0, 0.5)
    assert np.isfinite(value.real) and np.isfinite(value.imag)
    assert abs(value) > 0.0


def test_mirror_symmetry_in_y_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = _random_point(rng)
        x = float(rng.uniform(-1.0, 1.0))
        y = float(rng.uniform(0.05, 2.0))
        assert greens(p, x, y) == greens(p, x, -y)


def test_quasi_periodicity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = _random_point(rng)
        x = float(rng.uniform(-0.5, 0.5))
        y = float(rng.uniform(-1.0, 1.0))
        g0 = greens(p, x, y)
        g1 = greens(p, x + 1.0, y)        # one period on
        bloch = np.exp(1j * p.alpha0)
        assert abs(g1 - bloch * g0) < 1e-12 * abs(g0)


def test_on_line_truncation_agreement():
    # The pairwise-combined summand decays cubically; on the source line at
    # x = 0 every combined term has the same sign, so the tail scales as
    # N^-2 and the 1000- vs 4000-term values agree to ~1e-9 in absolute
    # terms (the value itself is ~6e-3).
    p = SpectralPoint(1.808735, 3.61747)
    g1 = greens(p, 0.0, 0.0, n_terms=1000)
    g4 = greens(p, 0.0, 0.0, n_terms=4000)
    assert abs(g1 - g4) <= 1e-9


def test_joint_convergence_is_cubic_on_the_line():
    # At generic x the combined terms oscillate and the truncation error
    # follows the cubic decay of the summand itself.
    p = SpectralPoint(1.808735, 3.61747)
    x = 0.37
    ref = greens(p, x, 0.0, n_terms=25600)
    ns = np.array([50, 100, 200, 400, 800, 1600])
    errs = np.array([abs(greens(p, x, 0.0, n_terms=int(n)) - ref) for n in ns])
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope <= -2.7


def test_biharmonic_pde_off_the_line():
    # (Lap^2 - beta^4) G = 0 away from the source row; nested 5-point
    # Laplacians approximate Lap^2 at step h.
    p = SpectralPoint(1.2, 2.7)
    h = 1e-3

    def g(x: float, y: float) -> complex:
        return greens(p, x, y, n_terms=60)

    def lap(f, x: float, y: float) -> complex:
        return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
                - 4.0 * f(x, y)) / (h * h)

    for x, y in [(0.13, 0.5), (0.4, 0.8)]:
        residual = lap(lambda a, b: lap(g, a, b), x, y) - p.beta**4 * g(x, y)
        assert abs(residual) < 1e-4


def test_light_line_guard():
    # order n = +-1 sits exactly on its light line at alpha0 = 0, beta = 2 pi
    with pytest.raises(LightLineProximity):
        greens(SpectralPoint(0.0, TWO_PI), 0.0, 0.0)
    # the guard applies off the source line as well
    with pytest.raises(LightLineProximity):
        greens(SpectralPoint(0.0, TWO_PI), 0.1, 0.7)


def test_kernel_guards_real_input_only():
    # the kernel applies the policy's guard itself; the pole searches'
    # complex points follow the factors across the light lines unguarded
    ys = np.array([0.0, 0.7])
    _, near = _lattice_sums(0.0, TWO_PI, 0.0, ys, DEFAULT_POLICY)
    assert near.tolist() == [True, True]
    values, near = _lattice_sums(0.0, complex(TWO_PI, -1e-3), 0.0, ys, DEFAULT_POLICY)
    assert near.tolist() == [False, False] and np.isfinite(values).all()


def test_a_non_finite_sum_fails_only_its_own_point(monkeypatch):
    # the kernel returns NaN at one beta, for the offsets off the source line
    bad_beta = 3.2
    kernel = greens_module._lattice_sums

    def poisoned(alpha0, beta, x, y, policy, n_terms=None):
        values, near = kernel(alpha0, beta, x, y, policy, n_terms)
        poison = (np.asarray(beta) == bad_beta) & (np.asarray(y) != 0.0)
        return np.where(poison, complex(math.nan, 0.0), values), near

    monkeypatch.setattr(greens_module, "_lattice_sums", poisoned)
    message = "Green's function accumulation not finite at (x=0.0, y=1.0)"
    betas = [3.0, 3.1, bad_beta, 3.3]
    pins = np.array(PinStack.pair(1.0).pins)
    _, errors = _interaction_matrices(np.full(4, 0.5), np.array(betas), pins, DEFAULT_POLICY)
    assert [type(error).__name__ for error in errors] == [
        "NoneType", "NoneType", "NonFiniteValue", "NoneType"]
    assert str(errors[2]) == message
    records = scan(PinStack.pair(1.0), betas, alpha0=0.5)
    assert [r.error for r in records] == [None, None, f"NonFiniteValue: {message}", None]
    with pytest.raises(NonFiniteValue, match=r"not finite at \(x=0\.0, y=1\.0\)"):
        greens(SpectralPoint(0.5, bad_beta), 0.0, 1.0)


def test_window_defaults_follow_evaluation_site():
    p = SpectralPoint(0.4, 3.0)
    on_line = greens(p, 0.2, 0.0)
    off_line = greens(p, 0.2, 0.6)
    assert on_line == greens(p, 0.2, 0.0, n_terms=DEFAULT_POLICY.n_self)
    assert off_line == greens(p, 0.2, 0.6, n_terms=N_FAR)


@pytest.mark.parametrize("y", [0.1, 0.05, -0.01])
def test_off_column_window_converges_near_the_line(y):
    # off x = 0 the orders die only as exp(-|alpha_n| |y|): the window grows
    # as |y| shrinks, until the line's n_self caps it
    point = SpectralPoint(1.2, 2.7)
    reference = greens(point, 0.3, y, n_terms=40000)
    assert abs(greens(point, 0.3, y) - reference) <= 1e-13 * abs(reference)
    assert DEFAULT_POLICY.window(1.2, 2.7, 0.3, y) > N_FAR


def test_off_column_window_tends_to_the_line_window():
    windows = DEFAULT_POLICY.window(1.2, 2.7, 0.3, np.array([1e-3, 1e-9, 0.0]))
    assert windows.tolist() == [DEFAULT_POLICY.n_self] * 3
    assert DEFAULT_POLICY.window(1.2, 2.7, 0.3, 0.69) == N_FAR


# Converged references for the closed-form tail at x = 0.

# M11 = G(0, 0) at (alpha0, beta) = (1.808735, 3.61747), d = 1, from a
# 30-digit mpmath sum with Richardson/Shanks tails.
M11_MPMATH = 1.4288536085667263e-4 + 6.098100289233065e-3j


def _plain_sum(alpha0: complex, beta: complex, y: float, n: int) -> complex:
    """The spectral sum at x = 0 over |n| <= N, with no tail (d = 1)."""
    alpha = alpha0 + TWO_PI * np.arange(-n, n + 1)
    w = beta * beta - alpha * alpha
    chi = np.where(np.abs(alpha.real) < beta.real,
                   np.sqrt(w + 0j), 1j * np.sqrt(-w + 0j))
    tau = np.sqrt(beta * beta + alpha * alpha + 0j)
    terms = (np.exp(1j * chi * abs(y)) / (2j * chi)
             + np.exp(-tau * abs(y)) / (2.0 * tau))
    return complex(-terms.sum() / (2.0 * beta * beta))


def _plain_self_term(alpha0: complex, beta: complex) -> complex:
    """G(0, 0) from plain sums at N = 32000 and 64000.

    The truncation error of the plain sum is c / N^2 + O(N^-3); one
    Richardson step removes the N^-2 part, leaving ~1e-16 relative.
    """
    coarse = _plain_sum(alpha0, beta, 0.0, 32000)
    fine = _plain_sum(alpha0, beta, 0.0, 64000)
    return (4.0 * fine - coarse) / 3.0


def _self_term(alpha0: complex, beta: complex) -> complex:
    values, _ = _lattice_sums(alpha0, beta, 0.0, 0.0, DEFAULT_POLICY)
    return complex(values)


def test_default_self_term_matches_mpmath():
    m11 = greens(SpectralPoint(1.808735, 3.61747), 0.0, 0.0)
    assert abs(m11 - M11_MPMATH) <= 1e-12 * abs(M11_MPMATH)


def test_default_self_term_window_is_short():
    # the closed-form tail replaces the long on-line window at x = 0
    window = DEFAULT_POLICY.window(1.808735, 3.61747, 0.0, 0.0)
    assert window == N_FAR


def test_complex_self_term_matches_plain_sum():
    # a leaky point off the real axis: the tail's Euler-Maclaurin sum takes
    # complex zeta arguments
    a0, beta = 2.55 + 1e-4j, 2.947 - 2e-4j
    ref = _plain_self_term(a0, beta)
    assert abs(_self_term(a0, beta) - ref) <= 1e-12 * abs(ref)


def test_self_term_for_large_beta_matches_plain_sum():
    # eight propagating orders: the window grows past N_FAR so that the
    # tail's expansion in beta / alpha_n holds
    a0, beta = 0.7, 25.0
    assert len(propagating_orders(SpectralPoint(a0, beta))) == 8
    n = DEFAULT_POLICY.window(a0, beta, 0.0, 0.0)
    assert TWO_PI * (n + 1) >= 4.0 * beta
    assert n > N_FAR
    ref = _plain_self_term(a0, beta)
    assert abs(_self_term(a0, beta) - ref) <= 1e-12 * abs(ref)


def test_self_term_column_is_continuous_in_y():
    p = SpectralPoint(1.808735, 3.61747)
    g0 = greens(p, 0.0, 0.0)
    assert abs(greens(p, 0.0, 1e-10) - g0) <= 1e-13 * abs(g0)
    for y in (1e-3, 0.05):
        ref = _plain_sum(p.alpha0, p.beta, y, 4000)
        assert abs(greens(p, 0.0, y) - ref) <= 1e-12 * abs(ref)
        assert greens(p, 0.0, -y) == greens(p, 0.0, y)


def test_light_line_guard_covers_orders_past_the_window():
    # order n = 25 sits on its light line, beyond N_FAR = 20
    beta = TWO_PI * 25
    with pytest.raises(LightLineProximity):
        greens(SpectralPoint(0.0, beta), 0.1, 0.7)
    with pytest.raises(LightLineProximity):
        greens(SpectralPoint(0.0, beta), 0.0, 0.0)


@pytest.mark.parametrize("alpha0, beta, d", [
    (0.0, 4.456, 1.0), (1.8, 3.6, 1.0), (2.1, 3.35, 1.0), (2.55, 2.95, 1.0),
    (-0.7, 1.3, 1.0), (0.4, 5.5, 1.0), (0.3, 2.0, 2.0), (1.0, 1.2, 0.5)])
def test_imaginary_self_term_is_the_zero_order_alone(alpha0, beta, d):
    # every term but the propagating zero order's is real at x = 0, so
    # Im G(0, 0) = 1 / (4 beta^2 chi_0) and R = 1 exactly where Re G(0, 0) = 0.
    # A grating of period d enters in units of its period: (alpha0 d, beta d)
    alpha0, beta = alpha0 * d, beta * d
    point = SpectralPoint(alpha0, beta)
    assert propagating_orders(point) == [0]
    expected = 1.0 / (4.0 * beta * beta * math.sqrt(beta * beta - alpha0 * alpha0))
    assert abs(greens(point, 0.0, 0.0).imag - expected) <= 2 * math.ulp(expected)


def test_real_self_term_changes_sign_once_on_the_mirror_grid():
    # on every default bracket Re G(0, 0) has exactly one root, seen on a
    # grid 8x finer than find_beta_g's default 31 points, so that grid
    # brackets it
    cases = ([(math.radians(deg), None) for deg in range(-89, 90)]
             + [(None, alpha0) for alpha0 in (-2.69, -2.1, -1.0, -0.3, 0.3, 1.0, 2.1, 2.69)])
    for theta, alpha0 in cases:
        betas = np.linspace(*default_bracket(theta, alpha0), 241)
        alpha0s = betas * math.sin(theta) if alpha0 is None else np.full_like(betas, alpha0)
        matrices, errors = _interaction_matrices(alpha0s, betas, [(0.0, 0.0)],
                                                 DEFAULT_POLICY)
        assert errors == [None] * len(betas)
        positive = matrices[:, 0, 0].real > 0
        assert np.count_nonzero(positive[1:] != positive[:-1]) == 1, (theta, alpha0)
