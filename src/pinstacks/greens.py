"""Quasi-periodic Green's function for flexural waves on a thin plate.

The displacement Green's function of the biharmonic operator
``Delta^2 - beta^4`` for a 1D-periodic row of sources with Bloch parameter
``alpha0``, all lengths in units of the period, is evaluated in its
plane-wave (spectral) form

    G(x, y) = -(1 / 2 beta^2) * [  (1 / 2 i) * sum_n exp(i alpha_n x + i chi_n |y|) / chi_n
                                 + (1 / 2)   * sum_n exp(i alpha_n x) exp(-tau_n |y|) / tau_n ],

with

    alpha_n = alpha0 + 2 pi n,
    chi_n   = sqrt(beta^2 - alpha_n^2)   (positive real when propagating,
                                          +i sqrt(alpha_n^2 - beta^2) otherwise),
    tau_n   = sqrt(beta^2 + alpha_n^2).

A period D maps onto the unit period exactly: beta -> beta D,
alpha0 -> alpha0 D, lengths -> lengths / D, and G at period D is D^2 times
G at the mapped point.

The first (Helmholtz-type) sum carries the propagating orders; the second
(modified) sum is evanescent everywhere.  Individually the two sums converge
only harmonically on the source line y = 0, but their order-by-order
combination decays like |alpha_n|^-3, so terms are always paired per order n
before accumulation.  The time convention is exp(-i omega t), which makes
exp(+i chi_n |y|) outgoing.

On the column x = 0 (every self-term and every stacked-pin entry) the
orders past the window are summed in closed form (Kummer's transformation;
Linton, SIAM Rev. 52, 2010): their paired terms expand in odd powers of
beta^2 / alpha_n^2, and the kept terms, damped by exp(-|alpha_n| |y|), sum to
Hurwitz-zeta-like series evaluated by Euler-Maclaurin for real or complex
(alpha0, beta).  The window N_FAR = 20 then gives G(0, y) to rounding at
every y, continuously as y -> 0.  Off the column, with no closed form, the
window reaches the order exp(-|alpha_n| |y|) damps below exp(-40): N_FAR
orders at |y| >~ 0.3, up to the long window policy.n_self on the source line.

One array kernel, _lattice_sums, evaluates the sum for a vector of
(alpha0, beta) points against a vector of offsets (x, y), real or complex,
and returns the (points, offsets) values with a light-line mask.  It sizes
every window itself from its TruncationPolicy (policy.window, the one
window rule) and guards every real input with policy.lightline_tol, so no
caller computes a window or can pass one that breaks the rule.  Each
point's order quantities (alpha_n, the chi_n branch, tau_n, the light-line
mask) are computed once per window and shared by all its offsets, which
add only their exponentials (none at the pin (0, 0), where both are 1).
Every term, at real and complex points alike, divides its exponentials by
tau_n and i chi_n.  At real points an offset (-x, |y|) beside (x, |y|), as
the shifted triplet's G(-xi, eta) beside G(xi, eta), takes no exponentials
of its own at the evanescent orders: there each of its arguments is the
exact conjugate of the other's, C99 (Annex G.6.3.1) makes
exp(conj z) = conj(exp z), and the divisions keep the symmetry, so each
term is the other's conjugate (_mirror_terms; the propagating orders and
any term with a part that underflows take the general formula).  Such a
pair is summed lead first: the lead's terms are reduced, turned into the
mirror's in place and reduced again, so the pair takes one column of a
pass.  Complex points, whose arguments are not conjugates, take the
general formula at every offset.  Every pass holds at most _CHUNK terms
per temporary.  greens, and flat columns of pairs such as
the steering searches join, are the one-offset case; _interaction_matrices
builds every pin-interaction matrix of the package (scattering systems and
the triplet mode matrix), one stack at a whole vector of points, from one
kernel call.  A value depends only on its own (alpha0, beta, x, y, window):
the pin and the mirror give the general formula's term values (only the
sign of a zero term may differ) and its sums to the bit, and every complex
product keeps its operand order (numpy may turn ``a * temporary`` into an
in-place product with swapped operands on large arrays, which rounds
differently), so a point's value is the same whatever its batch-mates,
batch size, layout or pass.

All functions here are pure and reentrant: they keep no state besides a
read-only cache of order offsets and the read-only tail table, and every
batch works on its own arrays, so concurrent calls from caller code are safe.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LightLineProximity, NonFiniteValue

TWO_PI = 2.0 * np.pi
# Lattice-sum terms per kernel pass: points x orders for the order
# quantities, points x columns x orders for the terms, a mirrored pair
# counting as one column.  Its temporaries stay under 64 KiB (62.5 KiB
# complex): glibc's free() of a larger block trims the heap top back to the
# system, and the next pass page-faults it in again.
_CHUNK = 4000
# The widest window N the kernel sums, 2 N + 1 = 2,097,153 orders (32 MiB
# per complex row of a pass): policy.n_self, n_terms and the kernel's
# minimum all stay within it, so no window asks for an order array that
# cannot be allocated.
_MAX_EXTENT = 2**20
# The window at x = 0 (plus the closed-form tail) and the least one off it.
# The kernel's minimum and the damping rule converge without it; it is kept
# as a floor that keeps a small call's entries in one window group (one pass
# of order quantities): without it the edit60 benchmark's solve time rose
# 7.4%, and 11.7% with only the floor off x = 0 dropped.
N_FAR = 20


@dataclass(frozen=True)
class SpectralPoint:
    """A (Bloch parameter, spectral parameter) pair, in units of the period.

    beta is the flexural wave parameter, beta^2 = omega sqrt(rho h / D);
    alpha0 is the Bloch wavenumber along the grating.
    """

    alpha0: float
    beta: float

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class OrderQuantities:
    """Per-order wavenumbers of the spectral expansion."""

    n: int
    alpha_n: float
    chi_n: complex
    tau_n: float

    @property
    def propagating(self) -> bool:
        # alpha_n^2 < beta^2 (as propagating_orders): chi_n = 0 is not real > 0
        return self.chi_n.real > 0.0


@dataclass(frozen=True)
class TruncationPolicy:
    """Symmetric truncation window n in [-N, N] plus the light-line guard.

    The window on the column x = 0 at any y is the constant N_FAR, where
    the orders past it enter through a closed-form Kummer tail; off it,
    where orders die as exp(-|alpha_n| |y|), the window grows from N_FAR as
    |y| shrinks up to n_self: the window on the source line at x != 0
    (y = 0), where no closed form exists and the pairwise-combined terms
    decay cubically.  No window falls below the kernel's minimum (see
    window), and n_self is at least N_FAR and at most 2^20, the widest
    window the kernel sums.  Evaluation refuses any point where a retained
    order satisfies |chi_n| <= lightline_tol * beta.
    """

    n_self: int = 1000
    lightline_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.n_self < N_FAR:
            raise ValueError(f"n_self must be at least {N_FAR}, got {self.n_self}")
        if self.n_self > _MAX_EXTENT:
            raise ValueError(f"n_self must be at most 2^20, got {self.n_self}")
        if not self.lightline_tol > 0.0:
            raise ValueError("lightline_tol must be positive")

    def window(self, alpha0, beta, x, y, n_terms=None):
        """The window N the kernel sums at (x, y) for this (alpha0, beta).

        n_terms if given; else N_FAR on the column x = 0, and off it
        N >= (40 / |y| + |alpha0|) / 2 pi, past which exp(-|alpha_n| |y|)
        < exp(-40), floored at N_FAR and capped at n_self (its y -> 0
        limit, the source line); raised to the smallest window past which
        every order is evanescent with |alpha_n| >= 4 |beta| (at x = 0, where
        the closed-form tail needs it, 16 |beta| and Hurwitz arguments of
        at least 10).  Scalars give an int; arrays broadcast together give
        an integer array.  ValueError for an n_terms past 2^20, the widest
        window the kernel sums, or below 0, and as _min_window raises.  The
        windows are integers held in floats until the end, x = 0 is tested
        once and the damping rule is skipped where every offset is on the
        column.
        """
        on_column = np.equal(x, 0.0)
        least = _min_window(alpha0, beta, on_column)   # raises on NaN input
        if n_terms is None:
            n_terms = N_FAR
            if not on_column.all():
                # + 1e-300 leaves any |y| > 1e-284 as it is; y = 0 gets the cap, not 40 / 0
                damped = np.ceil((_DAMPING_CUTOFF / (np.abs(y) + 1e-300) + np.abs(alpha0))
                                 * (1.0 / TWO_PI))
                n_terms = np.where(on_column, N_FAR,
                                   np.minimum(np.maximum(damped, N_FAR), self.n_self))
        elif not (np.asarray(n_terms) <= _MAX_EXTENT).all():
            raise ValueError(f"n_terms must be at most 2^20, got {n_terms}")
        elif not (np.asarray(n_terms) >= 0).all():
            raise ValueError(f"n_terms must not be negative, got {n_terms}")
        window = np.maximum(n_terms, least)
        return int(window) if window.ndim == 0 else window.astype(int)


DEFAULT_POLICY = TruncationPolicy()


# Kummer's transformation at x = 0.  Past the window every order is
# evanescent; with a = +-alpha_n (Re a > 0) its paired term
#     (1/2) [exp(-tau |y|) / tau - exp(-kappa |y|) / kappa],
#     tau = sqrt(a^2 + beta^2),  kappa = sqrt(a^2 - beta^2),
# is odd in beta^2, with k-th Taylor term
#     -exp(-a |y|) theta_k(a |y|) beta^(2k) / (2^k k! a^(2k+1)),
# theta_k(z) = sum_j (k+j)! / (2^j j! (k-j)!) z^(k-j) the reverse Bessel
# polynomial (theta_k(0) = (2k-1)!!).  The terms k = 1, 3 are kept; each
# (k, j) piece is (p, power of |y|, power of beta^2 past beta^2, coef) for
# G's share coef |y|^(k-j) beta^(2k-2) / (2 a^p), p = k + j + 1.
_KUMMER_TERMS = tuple(
    (k + j + 1, k - j, k - 1,
     math.factorial(k + j) / (2**j * math.factorial(j) * math.factorial(k - j))
     / (2**k * math.factorial(k)))
    for k in (1, 3) for j in range(k + 1)
)
# Euler-Maclaurin weights B_2j / (2j)!, j = 1..5
_EM_WEIGHTS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
               1.0 / 47900160.0)
# sum_{m>=0} f(q + m) = int_q^inf f + sum_i _EM_FUNCTIONAL[i] f^(i)(q)
_EM_FUNCTIONAL = (0.5,) + sum(((-w, 0.0) for w in _EM_WEIGHTS), ())[:-1]
_R_POWERS = np.arange(17)     # powers of r = 1/q in the tail polynomial
_C_POWERS = np.arange(13)     # powers of c = 2 pi |y| in its coefficients
_SIDES = np.array([1.0, -1.0])
_EULER_GAMMA = 0.5772156649015329


def _tail_polynomial() -> np.ndarray:
    """The Kummer tail of one side as a polynomial in r = 1/q and c, per k.

    With w_p = coef |y|^(k-j) (1 / 2 pi)^p / 2 the tail of one side is
    sum_{m>=0} f(q + m), f(u) = exp(-c u) g(u), g(u) = sum_p w_p u^-p.
    Since p + (k - j) = 2k + 1, w_p = coef c^(k-j) scale_k with
    scale_k = (1 / 2 pi)^(2k+1) / 2.  By Euler-Maclaurin the sum is the
    integral sum_p w_p q^(1-p) E_p(c q), written through E_1 and exp(-c q)
    (DLMF 8.19.7), plus the corrections sum_i _EM_FUNCTIONAL[i] f^(i)(q),
    expanded by Leibniz.  Altogether, per k,
        E_1(c q) A_k(c) + exp(-c q) sum_m B_km(c) r^m,
    and the table holds the coefficient of c^e in A_k (m = 0) and in B_km
    as [k, m, e].  At c = 0 only e = 0 survives: A_k = 0 and B_km(0) r^m
    sums to Hurwitz zetas, the tail on the line y = 0.
    """
    table = np.zeros((2, len(_R_POWERS), len(_C_POWERS)))
    for p, y_pow, b_pow, coef in _KUMMER_TERMS:
        k = b_pow // 2                       # 0 for k = 1, 1 for k = 3
        fact = math.factorial(p - 1)
        table[k, 0, y_pow + p - 1] += coef * (-1) ** (p - 1) / fact
        for l in range(p - 1):
            table[k, p - 1 - l, y_pow + l] += coef * (-1) ** l * math.factorial(p - l - 2) / fact
        for i in range(len(_EM_FUNCTIONAL)):
            deriv = (-1) ** i * math.prod(range(p, p + i))   # g^(i): (-1)^i (p)_i q^-(p+i)
            for t in range(len(_EM_FUNCTIONAL) - i):
                table[k, p + i, y_pow + t] += (coef * deriv * _EM_FUNCTIONAL[i + t]
                                               * math.comb(i + t, i) * (-1) ** t)
    return table


# _tail_polynomial times scale_k, read-only
_TAIL = _tail_polynomial() * ((1.0 / TWO_PI) ** np.array([3, 7]) / 2.0)[:, None, None]
_TAIL.flags.writeable = False


_GUARD_REACH = 4.0       # least |alpha_n| / |beta| past any window
_TAIL_REACH = 16.0       # least |alpha_n| / |beta| past the window at x = 0
_EM_START = 10.0         # least Hurwitz argument q at x = 0
_DAMPING_CUTOFF = 40.0   # exp(-40) is below the rounding of any G


def _window_extent(abs_alpha0, abs_beta, on_column):
    """|alpha_n| / 2 pi of the first order the kernel may leave out (float).

    From |alpha0|, |beta| and whether the offset is on the column x = 0.
    """
    reach = np.where(on_column, np.maximum(abs_beta * _TAIL_REACH, TWO_PI * _EM_START),
                     abs_beta * _GUARD_REACH)
    return (reach + abs_alpha0) / TWO_PI


def _min_window(alpha0, beta, on_column):
    """Smallest window N the kernel sums, as integral floats: the rule under every window.

    Past it every order is evanescent with |alpha_n| >= 4 |beta|, so the
    light-line guard sees every order near its light line.  At x = 0 the
    Kummer tail needs more: |alpha_n| >= 16 |beta|, where the first omitted
    term, (beta / alpha_n)^8 below the kept ones, is at rounding level
    (1e-14 relative at beta = 25 with eight propagating orders), and zeta
    arguments q >= 10, where five Euler-Maclaurin corrections are exact to
    rounding.  Takes alpha0, beta and whether x = 0, scalars or arrays
    broadcast together.  Input that gives no window raises, naming the
    first point that gives none: OverflowError for infinity (as int()
    does), ValueError for NaN and for a finite window past 2^20 orders,
    the widest the kernel sums.
    """
    extent = _window_extent(np.abs(alpha0), np.abs(beta), on_column)
    fine = extent < _MAX_EXTENT                     # NaN compares False
    if not fine.all():
        first = np.unravel_index(np.argmin(fine), np.shape(fine))
        alpha0, beta = (np.broadcast_to(a, np.shape(fine))[first] for a in (alpha0, beta))
        wide = ": wider than 2^20 orders" if np.isfinite(extent).all() else ""
        raise (OverflowError if np.isinf(extent).any() else ValueError)(
            f"no window at alpha0={alpha0}, beta={beta}{wide}")
    return np.maximum(np.ceil(extent) - 1.0, 1.0)


def _point_errors(alpha0, beta) -> list[Exception | None]:
    """What a sum at each real (alpha0, beta) raises first.

    SpectralPoint's ValueError, or the window rule's error on input that
    gives no window (see _min_window); None for a point the kernel
    can evaluate.  The builder and the batched callers check their points
    with it, so the kernel only ever sees points it can size.
    """
    alpha0 = np.asarray(alpha0, dtype=float)
    beta = np.asarray(beta, dtype=float)
    fine = (beta > 0.0) & (_window_extent(np.abs(alpha0), np.abs(beta), True) < _MAX_EXTENT)
    errors: list[Exception | None] = [None] * len(beta)
    for i in np.nonzero(~fine)[0].tolist():
        try:
            SpectralPoint(alpha0[i], beta[i])
            _min_window(alpha0[i], beta[i], True)
        except (ValueError, OverflowError) as exc:
            errors[i] = exc
    return errors


def _passing(errors: list) -> np.ndarray:
    """The indices of errors' None entries, ascending.

    Where every entry is None (a clean batch) no entry is visited in Python.
    """
    if errors.count(None) == len(errors):
        return np.arange(len(errors))
    return np.flatnonzero([e is None for e in errors])


def _exp1(z: np.ndarray) -> np.ndarray:
    """The exponential integral E_1(z) of every element, real or complex, Re z > 0.

    The power series (Abramowitz & Stegun 5.1.11) for |z| <= 1; beyond, the
    continued fraction 5.1.22 in its even form
    E_1(z) = exp(-z) / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))), evaluated
    by the modified Lentz method until each element's factor is 1 to two
    ulp (about 90 steps near |z| = 1).  Within 2e-14 relative of mpmath
    for Re z in (1e-6, 45] and |Im z| <= 0.05, the range z = c q of
    _kummer_tail.
    """
    out = np.empty_like(z)
    near = np.abs(z) <= 1.0
    w = z[near]
    term = total = -w
    for k in range(2, 20):          # |z|^k / (k k!) < 1e-18 past k = 19
        term = term * (-w) / k
        total = total + term / k
    out[near] = -_EULER_GAMMA - np.log(w) - total
    w = z[~near]
    b = w + 1.0
    c = np.full_like(w, 1e300)      # Lentz's 1 / tiny
    d = 1.0 / b
    h = d
    live = np.ones(w.shape, dtype=bool)
    for i in range(1, 200):
        b = b + 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        step = c * d
        h = np.where(live, h * step, h)
        live &= np.abs(step - 1.0) > 4.5e-16
        if not live.any():
            break
    out[~near] = h * np.exp(-w)
    return out


def _kummer_tail(alpha0: np.ndarray, b2: np.ndarray,
                 ay: np.ndarray, n_terms: int) -> np.ndarray:
    """G's share of every order |n| > n_terms at x = 0, in closed form.

    Order +-(n_terms + 1 + m) has a = 2 pi (q +- m) with
    q = n_terms + 1 +- alpha0 / (2 pi), and exp(-a |y|) = exp(-c (q + m))
    with c = 2 pi |y|; the sums over m are the polynomial of
    _tail_polynomial, analytic in (alpha0, beta) (b2 = beta^2; _exp1
    takes complex arguments), so the pole search's complex points take the
    same path.  Only points with c min(Re q) <= 40 come here; past that the
    tail is exactly 0 (see _offset_sums).

    On the line (c = 0) only the c^0 coefficients survive and A_k = 0, so
    a block without damped points skips the c powers, E_1 and exp(-c q)
    (2x cheaper for one point, 7x for a thousand); a line point in a block
    with damped ones gets the same value exactly (its extra terms are exact
    zeros and factors of one).
    """
    c = ay * TWO_PI
    q = (n_terms + 1) + (alpha0 * (1.0 / TWO_PI))[:, None] * _SIDES   # both sides
    damped = c.any()
    # the k = 1 and k = 3 (times beta^4) coefficients of r^m, summed over c^e
    by_k = (np.add.reduce(c[:, None, None, None] ** _C_POWERS * _TAIL, axis=3)
            if damped else _TAIL[..., 0])
    coef = by_k[..., 0, :] + np.multiply(np.multiply(b2, b2)[:, None], by_k[..., 1, :])
    tail = np.add.reduce(np.multiply((1.0 / q)[:, :, None] ** _R_POWERS[1:],
                                     coef[:, None, 1:]), axis=2)
    if not damped:
        return np.add.reduce(tail, axis=1)
    z = c[:, None] * q
    # A_k(0) = 0 on the line, where E_1(0) is infinite
    tail = np.multiply(_exp1(z + (z == 0.0)), coef[:, None, 0]) + np.multiply(np.exp(-z), tail)
    return np.add.reduce(tail, axis=1)


@functools.lru_cache(maxsize=32)
def _order_offsets(n_terms: int) -> np.ndarray:
    """alpha_n - alpha0 = 2 pi n for n in [-n_terms, n_terms], read-only."""
    offsets = TWO_PI * np.arange(-n_terms, n_terms + 1)
    offsets.flags.writeable = False
    return offsets


class _Orders(NamedTuple):
    """Points' order quantities in one window: (points, orders), then per point."""

    alpha: np.ndarray       # alpha_n
    ichi: np.ndarray        # i chi_n on either branch
    tau: np.ndarray         # tau_n
    b2: np.ndarray          # beta^2
    scale: np.ndarray       # -4 beta^2
    near: np.ndarray        # the light-line mask (all False unguarded)
    q_min: np.ndarray       # the least Hurwitz argument of the Kummer tail


def _orders(alpha0: np.ndarray, beta: np.ndarray, n_terms: int,
            lightline_tol: float | None) -> _Orders:
    """Each point's order quantities in the window n_terms, guarded by lightline_tol."""
    alpha = alpha0[:, None] + _order_offsets(n_terms)
    b2 = beta * beta
    a2 = alpha * alpha
    w = b2[:, None] - a2
    propagating = np.abs(alpha.real) < beta.real[:, None]
    root = np.sqrt(np.where(propagating, w, -w))
    ichi = root * np.where(propagating, 1j, -1.0)      # i chi_n on either branch
    tau = np.sqrt(b2[:, None] + a2)
    if lightline_tol is None:
        near = np.zeros(len(beta), dtype=bool)
    else:
        # |chi_n|^2 = |beta^2 - alpha_n^2| on either branch
        near = np.minimum.reduce(np.abs(w), axis=1) <= (lightline_tol * beta.real) ** 2
    q_min = (n_terms + 1) - np.abs((alpha0 * (1.0 / TWO_PI)).real)
    return _Orders(alpha, ichi, tau, b2, -4.0 * b2, near, q_min)


# kinds of offset column: all at the pin (0, 0), any other, and pairs of
# other columns mirrored in x (real points only; see _mirror_pairs)
_PIN, _OFF, _MIRROR = range(3)
# offset columns per column of terms, by kind: a mirrored pair takes its
# lead's one (_offset_sums)
_COLUMNS_PER_TERMS = (1, 1, 2)


def _terms(phase, ay: np.ndarray, orders: _Orders, span: slice = slice(None)) -> np.ndarray:
    """The general formula's terms at offset columns against orders: (B, C, W).

    exp(phase - tau_n |y|) / tau_n + exp(phase + i chi_n |y|) / (i chi_n), with
    phase i alpha_n x as (B, C, W); ay is |y|, (B, C), against the orders of
    span.  One formula at real and complex points alike.
    """
    tau, ichi = orders.tau[:, None, span], orders.ichi[:, None, span]
    decay = np.multiply(ay[..., None], tau)
    wave = np.multiply(ay[..., None], ichi)
    return np.add(np.exp(phase - decay) / tau, np.exp(phase + wave) / ichi)


def _phase(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """i alpha_n x at offset columns x (B, C) against orders alpha (B, W): (B, C, W)."""
    return np.multiply(1j * x[..., None], alpha[:, None])


def _mirror_terms(terms: np.ndarray, x: np.ndarray, ay: np.ndarray,
                  orders: _Orders) -> np.ndarray:
    """The leads' terms (B, h, W) made their mirrors', in place; x and ay are the mirrors' (B, h).

    Real points only.  Where the order is evanescent (i chi_n real and
    negative) and the phase alpha_n x is not zero, each exponential's
    argument at a mirror is the exact conjugate of its lead's (a zero real
    part may differ in sign, and exp(-0) = exp(0) = 1), C99 (Annex G.6.3.1)
    makes exp(conj z) = conj(exp z), and the divisions by tau_n and
    i chi_n, whose imaginary parts are zeros, are symmetric in the sign of
    the dividend's imaginary part (numpy's complex division by such a
    divisor scales both parts by its reciprocal): the term is the lead's
    conjugate, to the bit.
    Only a part that underflows to zero may take the other zero sign, so the
    conjugate is kept where both parts of the lead's term are nonzero (a
    zero phase leaves a zero imaginary part) and the order is evanescent;
    every other order, the propagating ones and those on a light line among
    them, takes the general formula.
    """
    # a product that underflows leaves the order to the general formula too
    conjugate = (terms.real * terms.imag != 0.0) & (orders.ichi.real < 0.0)[:, None]
    np.conjugate(terms, out=terms)
    at = np.flatnonzero(~conjugate.all(axis=(0, 1)))
    if len(at):         # the orders from the first to the last that need it
        span = slice(at[0], at[-1] + 1)
        np.copyto(terms[..., span], _terms(_phase(x, orders.alpha[:, span]), ay, orders, span),
                  where=~conjugate[..., span])
    return terms


def _offset_sums(kind: int, alpha0: np.ndarray, orders: _Orders,
                 x: np.ndarray, y: np.ndarray, n_terms: int) -> np.ndarray:
    """The sums at points of shape (B,) against offset columns of one kind, (B, C).

    orders are the points' _orders in the window n_terms.  One formula,
    exp(i alpha_n x - tau_n |y|) / tau_n + exp(i alpha_n x + i chi_n |y|) / (i chi_n)
    per order, combined before accumulating (joint cubic decay), plus the
    closed-form tail at x = 0, exactly 0 where exp(-40) damps the first
    omitted order on both sides (c min(Re q) > 40 in _kummer_tail).  At the
    pin both exponentials are left out (exactly 1 there).  _MIRROR columns
    come in pairs, a lead and then its mirror: the leads' terms are
    reduced, made their mirrors' in place (_mirror_terms) and reduced again,
    so one set of exponentials serves both.  Every kind gives the general
    formula's term values and, since the (points, columns, orders) terms are
    reduced over the orders as the general formula's are, its sums to the
    bit.  A column at the pin is (B, 1): every pin column of a point has its
    one value.
    """
    alpha, ichi, tau, b2, scale, _, q_min = orders
    if kind == _PIN:
        value = np.add.reduce(np.divide(1.0, tau) + np.divide(1.0, ichi), axis=1) / scale
        return (value + _kummer_tail(alpha0, b2, np.abs(y[:, 0]), n_terms))[:, None]
    ay = np.abs(y)
    if kind == _OFF:
        sums = np.add.reduce(_terms(_phase(x, alpha), ay, orders), axis=2)
    else:
        sums = np.empty(x.shape, dtype=complex)
        terms = _terms(_phase(x[:, ::2], alpha), ay[:, ::2], orders)
        sums[:, ::2] = np.add.reduce(terms, axis=2)
        sums[:, 1::2] = np.add.reduce(_mirror_terms(terms, x[:, 1::2], ay[:, 1::2], orders),
                                      axis=2)
    value = sums / scale[:, None]
    rows, cols = np.nonzero((x == 0.0) & (ay * TWO_PI * q_min[:, None] <= _DAMPING_CUTOFF))
    if len(rows):
        value[rows, cols] += _kummer_tail(alpha0[rows], b2[rows], ay[rows, cols], n_terms)
    return value


def _mirror_pairs(by_kind: dict[int, list[int]], x: np.ndarray, y: np.ndarray) -> None:
    """Move the _OFF columns that pair with a mirror (-x, the same |y|) to _MIRROR.

    x and y are the row group's (rows, columns); pairs are found from the
    first row and checked on every row.  _MIRROR lists each pair as its
    lead (the first in column order) and then its mirror.
    """
    ay = np.abs(y)
    first = list(zip(x[0].tolist(), ay[0].tolist()))
    unpaired: dict[tuple[float, float], int] = {}
    pairs: list[int] = []
    for col in by_kind[_OFF]:
        lead = unpaired.pop((-first[col][0], first[col][1]), None)
        if lead is None:
            unpaired[first[col]] = col
        else:
            pairs += [lead, col]
    leads, mirrors = pairs[::2], pairs[1::2]
    held = ((x[:, leads] == -x[:, mirrors]) & (ay[:, leads] == ay[:, mirrors])).all(axis=0)
    pairs = np.reshape(pairs, (-1, 2))[held].ravel().tolist()
    if pairs:
        by_kind[_OFF] = [col for col in by_kind[_OFF] if col not in pairs]
        by_kind[_MIRROR] = pairs


def _columns(cols: list[int]) -> slice | list[int]:
    """The columns cols as a slice when they are an ascending run, else as they are."""
    return slice(cols[0], cols[-1] + 1) if cols == list(range(cols[0], cols[-1] + 1)) else cols


def _row_groups(keys: np.ndarray) -> tuple[np.ndarray | None, list[tuple[int, int, list]]]:
    """The rows of keys grouped by their content, as runs of rows.

    Returns an order of the rows that makes each group a run (None when the
    rows are already in one) and each run's (start, stop, row content).
    """
    first = keys[:1]
    if (keys == first).all():         # no rows, or one group
        return None, [(0, len(keys), first[0].tolist())] if len(keys) else []
    order = np.lexsort(keys.T)
    keys = keys[order]
    starts = (np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1).tolist()
    return order, [(lo, hi, keys[lo].tolist())
                   for lo, hi in zip([0] + starts, starts + [len(keys)])]


def _lattice_sums(alpha0, beta, x, y, policy: TruncationPolicy,
                  n_terms=None) -> tuple[np.ndarray, np.ndarray]:
    """The spectral sum at every (point, offset) pair: the one kernel.

    alpha0 and beta (real or complex), the offsets x and y (real) and
    n_terms broadcast together: points of shape (B, 1) against offsets of
    shape (P,) give the (B, P) grid.  Each pair's window is
    policy.window(alpha0, beta, x, y, n_terms), which never falls below
    the kernel's minimum (the closed-form tail and the light-line guard rely
    on it).  Returns the values and a light-line mask of that shape: on real
    input True where a retained order has |chi_n| <= policy.lightline_tol *
    beta; complex input is not guarded (all False).

    Each order keeps the analytic continuation of its real-axis branch:
    chi_n = sqrt(beta^2 - alpha_n^2) for orders propagating on the real axis
    and i sqrt(alpha_n^2 - beta^2) for evanescent ones.  Both forms are
    analytic across the axis (their principal-branch cuts sit on the light
    lines), which lets resonance searches follow a dispersion factor onto
    the leaky-mode sheet at Im(beta) < 0.  On real input this reproduces the
    physical branch exactly.  At x = 0 the orders past the window are added
    in closed form by _kummer_tail, so the value is converged at any y.

    Points the same along the last axis (alpha0 and beta of shape (..., 1),
    or scalars) are rows whose offsets are the columns along it; otherwise
    each pair is a row with one column (flat columns, greens and the
    steering searches' joined requests).  An input that already has its
    layout's shape and dtype, as the flat columns of a lockstep round do, is
    read in place (never written), not copied; the others are broadcast
    into new arrays.  Rows with the same windows are summed together: each
    row's order quantities (_orders) once per window, then only what the
    offsets change, per kind of column (_offset_sums), in passes whose
    every (points, orders) and (points, columns, orders) temporary holds at
    most _CHUNK terms.  At real points the columns off the pin that come as
    x-mirrored pairs in a row group (_mirror_pairs) share one set of
    exponentials: each pair is summed lead first in one block, and counts
    as one column of a pass.
    """
    alpha0, beta, x, y = inputs = (np.asarray(alpha0), np.asarray(beta), np.asarray(x),
                                   np.asarray(y))
    shape = _broadcast_shape({a.shape for a in inputs} | {np.shape(n_terms)})
    dtype = np.dtype(complex) if "c" in (alpha0.dtype.kind, beta.dtype.kind) else np.dtype(float)
    grid = bool(shape) and alpha0.shape[-1:] in ((), (1,)) and beta.shape[-1:] in ((), (1,))
    cols = shape[-1] if grid else 1
    rows = math.prod(shape[:-1] if grid else shape)
    points = shape[:-1] + (1,) if grid else shape
    alpha0, beta = (_laid_out(a, points, (rows,), dtype) for a in (alpha0, beta))
    x, y = (_laid_out(a, shape, (rows, cols), np.dtype(float)) for a in (x, y))
    if n_terms is not None and np.ndim(n_terms) != 0:
        n_terms = _laid_out(np.asarray(n_terms), shape, (rows, cols), np.dtype(int))
    windows = policy.window(alpha0[:, None], beta[:, None], x, y, n_terms)
    values, near = _summed_rows(alpha0, beta, x, y, windows,
                                None if dtype.kind == "c" else policy.lightline_tol)
    return values.reshape(shape), near.reshape(shape)


@np.errstate(all="ignore")   # a refused point may divide by chi_n = 0
def _summed_rows(alpha0, beta, x, y, windows, lightline_tol):
    """_lattice_sums' values and mask on its layout: points (rows,), offsets and windows (rows, cols)."""
    order, groups = _row_groups(windows)
    if order is not None:          # the groups' rows made runs
        alpha0, beta, x, y = alpha0[order], beta[order], x[order], y[order]
    at_pin = (x == 0.0) & (y == 0.0)
    values = np.empty(x.shape, dtype=complex)
    near = np.empty(x.shape, dtype=bool)
    for lo, hi, keys in groups:
        by_window: dict[int, dict[int, list[int]]] = {}
        for col, (n_terms, pin) in enumerate(zip(keys, at_pin[lo:hi].all(axis=0).tolist())):
            by_window.setdefault(n_terms, {}).setdefault(_PIN if pin else _OFF, []).append(col)
        for n_terms, by_kind in by_window.items():
            width = 2 * n_terms + 1
            col_step = max(1, _CHUNK // width)
            if lightline_tol is not None and len(by_kind.get(_OFF, ())) > 1:
                _mirror_pairs(by_kind, x[lo:hi], y[lo:hi])
            widest = max(len(cols) // _COLUMNS_PER_TERMS[kind] for kind, cols in by_kind.items())
            step = max(1, _CHUNK // (width * min(col_step, widest)))
            in_window = _columns(sorted(col for cols in by_kind.values() for col in cols))
            for start in range(lo, hi, step):
                rows = slice(start, min(start + step, hi))
                points = alpha0[rows]
                orders = _orders(points, beta[rows], n_terms, lightline_tol)
                near[rows, in_window] = orders.near[:, None]
                for kind, cols in by_kind.items():
                    per_block = col_step * _COLUMNS_PER_TERMS[kind]    # pairs whole
                    for first in range(0, len(cols), per_block):
                        block = rows, _columns(cols[first:first + per_block])
                        values[block] = _offset_sums(kind, points, orders,
                                                     x[block], y[block], n_terms)
    if order is not None:
        values[order], near[order] = values.copy(), near.copy()
    return values, near


def _broadcast_shape(shapes: set[tuple]) -> tuple:
    """The shape arrays of these shapes broadcast to; numpy is asked only for two or more."""
    shapes = shapes - {()}
    if len(shapes) > 1:
        return np.broadcast_shapes(*shapes)
    return shapes.pop() if shapes else ()


def _laid_out(a: np.ndarray, shape: tuple, layout: tuple, dtype: np.dtype) -> np.ndarray:
    """a broadcast to shape and reshaped to layout, as dtype: a view of a where a fits already."""
    if a.shape != shape or a.dtype != dtype:
        return _flat(a, shape, dtype).reshape(layout)
    return a.reshape(layout)


def _flat(a, shape: tuple[int, ...], dtype) -> np.ndarray:
    """a broadcast to shape, as a new flat array of dtype."""
    full = np.empty(shape, dtype=dtype)
    full[...] = a
    return full.ravel()


def _light_line_error(alpha0: float, beta: float,
                      lightline_tol: float) -> LightLineProximity:
    return LightLineProximity(
        f"order within {lightline_tol:g}*beta of a light line at "
        f"(alpha0={alpha0:.9g}, beta={beta:.9g})"
    )


def _non_finite_error(x: float, y: float) -> NonFiniteValue:
    return NonFiniteValue(
        f"Green's function accumulation not finite at (x={x}, y={y})"
    )


def _interaction_matrices(alpha0, beta, pins, policy: TruncationPolicy
                          ) -> tuple[np.ndarray, list[Exception | None]]:
    """G(a_m - a_j) between the pins a_m at every (alpha0, beta): the one builder.

    alpha0 and beta are real, shape (B,); pins are the (x, y) positions of
    one stack, shape (n, 2), shared by every point.  Entries with the same (x, |y|) offset
    share one sum, since G(x, -y) = G(x, y): the diagonal is one sum and a
    triplet needs 4, not 9, all from one kernel call.  Returns the
    (B, n, n) matrices and per point None or the exception evaluating it
    raises: _point_errors' for a point the kernel cannot size (its matrix is
    NaN), else greens' at the first failing entry in row-major order
    (LightLineProximity, NonFiniteValue).
    """
    errors = _point_errors(alpha0, beta)
    ok = _passing(errors)
    alpha0 = np.asarray(alpha0, dtype=float)[ok, None]
    beta = np.asarray(beta, dtype=float)[ok, None]
    pins = np.asarray(pins, dtype=float).reshape(-1, 2)
    n = len(pins)
    # entry (m, j) as m n + j, signed y kept for messages
    dx = (pins[:, None, 0] - pins[None, :, 0]).ravel()
    dy = (pins[:, None, 1] - pins[None, :, 1]).ravel()
    offsets: dict[tuple[float, float], int] = {}
    entry = [offsets.setdefault((x, abs(y)), len(offsets))
             for x, y in zip(dx.tolist(), dy.tolist())]
    xs, ys = np.array(list(offsets), dtype=float).reshape(-1, 2).T
    values, near = _lattice_sums(alpha0, beta, xs, ys, policy)
    failed = near | ~np.isfinite(values)
    for k in np.nonzero(failed.any(axis=1))[0].tolist():
        e = next(e for e, p in enumerate(entry) if failed[k, p])
        errors[ok[k]] = (
            _light_line_error(alpha0[k, 0], beta[k, 0], policy.lightline_tol)
            if near[k, entry[e]] else _non_finite_error(dx[e], dy[e]))
    matrices = np.full((len(errors), n, n), np.nan, dtype=complex)
    matrices[ok] = values[:, entry].reshape(len(ok), n, n)
    return matrices, errors


def order_quantities(point: SpectralPoint, n: int) -> OrderQuantities:
    """Wavenumbers alpha_n, chi_n, tau_n of diffraction order n."""
    alpha_n = point.alpha0 + TWO_PI * n
    b2 = point.beta * point.beta
    a2 = alpha_n * alpha_n
    if a2 <= b2:
        chi_n = complex(np.sqrt(b2 - a2), 0.0)
    else:
        chi_n = complex(0.0, np.sqrt(a2 - b2))
    return OrderQuantities(
        n=n, alpha_n=alpha_n, chi_n=chi_n, tau_n=float(np.sqrt(b2 + a2))
    )


def propagating_orders(point: SpectralPoint) -> list[int]:
    """All orders n with alpha_n^2 < beta^2 (real chi_n), ascending."""
    # alpha0 + 2 pi n in (-beta, beta)
    lo = int(np.ceil((-point.beta - point.alpha0) / TWO_PI))
    hi = int(np.floor((point.beta - point.alpha0) / TWO_PI))
    return [n for n in range(lo, hi + 1)
            if (point.alpha0 + TWO_PI * n) ** 2 < point.beta**2]


def greens(
    point: SpectralPoint,
    x: float,
    y: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    n_terms: int | None = None,
) -> complex:
    """Evaluate the quasi-periodic Green's function at (x, y).

    The source row sits at y = 0 with one source per period at x = 0.  The
    truncation window is policy.window(...): N_FAR, plus the closed-form
    tail at x = 0; off it, from N_FAR to policy.n_self (the source line,
    where the pairwise-combined terms decay only cubically) as |y| shrinks.
    n_terms overrides the rule; no window falls below the kernel's minimum.

    Raises LightLineProximity when any retained order is within
    lightline_tol * beta of its light line, NonFiniteValue if the
    accumulation is not finite.
    """
    value, near = _lattice_sums(point.alpha0, point.beta, x, y, policy, n_terms)
    if near:
        raise _light_line_error(point.alpha0, point.beta, policy.lightline_tol)
    value = complex(value)
    if not cmath.isfinite(value):
        raise _non_finite_error(x, y)
    return value
