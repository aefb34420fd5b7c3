"""Mode matrix of a pinned triplet and its closed-form eigensystem.

A triplet of pinned gratings carries one pin per period on each of three
lines, all lengths in units of the period: outer gratings at y = +/- eta
(pins at x = 0) and a central grating at y = 0 whose pins are shifted to
x = xi.  Collecting the quasi-periodic Green's function between
representative pins gives the 3x3 interaction matrix

        [ M11  M12  M13 ]
    M = [ M21  M11  M21 ],      M11 = G(0, 0),      M12 = G(-xi, eta),
        [ M13  M12  M11 ]       M21 = G(xi, -eta),  M13 = G(0, 2 eta),

whose null vectors are the trapped modes of the stack.  The structure admits a
closed-form eigensystem:

    odd   lambda_1 = M11 - M13,                    v = (-1, 0, 1),
    even  lambda_(+-) = M11 + (M13 +- s) / 2,      v = (1, c_(+-), 1),
          s = sqrt(M13^2 + 8 M12 M21),  c_(+-) = (-M13 +- s) / (2 M12),

with the principal branch of the complex square root throughout; the +- of c
pairs with the +- of lambda.  Dispersion curves are the zero sets of the odd
factor M11 - M13 and the even factor 2 M12 M21 - M11 (M11 + M13), whose
product is -det M.

Mirror symmetry of the Green's function in y makes M21 = G(xi, eta); the
matrix is symmetric (M12 = M21) when xi = 0 or alpha0 = 0.

M is the pin-interaction matrix of the pins in (top, centre, bottom) order,
built by the same greens._interaction_matrices as every scattering system:
four lattice sums per point, for a whole beta vector in one call.  assemble
is its one-point case; dispersion_grid builds one alpha0 column per call.
_triplet_pins gives steering's window search the same pins, and
_factor_offsets and _factor_from continue either dispersion factor to
complex beta, from the same entry offsets, for steering's pole searches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFormula
from .greens import DEFAULT_POLICY, SpectralPoint, TruncationPolicy, _interaction_matrices

# below this magnitude the eigenvector formula 1/M12 is meaningless
_M12_FLOOR = 1e-300


@dataclass(frozen=True)
class StackGeometry:
    """Triplet geometry in units of the period.

    eta is the grating separation (outer lines at y = +/- eta), xi the
    lateral shift of the central grating's pins; each outer mirror is a
    single grating.
    """

    eta: float
    xi: float = 0.0

    def __post_init__(self) -> None:
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")


@dataclass(frozen=True)
class ModeMatrix:
    """The 3x3 pin-interaction matrix at one spectral point."""

    entries: np.ndarray
    point: SpectralPoint
    geometry: StackGeometry

    @property
    def m11(self) -> complex:
        return self.entries[0, 0]

    @property
    def m12(self) -> complex:
        return self.entries[0, 1]

    @property
    def m13(self) -> complex:
        return self.entries[0, 2]

    @property
    def m21(self) -> complex:
        return self.entries[1, 0]


@dataclass(frozen=True)
class EigenSystem:
    """Closed-form eigenpairs of the mode matrix.

    Eigenvectors are unnormalized: v_odd = (-1, 0, 1), v_e_* = (1, c, 1).
    lambda_plus pairs with v_e_plus (the + branch of the square root).
    """

    lambda_1: complex
    lambda_minus: complex
    lambda_plus: complex
    v_odd: np.ndarray
    v_e_minus: np.ndarray
    v_e_plus: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([self.lambda_1, self.lambda_minus, self.lambda_plus])


@dataclass(frozen=True)
class DispersionResidual:
    """Moduli of the odd / even dispersion factors at one spectral point."""

    odd: float
    even: float
    log10_odd: float
    log10_even: float


@dataclass(frozen=True)
class CoincidenceReport:
    """Residuals of the closed-form mode-coincidence conditions.

    even_even_m13 and even_even_m21 vanish together when the two even modes
    coincide (eigenvalues (0, 0, 3 M11), defective); even_odd vanishes with
    the odd factor when an even mode meets the odd one.  defective_basis holds
    the eigenvector set of the even-odd coincidence when its residual is below
    tol * |M11|^2, else None.
    """

    even_even_m13: float
    even_even_m21: float
    even_odd: float
    defective_basis: np.ndarray | None


def _triplet_pins(geometry: StackGeometry) -> tuple:
    """The triplet's pins in (top, centre, bottom) order, the mode matrix's."""
    eta, xi = geometry.eta, geometry.xi
    return ((0.0, eta), (xi, 0.0), (0.0, -eta))


def _factor_offsets(kind: str, geometry: StackGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) offsets of the entries (M11, M13) or (M11, M13, M12, M21) a factor needs."""
    eta, xi = geometry.eta, geometry.xi
    count = 2 if kind == "odd" else 4
    return (np.array([0.0, 0.0, -xi, xi][:count]),
            np.array([0.0, 2.0 * eta, eta, eta][:count]))


def _factor_from(kind: str, values: np.ndarray) -> complex:
    """The dispersion factor from its entries' lattice sums, in _factor_offsets' order."""
    m11, m13, *off = values.tolist()
    if kind == "odd":
        return m11 - m13
    return 2.0 * off[0] * off[1] - m11 * (m11 + m13)


def assemble(
    point: SpectralPoint,
    geometry: StackGeometry,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> ModeMatrix:
    """Assemble the triplet mode matrix at a spectral point.

    Every entry uses the short window: the diagonal and M13 sit on the
    column x = 0, where the kernel adds the closed-form tail; M12 and M21
    sit off the source line.
    """
    entries, (error,) = _interaction_matrices([point.alpha0], [point.beta],
                                             _triplet_pins(geometry), policy)
    if error is not None:
        raise error
    return ModeMatrix(entries=entries[0], point=point, geometry=geometry)


def eigensystem(m: ModeMatrix) -> EigenSystem:
    """Closed-form eigenvalues and eigenvectors of the mode matrix.

    Raises DegenerateFormula when |M12| underflows the eigenvector formula.
    """
    m11, m12, m13, m21 = m.m11, m.m12, m.m13, m.m21
    if abs(m12) < _M12_FLOOR:
        raise DegenerateFormula("M12 is numerically zero; eigenvectors undefined")
    s = np.sqrt(m13 * m13 + 8.0 * m12 * m21 + 0j)
    lam_minus = m11 + (m13 - s) / 2.0
    lam_plus = m11 + (m13 + s) / 2.0
    c_minus = (-m13 - s) / (2.0 * m12)
    c_plus = (-m13 + s) / (2.0 * m12)
    return EigenSystem(
        lambda_1=m11 - m13,
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        v_odd=np.array([-1.0, 0.0, 1.0], dtype=complex),
        v_e_minus=np.array([1.0, c_minus, 1.0]),
        v_e_plus=np.array([1.0, c_plus, 1.0]),
    )


def _factor_moduli(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|odd factor| and |even factor| of a stack of mode matrices (..., 3, 3)."""
    m11, m12, m13, m21 = (entries[..., 0, 0], entries[..., 0, 1],
                          entries[..., 0, 2], entries[..., 1, 0])
    even = np.multiply(2.0 * m12, m21) - np.multiply(m11, m11 + m13)
    return np.abs(m11 - m13), np.abs(even)


def _log10(modulus: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log10(modulus)


def dispersion_residual(m: ModeMatrix) -> DispersionResidual:
    """Moduli of the odd and even dispersion factors.

    odd factor  = M11 - M13 (the odd eigenvalue),
    even factor = 2 M12 M21 - M11 (M11 + M13) = -lambda_minus * lambda_plus.
    Zeros of either factor are points on the trapped-mode dispersion curves.
    """
    odd, even = (float(v[0]) for v in _factor_moduli(m.entries[None]))
    return DispersionResidual(odd=odd, even=even,
                              log10_odd=float(_log10(odd)),
                              log10_even=float(_log10(even)))


def determinant(m: ModeMatrix) -> complex:
    """det M through the closed-form factorization.

    det M = lambda_1 * lambda_minus * lambda_plus
          = -(M11 - M13) * (2 M12 M21 - M11 (M11 + M13)).
    """
    return -(m.m11 - m.m13) * (2.0 * m.m12 * m.m21 - m.m11 * (m.m11 + m.m13))


def lightline_matrix(x: complex) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of the light-line limit matrix [[1, X, X^2], [X, 1, X], [X^2, X, 1]].

    On a light line every entry of the mode matrix degenerates to a power of a
    single phase factor X.  Returns (eigenvalues, eigenvectors) with
    eigenvectors in columns, ordered (odd, even-, even+):

        1 - X^2                        (-1, 0, 1)
        (2 + X^2 -+ X sqrt(8 + X^2))/2  (1, (-X -+ sqrt(8 + X^2))/2, 1)

    At X = 1 the eigenvalues degenerate to (0, 0, 3).
    """
    s = np.sqrt(x * x + 8.0 + 0j)
    lam = np.array(
        [
            1.0 - x * x,
            (2.0 + x * x - x * s) / 2.0,
            (2.0 + x * x + x * s) / 2.0,
        ]
    )
    vecs = np.array(
        [
            [-1.0, 1.0, 1.0],
            [0.0, (-x - s) / 2.0, (-x + s) / 2.0],
            [1.0, 1.0, 1.0],
        ],
        dtype=complex,
    )
    return lam, vecs


def coincidence_conditions(m: ModeMatrix, tol: float = 1e-6) -> CoincidenceReport:
    """Residuals of the two mode-coincidence conditions.

    Even-even coincidence: M13 = -2 M11 and M21 = -M11^2 / (2 M12), where the
    even eigenvalues merge at 0 and the matrix is defective (two independent
    eigenvectors).  Even-odd coincidence: M12 M21 = M11^2 together with
    M11 = M13, eigenvalues (0, 0, 3 M11) with a full basis.
    """
    m11, m12, m13, m21 = m.m11, m.m12, m.m13, m.m21
    if abs(m12) < _M12_FLOOR:
        raise DegenerateFormula("M12 is numerically zero; conditions undefined")
    even_even_m13 = abs(m13 + 2.0 * m11)
    even_even_m21 = abs(m21 + m11 * m11 / (2.0 * m12))
    even_odd = abs(m12 * m21 - m11 * m11)
    basis = None
    if even_odd <= tol * abs(m11) ** 2 and abs(m11) > 0.0:
        basis = np.array(
            [
                [-1.0, -m12 / m11, 1.0],
                [0.0, 1.0, m11 / m12],
                [1.0, 0.0, 1.0],
            ],
            dtype=complex,
        )
    return CoincidenceReport(
        even_even_m13=even_even_m13,
        even_even_m21=even_even_m21,
        even_odd=even_odd,
        defective_basis=basis,
    )


def project(m: ModeMatrix, v: np.ndarray) -> complex:
    """Projection p(v) = v^T M v (plain transpose, no conjugation).

    For a unit-norm candidate mode shape v, |p| dips sharply when (alpha0,
    beta) crosses the dispersion curve of a mode with that shape, and stays
    O(|M11|) otherwise.
    """
    v = np.asarray(v)
    return complex(v @ m.entries @ v)


def even_family_vector(a: float) -> np.ndarray:
    """Normalized even-mode candidate (1, A, 1)/sqrt(A^2 + 2).

    A in [-2, 2] sweeps the admissible even shapes; A = -1 is the odd-like
    corner and A = 2 the fully symmetric one.
    """
    return np.array([1.0, a, 1.0]) / np.sqrt(a * a + 2.0)


def scan_even_family(matrices: list[ModeMatrix], a_values: np.ndarray) -> np.ndarray:
    """log10 |p(v_A)| over a family of matrices (for example a beta scan).

    Returns an array of shape (len(a_values), len(matrices)); row i is the
    projection onto v_A for A = a_values[i] across all matrices.
    """
    out = np.empty((len(a_values), len(matrices)))
    for i, a in enumerate(a_values):
        v = even_family_vector(float(a))
        for j, m in enumerate(matrices):
            p = abs(project(m, v))
            out[i, j] = np.log10(p) if p > 0.0 else float("-inf")
    return out


def dispersion_grid(
    alpha0_values: np.ndarray,
    beta_values: np.ndarray,
    geometry: StackGeometry,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> list[dict]:
    """Dispersion residuals over an (alpha0, beta) grid.

    Returns one row dict per grid cell in alpha0-major order with keys
    alpha0, beta, log10_odd, log10_even, status.  Cells where evaluation is
    refused (light-line proximity) carry NaN residuals and the error name in
    status; the scan never aborts on a per-cell failure.  Each alpha0
    column is one batched build of its mode matrices.
    """
    betas = [float(b) for b in beta_values]
    rows = []
    for a0 in map(float, alpha0_values):
        entries, errors = _interaction_matrices([a0] * len(betas), betas,
                                                _triplet_pins(geometry), policy)
        log_odd, log_even = (_log10(m).tolist() for m in _factor_moduli(entries))
        for b, error, log_odd, log_even in zip(betas, errors, log_odd, log_even):
            row = {"alpha0": a0, "beta": b}
            if error is None:
                row.update(log10_odd=log_odd, log10_even=log_even, status="ok")
            else:
                row.update(log10_odd=float("nan"), log10_even=float("nan"),
                           status=type(error).__name__)
            rows.append(row)
    return rows


def _valley_beta(betas: np.ndarray, r2: np.ndarray) -> float:
    """Sub-cell valley position of a residual column by parabolic fit.

    The squared modulus of a dispersion factor is locally quadratic in beta
    near a zero crossing (linear cusp in |f| plus a possible flat floor), so
    the vertex of the parabola through the minimum cell and its neighbors
    refines the valley position below the grid step.
    """
    i = int(np.argmin(r2))
    if 0 < i < len(r2) - 1:
        coeff = np.polyfit(betas[i - 1 : i + 2], r2[i - 1 : i + 2], 2)
        if coeff[0] > 0.0:
            vertex = -coeff[1] / (2.0 * coeff[0])
            if betas[i - 1] <= vertex <= betas[i + 1]:
                return float(vertex)
    return float(betas[i])


def locate_crossing(rows: list[dict]) -> tuple[float, float]:
    """Estimate where the odd and even dispersion curves intersect.

    Each grid column (fixed alpha0) is collapsed to the valley positions of
    the two residual surfaces; the curves cross where the valley separation
    beta_odd - beta_even changes sign, located by linear interpolation
    between columns.  This is insensitive to the very different depths of
    the two valleys (the even factor dips orders of magnitude deeper than
    the odd one).  Without a bracketed sign change, the column of smallest
    separation is returned.
    """
    ok = [r for r in rows if r["status"] == "ok"]
    if not ok:
        raise ValueError("no valid grid cells")
    columns: dict[float, list[dict]] = {}
    for r in ok:
        columns.setdefault(r["alpha0"], []).append(r)
    a0s = sorted(columns)
    valleys = []  # (alpha0, beta_odd, beta_even)
    for a0 in a0s:
        col = sorted(columns[a0], key=lambda r: r["beta"])
        betas = np.array([r["beta"] for r in col])
        odd2 = np.power(10.0, 2.0 * np.array([r["log10_odd"] for r in col]))
        even2 = np.power(10.0, 2.0 * np.array([r["log10_even"] for r in col]))
        valleys.append((a0, _valley_beta(betas, odd2), _valley_beta(betas, even2)))
    sep = np.array([bo - be for _, bo, be in valleys])
    for j in range(len(valleys) - 1):
        if sep[j] == 0.0 or sep[j] * sep[j + 1] < 0.0:
            t = sep[j] / (sep[j] - sep[j + 1]) if sep[j] != sep[j + 1] else 0.0
            a0 = valleys[j][0] + t * (valleys[j + 1][0] - valleys[j][0])
            beta_o = valleys[j][1] + t * (valleys[j + 1][1] - valleys[j][1])
            beta_e = valleys[j][2] + t * (valleys[j + 1][2] - valleys[j][2])
            return float(a0), float(0.5 * (beta_o + beta_e))
    j = int(np.argmin(np.abs(sep)))
    return float(valleys[j][0]), float(0.5 * (valleys[j][1] + valleys[j][2]))
