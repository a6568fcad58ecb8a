"""Spectral machinery for Hamming graphs.

A Hamming graph is the Cartesian product of complete graphs, one per
categorical dimension.  Its Laplacian eigenstructure factorizes: each
complete graph on g nodes has eigenvalue 0 (constant eigenvector) and
eigenvalue g with multiplicity g - 1, and product eigenvalues are sums of
factor eigenvalues.  This module provides that structure analytically, a
deliberately slow numeric-eigendecomposition Gram builder used as an oracle
for the closed-form kernels, spectrally-defined Gram matrices driven by an
arbitrary nonnegative weight per eigenvalue, and the conversions and
counterexamples that pin down exactly when distance-profile kernels and
spectrally-defined kernels coincide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .kernels import _spread
from .space import InvalidInputError, NumericFailure, SearchSpace, hamming_matrix

__all__ = [
    "FactorSpectrum",
    "ProductSpectrum",
    "PhiSpec",
    "complete_graph_laplacian",
    "factor_spectrum",
    "product_spectrum",
    "product_laplacian",
    "combo_gram_numeric",
    "phi_gram",
    "hamming_to_phi",
    "counterexample_matrix",
    "counterexample_eigenvalues",
    "bodi_not_hamming_check",
]

# Relative tolerance for deciding two eigenvalues belong to the same class.
EIGENVALUE_GROUP_TOL = 1e-6

_SUBSET_LIMIT = 20  # 2**n subset enumeration guard


def complete_graph_laplacian(g: int) -> np.ndarray:
    """Laplacian of the complete graph on g nodes: degree g-1, all edges present."""
    if g < 2:
        raise InvalidInputError(f"complete graph needs g >= 2, got {g}")
    return g * np.eye(g) - np.ones((g, g))


def _helmert_basis(g: int) -> np.ndarray:
    """Orthonormal basis whose first column is the constant vector.

    Columns 2..g follow the Helmert construction, giving a deterministic
    completion of the constant eigenvector.  Any completion spans the same
    eigenspace; this one keeps test output reproducible.
    """
    basis = np.zeros((g, g))
    basis[:, 0] = 1.0 / np.sqrt(g)
    for k in range(1, g):
        norm = np.sqrt(k * (k + 1))
        basis[:k, k] = 1.0 / norm
        basis[k, k] = -k / norm
    return basis


@dataclass(frozen=True)
class FactorSpectrum:
    """Analytic eigenstructure of one complete-graph factor."""

    g: int
    eigenvalues: np.ndarray  # (g,): [0, g, g, ..., g]
    basis: np.ndarray  # (g, g) orthonormal, first column constant

    def laplacian(self) -> np.ndarray:
        return self.basis @ np.diag(self.eigenvalues) @ self.basis.T


def factor_spectrum(g: int) -> FactorSpectrum:
    if g < 2:
        raise InvalidInputError(f"factor needs g >= 2, got {g}")
    eigenvalues = np.full(g, float(g))
    eigenvalues[0] = 0.0
    return FactorSpectrum(g=g, eigenvalues=eigenvalues, basis=_helmert_basis(g))


def _group_values(values: np.ndarray, tol: float = EIGENVALUE_GROUP_TOL):
    """Group a sorted value array into (distinct, counts) with relative tolerance."""
    values = np.sort(np.asarray(values, dtype=float))
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    distinct: list[float] = []
    counts: list[int] = []
    for v in values:
        if distinct and abs(v - distinct[-1]) <= tol * scale:
            counts[-1] += 1
        else:
            distinct.append(float(v))
            counts.append(1)
    return np.array(distinct), np.array(counts)


@dataclass(frozen=True)
class ProductSpectrum:
    """Eigenvalue classes of a full Hamming graph, built by factor additivity."""

    space: SearchSpace
    factors: tuple[FactorSpectrum, ...]
    eigenvalues: np.ndarray  # distinct product eigenvalues, ascending
    multiplicities: np.ndarray  # eigenfunction count per class


def product_spectrum(space: SearchSpace) -> ProductSpectrum:
    factors = tuple(factor_spectrum(g) for g in space.cardinalities)
    sums: dict[float, int] = {}
    for subset in itertools.product([0, 1], repeat=space.n):
        used = [g for g, u in zip(space.cardinalities, subset) if u]
        lam = float(sum(used))
        sums[lam] = sums.get(lam, 0) + prod(g - 1 for g in used)
    values = np.array(sorted(sums))  # exact integer sums: equal ones share a key
    return ProductSpectrum(space, factors, values, np.array([sums[v] for v in values]))


def product_laplacian(space: SearchSpace) -> np.ndarray:
    """Full |X| x |X| Laplacian via Kronecker sums; test-scale only.

    Row/column ordering matches ``SearchSpace.enumerate_points`` (last
    dimension fastest).
    """
    if space.size > 4096:
        raise InvalidInputError("full product Laplacian is restricted to small spaces")
    total = np.zeros((space.size, space.size))
    for i, g in enumerate(space.cardinalities):
        left = int(np.prod(space.cardinalities[:i], dtype=np.int64)) if i else 1
        right = (
            int(np.prod(space.cardinalities[i + 1 :], dtype=np.int64))
            if i + 1 < space.n
            else 1
        )
        total += np.kron(
            np.eye(left), np.kron(complete_graph_laplacian(g), np.eye(right))
        )
    return total


def combo_gram_numeric(space: SearchSpace, betas, points) -> np.ndarray:
    """Gram matrix via per-factor numeric eigendecomposition.

    Every call re-diagonalizes each factor Laplacian with LAPACK and
    evaluates the spectral sum through dense eigenfeature products, exactly
    as reference graph-kernel implementations do.  This is the O(sum g_i^3)
    slow path kept as an oracle; the closed-form product in
    :mod:`heatbo.kernels` must match it up to global scale.
    """
    betas = _spread(space, betas)
    if np.any(betas <= 0):
        raise InvalidInputError("betas must be positive for the numeric oracle")
    X = space.validate_points(points)
    m = X.shape[0]
    gram = np.ones((m, m))
    for i, g in enumerate(space.cardinalities):
        lam, basis = np.linalg.eigh(complete_graph_laplacian(g))
        weights = np.exp(-betas[i] * lam)
        feats = basis[X[:, i]]  # (m, g) eigenfunction values
        gram *= (feats * weights) @ feats.T
    return gram


@dataclass(frozen=True)
class PhiSpec:
    """Nonnegative spectral weight for each distinct product eigenvalue."""

    eigenvalues: np.ndarray  # ascending distinct eigenvalues
    values: np.ndarray  # Phi(eigenvalue), all >= 0

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ev.shape != vals.shape or ev.ndim != 1:
            raise InvalidInputError("eigenvalues and values must be 1-D and aligned")
        scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
        if np.any(vals < -1e-9 * scale):
            raise InvalidInputError("Phi values must be nonnegative")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, space: SearchSpace, fn) -> "PhiSpec":
        spectrum = product_spectrum(space)
        return cls(spectrum.eigenvalues, np.array([fn(l) for l in spectrum.eigenvalues]))

    def lookup(self, lam: float) -> float:
        scale = max(1.0, float(np.max(np.abs(self.eigenvalues))))
        idx = np.flatnonzero(
            np.abs(self.eigenvalues - lam) <= EIGENVALUE_GROUP_TOL * scale
        )
        if idx.size == 0:
            raise InvalidInputError(f"Phi spec does not cover eigenvalue {lam}")
        return float(self.values[idx[0]])


def _match_matrices(space: SearchSpace, X: np.ndarray) -> np.ndarray:
    """Boolean (n, m, m) tensor: entry [i] marks pairs agreeing on dimension i."""
    cols = X.T
    return cols[:, :, None] == cols[:, None, :]


def phi_gram(space: SearchSpace, phi: PhiSpec, points) -> np.ndarray:
    """Gram matrix of the spectrally-defined kernel with weights ``phi``.

    Expands the product eigenbasis analytically: each factor contributes
    1/g_i through its constant eigenfunction and (delta - 1/g_i) through the
    non-constant ones, so the full sum reduces to one term per subset of
    dimensions carrying a non-constant factor.
    """
    if space.n > _SUBSET_LIMIT:
        raise InvalidInputError("subset expansion limited to small dimension counts")
    X = space.validate_points(points)
    m = X.shape[0]
    cards = np.asarray(space.cardinalities, dtype=float)
    match = _match_matrices(space, X)
    # per-dimension non-constant block: delta(x_i, x_i') - 1/g_i
    blocks = match.astype(float) - (1.0 / cards)[:, None, None]
    inv_total = float(np.prod(1.0 / cards))
    gram = np.zeros((m, m))
    for subset in itertools.product([0, 1], repeat=space.n):
        lam = float(sum(g for g, used in zip(space.cardinalities, subset) if used))
        weight = phi.lookup(lam) * inv_total
        term = np.ones((m, m))
        for i, used in enumerate(subset):
            if used:
                term = term * blocks[i] * cards[i]
        gram += weight * term
    return gram


def _pattern_coefficients(space: SearchSpace, spectrum: ProductSpectrum) -> np.ndarray:
    """Linear map from Phi values to kernel values at each mismatch pattern.

    Row t (a subset of mismatched dimensions), column k (an eigenvalue
    class): the kernel value contributed by a unit of Phi on that class.
    """
    n = space.n
    cards = np.asarray(space.cardinalities, dtype=float)
    inv_total = float(np.prod(1.0 / cards))
    patterns = list(itertools.product([0, 1], repeat=n))
    coeff = np.zeros((len(patterns), len(spectrum.eigenvalues)))
    for s_idx, subset in enumerate(itertools.product([0, 1], repeat=n)):
        lam = float(sum(g for g, used in zip(space.cardinalities, subset) if used))
        col = int(np.argmin(np.abs(spectrum.eigenvalues - lam)))
        for t_idx, pattern in enumerate(patterns):
            term = inv_total
            for i, used in enumerate(subset):
                if used:
                    term *= (-1.0) if pattern[i] else (cards[i] - 1.0)
            coeff[t_idx, col] += term
    return coeff


def hamming_to_phi(space: SearchSpace, kernel_values) -> PhiSpec | None:
    """Convert a distance-profile kernel into its spectral weights, if any exist.

    ``kernel_values[h]`` is the kernel value at Hamming distance h.  For
    equal-sized spaces the conversion always succeeds (the defining linear
    system is square and regular); for unequal sizes the system is
    overdetermined and ``None`` is returned when no spectral weight vector
    reproduces the profile at every mismatch pattern.
    """
    values = np.asarray(kernel_values, dtype=float)
    n = space.n
    if values.shape != (n + 1,):
        raise InvalidInputError(f"need one kernel value per distance 0..{n}")
    if n > 14:
        raise InvalidInputError("conversion limited to small dimension counts")
    spectrum = product_spectrum(space)
    coeff = _pattern_coefficients(space, spectrum)
    rhs = np.array(
        [values[sum(p)] for p in itertools.product([0, 1], repeat=n)], dtype=float
    )
    solution, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    if not np.all(np.isfinite(solution)):
        raise NumericFailure("conversion system produced non-finite solution")
    residual = np.max(np.abs(coeff @ solution - rhs))
    scale = max(1.0, float(np.max(np.abs(values))))
    if residual > 1e-8 * scale:
        return None
    # clip solver dust so the nonnegativity contract holds for genuine kernels
    clipped = np.where(np.abs(solution) < 1e-12 * scale, 0.0, solution)
    if np.any(clipped < -1e-9 * scale):
        return None
    return PhiSpec(spectrum.eigenvalues, np.maximum(clipped, 0.0))


# ---------------------------------------------------------------------------
# Executable counterexamples.
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_CARDINALITIES = (2, 2, 4)
COUNTEREXAMPLE_PROFILE = (10.0, 6.0, 4.0, 3.0)


def counterexample_space() -> SearchSpace:
    return SearchSpace(COUNTEREXAMPLE_CARDINALITIES)


def counterexample_matrix() -> np.ndarray:
    """16x16 distance-profile kernel on the (2,2,4) space, values 10/6/4/3.

    Point ordering is lexicographic with the last dimension fastest, the
    same ordering as ``SearchSpace.enumerate_points``.
    """
    sp = counterexample_space()
    pts = sp.enumerate_points()
    profile = np.asarray(COUNTEREXAMPLE_PROFILE)
    return profile[hamming_matrix(pts)]


def counterexample_eigenvalues():
    """Distinct eigenvalues (descending) and multiplicities of the 16x16 kernel.

    The kernel takes only four values yet has six distinct eigenvalues,
    while any spectrally-defined kernel on this unequal-sized space can have
    at most five; the profile therefore admits no spectral representation.
    """
    mat = counterexample_matrix()
    eigs = np.linalg.eigvalsh(mat)
    distinct, counts = _group_values(eigs)
    order = np.argsort(distinct)[::-1]
    return distinct[order], counts[order]


def hed_embedding(anchors, x) -> np.ndarray:
    """Dictionary embedding: coordinate i is the Hamming distance to anchor i."""
    x = np.asarray(x)
    return np.array([float(np.count_nonzero(np.asarray(a) != x)) for a in anchors])


def bodi_not_hamming_check() -> dict:
    """Two pairs at Hamming distance 1 whose dictionary embeddings disagree.

    With the single anchor (1,1,1), the pair ((1,1,1),(1,1,2)) has squared
    embedding distance 1 while ((1,1,2),(1,1,3)) has 0, so no function of
    the Hamming distance alone can reproduce the embedding geometry.
    """
    anchor = [np.array([1, 1, 1])]
    scenarios = {
        "A": (np.array([1, 1, 1]), np.array([1, 1, 2])),
        "B": (np.array([1, 1, 2]), np.array([1, 1, 3])),
    }
    report = {}
    for name, (x, y) in scenarios.items():
        emb = hed_embedding(anchor, x) - hed_embedding(anchor, y)
        report[name] = {
            "sqrt_hamming": float(np.sqrt(np.count_nonzero(x != y))),
            "embedding_sq_distance": float(np.sum(emb**2)),
        }
    report["reproduced"] = (
        report["A"]["sqrt_hamming"] == 1.0
        and report["B"]["sqrt_hamming"] == 1.0
        and report["A"]["embedding_sq_distance"] == 1.0
        and report["B"]["embedding_sq_distance"] == 0.0
    )
    return report


def hamming_profile_gram(space: SearchSpace, kernel_values, points) -> np.ndarray:
    """Gram of an arbitrary distance-profile kernel; shared test helper."""
    values = np.asarray(kernel_values, dtype=float)
    if values.shape != (space.n + 1,):
        raise InvalidInputError(f"need one kernel value per distance 0..{space.n}")
    X = space.validate_points(points)
    return values[hamming_matrix(X)]


def binomial_profile_system(n: int, g: int) -> np.ndarray:
    """Closed-form (n+1)x(n+1) conversion matrix for equal-sized spaces.

    Entry [h, d] is the kernel value at distance h of the unit spectral
    class with d non-constant factors.  Retained as an independent
    cross-check of the generic pattern-based construction.
    """
    mat = np.zeros((n + 1, n + 1))
    for h in range(n + 1):
        for d in range(n + 1):
            total = 0.0
            for j in range(0, min(h, d) + 1):
                k = d - j
                if k > n - h:
                    continue
                total += comb(h, j) * comb(n - h, k) * ((-1.0) ** j) * ((g - 1.0) ** k)
            mat[h, d] = total / (g**n)
    return mat
