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
from math import comb

import numpy as np

from . import kernels
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
    "kernel_route_deviation",
    "conversion_residual",
    "profile_psd_worst_ratio",
    "padded_sorting_distances",
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


def _group_values(values: np.ndarray):
    """Group sorted values into (distinct, counts), relative tolerance EIGENVALUE_GROUP_TOL."""
    values = np.sort(np.asarray(values, dtype=float))
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    distinct: list[float] = []
    counts: list[int] = []
    for v in values:
        if distinct and abs(v - distinct[-1]) <= EIGENVALUE_GROUP_TOL * scale:
            counts[-1] += 1
        else:
            distinct.append(float(v))
            counts.append(1)
    return np.array(distinct), np.array(counts)


@dataclass(frozen=True)
class ProductSpectrum:
    """Eigenvalue classes of a full Hamming graph, built by factor additivity."""

    eigenvalues: np.ndarray  # distinct product eigenvalues, ascending
    multiplicities: np.ndarray  # eigenfunction count per class, exact ints


def product_spectrum(space: SearchSpace) -> ProductSpectrum:
    """Multiplicity of eigenvalue lam: the Python-int coefficient of z**lam in
    prod_i (1 + (g_i - 1) z**g_i), one factor (one dimension) at a time."""
    counts = {0: 1}
    for g in space.cardinalities:
        step = dict(counts)
        for lam, count in counts.items():
            step[lam + g] = step.get(lam + g, 0) + count * (g - 1)
        counts = step
    values = sorted(counts)
    return ProductSpectrum(np.array(values, dtype=float), np.array([counts[v] for v in values]))


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
    match = X.T[:, :, None] == X.T[:, None, :]  # [i]: the pairs agreeing on dimension i
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

    Row t (a subset of mismatched dimensions, the first dimension the most
    significant bit), column k (an eigenvalue class): the kernel value
    contributed by a unit of Phi on that class.  A dimension of g categories
    adds its constant eigenfunction (factor 1, eigenvalue unchanged) or its
    g - 1 others (factor g - 1 where the pattern matches there, -1 where it
    differs, eigenvalue + g), so the table grows one dimension at a time.
    """
    eig = spectrum.eigenvalues
    coeff = np.zeros((1, eig.size))
    coeff[0, 0] = float(np.prod(1.0 / np.asarray(space.cardinalities, dtype=float)))
    for g in space.cardinalities:
        src = np.flatnonzero(np.isin(eig + g, eig))
        dst = np.searchsorted(eig, eig[src] + g)
        match, differ = coeff.copy(), coeff.copy()
        match[:, dst] += (g - 1.0) * coeff[:, src]
        differ[:, dst] -= coeff[:, src]
        coeff = np.stack([match, differ], axis=1).reshape(-1, eig.size)
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


# ---------------------------------------------------------------------------
# The paper's checkable claims besides the two counterexamples above, one
# function each, run by ``heatbo selftest`` and acceptance criteria 1-5;
# each returns what it measured.
# ---------------------------------------------------------------------------


def kernel_route_deviation(seed: int) -> float:
    """Largest gap between the heat, CASMOPOLITAN (at the converted
    lengthscales) and numeric COMBO Grams, each over its diagonal: 20
    spaces of 1-6 dimensions and 2-6 categories, 12 points each."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        space = SearchSpace(tuple(int(g) for g in rng.integers(2, 7, size=n)))
        betas = rng.uniform(0.05, 2.0, size=space.n)
        pts = space.sample_points(12, rng)
        ells = kernels.heat_betas_to_casmo_lengthscales(space, betas)
        heat = kernels.gram(space, kernels.default_spec(space, "heat", betas=betas), pts)
        casmo = kernels.default_spec(space, "casmopolitan", lengthscales=ells)
        ref = heat / heat[0, 0]
        for other in (kernels.gram(space, casmo, pts), combo_gram_numeric(space, betas, pts)):
            worst = max(worst, float(np.max(np.abs(other / other[0, 0] - ref))))
    return worst


def conversion_residual(seed: int) -> float:
    """Largest gap between a distance-profile Gram and the Gram of its
    spectral weights: 20 rbf, matern52 and rq profiles in turn on spaces of
    1-4 dimensions of 2-4 categories each; infinite if one has no weights."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(20):
        n, g = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        space = SearchSpace((g,) * n)
        family = ("rbf", "matern52", "rq")[trial % 3]
        params = {"lengthscale": float(rng.uniform(0.5, 3.0))}
        if family == "rq":
            params["alpha"] = float(rng.uniform(0.3, 3.0))
        values = kernels._profile(family, params, np.arange(n + 1))
        phi = hamming_to_phi(space, values)
        if phi is None:
            return float("inf")
        pts = space.enumerate_points()
        gap = phi_gram(space, phi, pts) - hamming_profile_gram(space, values, pts)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def profile_psd_worst_ratio(seed: int) -> float:
    """Largest -min/max eigenvalue ratio of 50 hamming_rbf, then hamming_matern52,
    then hamming_rq Grams on spaces of 2-8 dimensions and 2-6 categories
    with 8-64 points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for family in ("hamming_rbf", "hamming_matern52", "hamming_rq"):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            space = SearchSpace(tuple(int(g) for g in rng.integers(2, 7, size=n)))
            pts = space.sample_points(int(rng.integers(8, 65)), rng)
            params = {"lengthscale": float(rng.uniform(0.3, 3.0)), "sigma2": 1.0}
            if family == "hamming_rq":
                params["alpha"] = float(rng.uniform(0.3, 3.0))
            gram = kernels.gram(space, kernels.KernelSpec(family, params, False), pts)
            eigs = np.linalg.eigvalsh(gram)
            worst = max(worst, float(-eigs.min() / max(eigs.max(), 1e-300)))
    return worst


def padded_sorting_distances() -> tuple[int, int]:
    """(padded, sorted) distance of two points of 10 dimensions of 5
    categories that differ in their first two entries: padding gives 4,
    sorting both and comparing position by position gives 7."""
    x, xp = [0, 0, 0, 1, 1, 2, 3, 3, 4, 4], [4, 4, 0, 1, 1, 2, 3, 3, 4, 4]
    plain = int(np.count_nonzero(np.sort(x) != np.sort(xp)))
    return kernels.padded_hamming_distance(SearchSpace((5,) * 10), x, xp), plain
