"""Closed-form kernel families over categorical product spaces.

All families here evaluate in O(n) per pair, in contrast to the numeric
eigendecomposition oracle in :mod:`heatbo.spectral`.  The core family is the
diffusion (heat) kernel on the space's Hamming graph,

    k(x, y) = sigma2 * prod_i rho_i ** [x_i != y_i],
    rho_i = (1 - exp(-beta_i g_i)) / (1 + (g_i - 1) exp(-beta_i g_i)),

which the exponentiated-delta kernel, the per-factor spectral product and
the one-hot RBF kernel all reproduce up to scale.  On top of these sit
generic distance-profile kernels (RBF / Matern-5/2 / rational quadratic of
the square-root Hamming distance), the direct compound-symmetry
parameterization with per-dimension correlations, additive variants, and
wrappers that make any inner kernel invariant to a group acting on the
dimensions.

Every match-based family has one Gram function, ``pairs(space, spec, X1,
X2)``, which ``gram``, ``cross_gram``, ``value`` and ``diag_values`` all
call.  Each is built on the weighted mismatch matrix ``sum_i w_i [x_i !=
y_i]``: heat, combo and casmopolitan are ``sigma2 * exp`` of it, the
distance profiles are functions of it with unit weights, and the additive
sum is affine in it.  ``rho`` (whose correlations may be negative) and the
families with products inside components take one (m1, m2) mismatch mask
per dimension at a time.  The scalar ``*_eval`` functions are independent
oracles for these routes.

For the GP fitter, ``fit_terms(space, spec, X)`` builds each family's
per-fit kernel terms once per training set: ``gram(spec)`` gives K and
``grad(spec, K, W)`` gives 1/2 <W, dK/dtheta_j> for every packed
parameter.  heat, combo and casmopolitan use grouped mismatch counts,
``rho`` its prefix/suffix products, the distance profiles f' on one
Hamming matrix, and every other family central differences of ``gram``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import exp, log, sqrt

import numpy as np

from .space import InvalidInputError, SearchSpace

__all__ = [
    "KernelSpec",
    "Decomposition",
    "PaddedVector",
    "heat_rho",
    "heat_eval",
    "casmo_eval",
    "beta_to_gamma",
    "heat_betas_to_casmo_lengthscales",
    "hamming_family_eval",
    "rho_eval",
    "additive_sum_eval",
    "random_decomposition_eval",
    "explainable_additive_eval",
    "elementary_symmetric",
    "pad_sort",
    "padded_hamming_distance",
    "invariant_eval",
    "gram",
    "cross_gram",
    "default_spec",
    "sample_decomposition",
    "FAMILY_NAMES",
]


# ---------------------------------------------------------------------------
# Scalar building blocks.
# ---------------------------------------------------------------------------


def heat_rho(beta: float, g: int) -> float:
    """Per-dimension correlation induced by diffusion time ``beta`` on g categories."""
    if beta < 0:
        raise InvalidInputError(f"beta must be >= 0, got {beta}")
    e = exp(-beta * g)
    return (1.0 - e) / (1.0 + (g - 1.0) * e)


def _heat_rho_grad(beta: float, g: int) -> float:
    """d rho / d beta in closed form."""
    e = exp(-beta * g)
    return (g * g * e) / (1.0 + (g - 1.0) * e) ** 2


def beta_to_gamma(beta: float, g: int) -> float:
    """Map a diffusion time to the exponentiated-delta rate with the same correlation.

    gamma = -ln rho(beta); dividing the exponentiated-delta lengthscale by the
    dimension count, l_i = n * gamma_i, makes the two families coincide after
    diagonal normalization.  Strictly decreasing in beta.
    """
    if g < 2:
        raise InvalidInputError(f"need g >= 2, got {g}")
    if beta <= 0:
        raise InvalidInputError("beta must be positive; rho -> 0 gives infinite gamma")
    return -log(heat_rho(beta, g))


def heat_betas_to_casmo_lengthscales(space: SearchSpace, betas) -> np.ndarray:
    betas = _spread(space, betas)
    return np.array(
        [space.n * beta_to_gamma(b, g) for b, g in zip(betas, space.cardinalities)]
    )


def _spread(space: SearchSpace, values) -> np.ndarray:
    """Broadcast a shared hyperparameter to one value per dimension."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.shape == (1,):
        return np.full(space.n, values[0])
    if values.shape != (space.n,):
        raise InvalidInputError(
            f"need 1 or {space.n} values, got shape {values.shape}"
        )
    return values


def heat_eval(space: SearchSpace, betas, x, y, sigma2: float = 1.0) -> float:
    """Diffusion-kernel value; one correlation factor per mismatching dimension."""
    betas = _spread(space, betas)
    if np.any(betas < 0):
        raise InvalidInputError("betas must be >= 0")
    x = space.validate_point(x)
    y = space.validate_point(y)
    value = sigma2
    for i, g in enumerate(space.cardinalities):
        if x[i] != y[i]:
            value *= heat_rho(float(betas[i]), g)
    return value


def casmo_eval(space: SearchSpace, lengthscales, x, y, sigma2: float = 1.0) -> float:
    """Exponentiated-delta kernel, normalized so the diagonal equals ``sigma2``."""
    ells = _spread(space, lengthscales)
    if np.any(ells <= 0):
        raise InvalidInputError("lengthscales must be > 0")
    x = space.validate_point(x)
    y = space.validate_point(y)
    mism = (x != y).astype(float)
    return sigma2 * exp(-float(np.dot(ells, mism)) / space.n)


def rho_eval(space: SearchSpace, rhos, x, y, sigma2: float = 1.0) -> float:
    """Compound-symmetry product kernel with explicit per-dimension correlations."""
    rhos = np.asarray(rhos, dtype=float)
    if rhos.shape != (space.n,):
        raise InvalidInputError(f"need {space.n} correlations")
    _validate_rhos(space, rhos)
    x = space.validate_point(x)
    y = space.validate_point(y)
    value = sigma2
    for i in range(space.n):
        if x[i] != y[i]:
            value *= rhos[i]
    return value


def _validate_rhos(space: SearchSpace, rhos) -> None:
    for g, r in zip(space.cardinalities, rhos):
        lo = -1.0 / (g - 1.0)
        if not (lo < r < 1.0):
            raise InvalidInputError(
                f"correlation {r} outside ({lo}, 1) for {g} categories"
            )


_PROFILE_FAMILIES = ("rbf", "matern52", "rq")


def _profile(family: str, params: dict, h: np.ndarray) -> np.ndarray:
    """Isotropic profile evaluated at integer squared distance ``h = d**2``."""
    h = np.asarray(h, dtype=float)
    ell = float(params["lengthscale"])
    if ell <= 0:
        raise InvalidInputError("lengthscale must be > 0")
    if family == "rbf":
        return np.exp(-h / ell**2)
    if family == "matern52":
        t = np.sqrt(5.0 * h) / ell
        return (1.0 + t + t**2 / 3.0) * np.exp(-t)
    if family == "rq":
        alpha = float(params["alpha"])
        if alpha <= 0:
            raise InvalidInputError("rq shape alpha must be > 0")
        return (1.0 + h / (2.0 * alpha * ell**2)) ** (-alpha)
    raise InvalidInputError(f"unknown profile family {family!r}")


def _profile_grads(family: str, params: dict, h: np.ndarray) -> list:
    """Derivatives of ``_profile`` in its log shape parameters, pack order."""
    ell = float(params["lengthscale"])
    if family == "rbf":
        return [np.exp(-h / ell**2) * (2.0 * h / ell**2)]
    if family == "matern52":
        t = np.sqrt(5.0 * h) / ell
        return [np.exp(-t) * t**2 * (1.0 + t) / 3.0]
    alpha = float(params["alpha"])  # rq
    u = 1.0 + h / (2.0 * alpha * ell**2)
    return [
        u ** (-alpha - 1.0) * h / ell**2,
        u ** (-alpha) * alpha * (-np.log(u) + h / (2.0 * alpha * ell**2 * u)),
    ]


def hamming_family_eval(
    space: SearchSpace, family: str, params: dict, x, y, sigma2: float = 1.0
) -> float:
    """Distance-profile kernel value at the square-root Hamming distance."""
    if family not in _PROFILE_FAMILIES:
        raise InvalidInputError(f"family must be one of {_PROFILE_FAMILIES}")
    x = space.validate_point(x)
    y = space.validate_point(y)
    h = int(np.count_nonzero(x != y))
    return sigma2 * float(_profile(family, params, np.array(h)))


# ---------------------------------------------------------------------------
# Additive structures over compound-symmetry base kernels.
# ---------------------------------------------------------------------------


def _base_values(space: SearchSpace, vs, cs, x, y) -> np.ndarray:
    vs = np.asarray(vs, dtype=float)
    cs = np.asarray(cs, dtype=float)
    if vs.shape != (space.n,) or cs.shape != (space.n,):
        raise InvalidInputError(f"need {space.n} base-kernel (v, c) pairs")
    if np.any(vs <= 0):
        raise InvalidInputError("base variances must be > 0")
    _validate_rhos(space, cs / vs)
    x = space.validate_point(x)
    y = space.validate_point(y)
    return np.where(x == y, vs, cs)


def additive_sum_eval(space: SearchSpace, vs, cs, x, y) -> float:
    """First-order sum of per-dimension base kernels."""
    return float(np.sum(_base_values(space, vs, cs, x, y)))


def random_decomposition_eval(
    space: SearchSpace, decomposition: "Decomposition", vs, cs, x, y
) -> float:
    """Sum over components of products of base kernels inside each component."""
    base = _base_values(space, vs, cs, x, y)
    return float(
        sum(np.prod([base[i] for i in comp]) for comp in decomposition.components)
    )


def elementary_symmetric(values) -> np.ndarray:
    """All elementary symmetric polynomials e_0..e_n of the inputs.

    Newton-Girard recurrence from power sums: d * e_d = sum_{k=1}^{d}
    (-1)^{k-1} e_{d-k} p_k, costing O(n^2).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    powers = np.array([np.sum(values**k) for k in range(n + 1)])
    es = np.zeros(n + 1)
    es[0] = 1.0
    for d in range(1, n + 1):
        total = 0.0
        for k in range(1, d + 1):
            total += (-1.0) ** (k - 1) * es[d - k] * powers[k]
        es[d] = total / d
    return es


def explainable_additive_eval(
    space: SearchSpace, degree_weights, vs, cs, x, y
) -> float:
    """Weighted sum over interaction degrees of base-kernel products."""
    weights = np.asarray(degree_weights, dtype=float)
    if weights.shape != (space.n,):
        raise InvalidInputError(f"need {space.n} degree weights")
    if np.any(weights < 0):
        raise InvalidInputError("degree weights must be >= 0")
    base = _base_values(space, vs, cs, x, y)
    es = elementary_symmetric(base)
    return float(np.dot(weights, es[1:]))


@dataclass(frozen=True)
class Decomposition:
    """Collection of dimension subsets defining which interactions are modeled."""

    components: tuple[tuple[int, ...], ...]
    seed: int | None = None

    def __post_init__(self):
        comps = tuple(tuple(sorted(int(i) for i in c)) for c in self.components)
        if not comps or any(len(c) == 0 for c in comps):
            raise InvalidInputError("decomposition needs nonempty components")
        object.__setattr__(self, "components", comps)

    def covers(self, n: int) -> bool:
        seen = {i for c in self.components for i in c}
        return seen == set(range(n))


def sample_decomposition(space: SearchSpace, seed: int, max_size: int = 3) -> Decomposition:
    """Uniform random partition of the dimensions into components of bounded size."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(space.n)
    comps = []
    i = 0
    while i < space.n:
        size = int(rng.integers(1, max_size + 1))
        comps.append(tuple(int(j) for j in order[i : i + size]))
        i += size
    return Decomposition(tuple(comps), seed=seed)


# ---------------------------------------------------------------------------
# Permutation-invariant encodings and wrappers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaddedVector:
    """Per-category blocks of repeated symbols padded with -1 (the '*' symbol)."""

    symbols: tuple[int, ...]
    block_length: int

    def __post_init__(self):
        non_pad = [s for s in self.symbols if s >= 0]
        if len(non_pad) != self.block_length:
            raise InvalidInputError("non-padding symbol count must equal block length")


def _require_equal_alphabet(space: SearchSpace) -> int:
    if not space.equal_sized():
        raise InvalidInputError("pooled dimensions must share one category alphabet")
    return space.cardinalities[0]


def _category_counts(space: SearchSpace, x) -> np.ndarray:
    g = _require_equal_alphabet(space)
    x = space.validate_point(x)
    return np.bincount(x, minlength=g)


def pad_sort(space: SearchSpace, x) -> PaddedVector:
    """Canonical permutation-invariant encoding via per-category count blocks."""
    g = _require_equal_alphabet(space)
    counts = _category_counts(space, x)
    symbols: list[int] = []
    for c in range(g):
        symbols.extend([c] * int(counts[c]))
        symbols.extend([-1] * (space.n - int(counts[c])))
    return PaddedVector(tuple(symbols), block_length=space.n)


def padded_hamming_distance(space: SearchSpace, x, y) -> int:
    """Hamming distance between padded encodings, from count differences alone."""
    cx = _category_counts(space, x)
    cy = _category_counts(space, y)
    return int(np.sum(np.abs(cx - cy)))


def _dimension_permutations(n: int, samples: int | None, seed: int):
    """Sampled (or exhaustive, when samples is None) dimension permutations."""
    if samples is None:
        return [np.array(p) for p in itertools.permutations(range(n))]
    if samples < 1:
        raise InvalidInputError("need at least one sampled group element")
    rng = np.random.default_rng(seed)
    return [rng.permutation(n) for _ in range(samples)]


def invariant_eval(
    space: SearchSpace,
    inner,
    mode: str,
    x,
    y,
    samples: int | None = 200,
    seed: int = 0,
) -> float:
    """Make a kernel invariant to dimension permutations.

    ``inner`` is a callable ``inner(x, y) -> float`` for the sum/proj/prod
    modes, or a ``(family, params)`` profile pair for ``padded_proj``.
    Modes: ``sum`` averages the inner kernel over sampled pairs of group
    elements, ``proj`` canonicalizes both inputs by sorting, ``padded_proj``
    applies a distance profile to the padded-encoding distance, and ``prod``
    multiplies over sampled pairs.
    """
    x = space.validate_point(x)
    y = space.validate_point(y)
    if mode == "proj":
        return float(inner(np.sort(x), np.sort(y)))
    if mode == "padded_proj":
        family, params = inner
        h_pad = padded_hamming_distance(space, x, y)
        sigma2 = float(params.get("sigma2", 1.0))
        return sigma2 * float(_profile(family, params, np.array(h_pad)))
    if mode in ("sum", "prod"):
        perms = _dimension_permutations(space.n, samples, seed)
        terms = [
            float(inner(x[p], y[q])) for p in perms for q in perms
        ]
        if mode == "sum":
            return float(np.mean(terms))
        return float(np.prod(terms))
    raise InvalidInputError(f"unknown invariance mode {mode!r}")


# ---------------------------------------------------------------------------
# KernelSpec: one validated hyperparameter bundle per family, plus the
# vectorized Gram builders and unconstrained packing used by the GP fitter.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family tag plus its constrained hyperparameters."""

    family: str
    params: dict
    ard: bool = True

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidInputError(
                f"unknown family {self.family!r}; known: {sorted(_FAMILIES)}"
            )

    def replace_params(self, **updates) -> "KernelSpec":
        merged = dict(self.params)
        merged.update(updates)
        return KernelSpec(self.family, merged, self.ard)

    @property
    def sigma2(self) -> float:
        return float(self.params.get("sigma2", 1.0))


def _mismatches(X1: np.ndarray, X2: np.ndarray):
    """One boolean (m1, m2) mask per dimension, in order: do the rows differ there."""
    return (c1[:, None] != c2[None, :] for c1, c2 in zip(X1.T, X2.T))


def _one_hot_matrix(space: SearchSpace, X: np.ndarray) -> np.ndarray:
    """(m, sum g_i) float encoding with one block per dimension."""
    offsets = np.concatenate([[0], np.cumsum(space.cardinalities)[:-1]])
    Z = np.zeros((X.shape[0], space.one_hot_width))
    cols = X + offsets  # (m, n) global column index of each coordinate
    Z[np.arange(X.shape[0])[:, None], cols] = 1.0
    return Z


_ONE_HOT_WIDTH_LIMIT = 512  # beyond this the flat per-dimension loop wins


def weighted_mismatch_matrix(space: SearchSpace, X1, X2, weights) -> np.ndarray:
    """sum_i w_i * [x_i != y_i] for every pair of rows.

    All product-form and distance-profile kernels reduce to a function of
    this matrix, which is why one-hot encoding plus a standard continuous
    kernel reproduces them.  Only mismatching dimensions contribute, so a
    floored log-weight of -1e300 (a zero correlation) gives an exact zero
    after ``exp`` and is never cancelled against itself.  Narrow encodings
    go through a single one-hot BLAS product, (Z1 * w) @ (1 - Z2).T; wide
    ones use a per-dimension accumulation whose cost is independent of the
    category counts.
    """
    weights = np.asarray(weights, dtype=float)
    if space.one_hot_width <= _ONE_HOT_WIDTH_LIMIT:
        Z1 = _one_hot_matrix(space, X1)
        Z2 = Z1 if X2 is X1 else _one_hot_matrix(space, X2)
        scale = np.repeat(weights, space.cardinalities)
        return (Z1 * scale) @ (1.0 - Z2).T
    total = np.zeros((X1.shape[0], X2.shape[0]))
    for w, mask in zip(weights, _mismatches(X1, X2)):
        total += w * mask
    return total


def _hamming_matrix(space: SearchSpace, X1, X2) -> np.ndarray:
    """Squared distance h = number of mismatching dimensions, exact integers."""
    return weighted_mismatch_matrix(space, X1, X2, np.ones(space.n))


def _base_matrices(vs, cs, X1, X2):
    """Per-dimension base-kernel matrices, one at a time: v_i on a match, else c_i."""
    return (np.where(mask, c, v) for v, c, mask in zip(vs, cs, _mismatches(X1, X2)))


def _symmetrize(K: np.ndarray) -> np.ndarray:
    """Exact symmetry regardless of BLAS summation order.

    Averaging with the transpose is bit-symmetric because IEEE addition is
    commutative, and costs two passes instead of the triangular mirror's
    mask construction.
    """
    return 0.5 * (K + K.T)


def _logistic(t):
    return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


def _logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def _rho_bounds(space: SearchSpace) -> np.ndarray:
    return np.array([-1.0 / (g - 1.0) for g in space.cardinalities])


def _rho_product(spec: KernelSpec, masks, shape) -> np.ndarray:
    """sigma2 * prod_i (rho_i where the rows differ in dimension i, else 1)."""
    K = np.full(shape, spec.sigma2)
    for rho, mask in zip(np.asarray(spec.params["rhos"], dtype=float), masks):
        K = K * np.where(mask, rho, 1.0)
    return K


# Per-fit kernel terms: built once from (space, spec, X) for one training set,
# then ``gram(spec)`` gives K and ``grad(spec, K, W)`` gives 1/2 <W, dK/dtheta_j>
# for every packed theta_j; with W = alpha alpha^T - (K + noise I)^-1 that is
# the kernel part of the marginal log-likelihood gradient.
#
# Fourth-order central differences for _GramDifferenceTerms.  W = alpha
# alpha^T - (K + noise I)^-1 can reach 1e5 and amplifies the rounding error of
# dK, which shrinks as the step grows; at this step the two-point rule's
# truncation error is already too large for kernels such as ``invariant``.
FD_STEP = 1e-3
_FD_STENCIL = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))


class _GramDifferenceTerms:
    """Central differences of ``gram``: the route for families without a closed form."""

    def __init__(self, space, spec, X):
        self.space, self.X = space, X

    def gram(self, spec):
        return gram(self.space, spec, self.X)

    def grad(self, spec, K, W):
        theta = pack_spec(self.space, spec)
        steps = FD_STEP * np.maximum(1.0, np.abs(theta))
        out = []
        for h, e in zip(steps, np.diag(steps)):
            dK = sum(
                c * self.gram(unpack_spec(self.space, spec, theta + k * e))
                for k, c in _FD_STENCIL
            )
            out.append(0.5 * float(np.sum(W * dK)) / h)
        return np.array(out)


class _LogAffineTerms:
    """heat, combo, casmopolitan: K = sigma2 * exp(w @ D) over exact counts D.

    D holds one row of mismatch counts per weight group (ARD: per dimension;
    otherwise the family's tied groups), counted once.  Its entries are small
    integers, so every summation order gives the same bits and relocating
    categories leaves them unchanged.  w and dw/dtheta are computed once per
    spec, with the family's scalar ``log_weights``.
    """

    def __init__(self, space, spec, X):
        self.space, self.ard, self.m = space, spec.ard, X.shape[0]
        self.family = _FAMILIES[spec.family]
        labels = np.arange(space.n) if spec.ard else self.family.tied_groups(space)
        _, self.first, group = np.unique(labels, return_index=True, return_inverse=True)
        self.D = np.zeros((self.first.size, self.m**2))
        for g, mask in zip(group, _mismatches(X, X)):
            self.D[g] += mask.ravel()
        self._last = (None, None)

    def _weights(self, spec):
        if self._last[0] is not spec:
            self._last = (spec, self.family.log_weights(self.space, spec, self.first))
        return self._last[1]

    def gram(self, spec):
        w, _ = self._weights(spec)
        return spec.sigma2 * np.exp(w @ self.D).reshape(self.m, self.m)

    def grad(self, spec, K, W):
        _, dw = self._weights(spec)
        A = W * K  # dK/dtheta_g = dw_g * K o D_g: one product with the counts
        per_group = 0.5 * dw * (self.D @ A.ravel())
        return np.append(per_group if self.ard else per_group.sum(), 0.5 * A.sum())


class _RhoTerms:
    """rho: one mismatch mask per dimension, taken once per fit."""

    def __init__(self, space, spec, X):
        self.space, self.masks = space, list(_mismatches(X, X))

    def gram(self, spec):
        return _symmetrize(_rho_product(spec, self.masks, self.masks[0].shape))

    def grad(self, spec, K, W):
        rhos = np.asarray(spec.params["rhos"], dtype=float)
        lo = _rho_bounds(self.space)
        s = (rhos - lo) / (1.0 - lo)
        drho_dtheta = (1.0 - lo) * s * (1.0 - s)
        factors = [np.where(mask, r, 1.0) for r, mask in zip(rhos, self.masks)]
        # prefix/suffix products allow rho_i == 0 without 0/0 division
        suffix = [np.ones_like(K)]  # suffix[i]: product of the factors after i
        for f in reversed(factors[1:]):
            suffix.append(suffix[-1] * f)
        suffix.reverse()
        prefix, out = np.ones_like(K), []
        for f, mask, after, c in zip(factors, self.masks, suffix, drho_dtheta):
            leave_one_out = np.where(mask, prefix * after, 0.0)
            out.append(0.5 * c * spec.sigma2 * float(np.sum(W * leave_one_out)))
            prefix = prefix * f
        return np.array(out + [0.5 * float(np.sum(W * K))])


class _ProfileTerms:
    """Distance profiles: f and f' on one Hamming matrix held for the fit."""

    def __init__(self, space, spec, X):
        self.h = _hamming_matrix(space, X, X)
        self.profile_name = _FAMILIES[spec.family].profile_name

    def gram(self, spec):
        return _symmetrize(spec.sigma2 * _profile(self.profile_name, spec.params, self.h))

    def grad(self, spec, K, W):
        dprofile = _profile_grads(self.profile_name, spec.params, self.h)
        return np.array(
            [0.5 * spec.sigma2 * float(np.sum(W * G)) for G in dprofile]
            + [0.5 * float(np.sum(W * K))]
        )


class _LogAffineFamily:
    """K = sigma2 * exp(sum_i w_i [x_i != y_i]), w_i from ``log_weights``.

    ``param`` names the per-dimension parameter (one value without ARD),
    packed as its log, ahead of log sigma2.
    """

    terms = _LogAffineTerms
    positive = True  # else zero is allowed too

    def validate(self, space, spec):
        values = _spread(space, spec.params[self.param])
        if np.any(values < 0) or (self.positive and np.any(values == 0)):
            bound = "> 0" if self.positive else ">= 0"
            raise InvalidInputError(f"{self.param} must be {bound}")
        if spec.sigma2 <= 0:
            raise InvalidInputError("sigma2 must be > 0")
        expected = space.n if spec.ard else 1
        if np.atleast_1d(np.asarray(spec.params[self.param])).size != expected:
            raise InvalidInputError(f"{self.param} count does not match the ard flag")

    def pack(self, space, spec):
        values = np.atleast_1d(np.asarray(spec.params[self.param], dtype=float))
        return np.concatenate([np.log(values), [np.log(spec.sigma2)]])

    def unpack(self, space, spec, theta):
        k = theta.size - 1
        return spec.replace_params(
            **{self.param: np.exp(theta[:k])}, sigma2=float(np.exp(theta[-1]))
        )

    def pairs(self, space, spec, X1, X2):
        w, _ = self.log_weights(space, spec, np.arange(space.n))
        return spec.sigma2 * np.exp(weighted_mismatch_matrix(space, X1, X2, w))


class _HeatFamily(_LogAffineFamily):
    """Diffusion kernel; also covers the normalized per-factor spectral product."""

    name = "heat"
    param = "betas"
    positive = False  # beta = 0 gives rho = 0

    def default_spec(self, space, ard=True):
        betas = np.full(space.n if ard else 1, 1.0 / space.n)
        return KernelSpec(self.name, {"betas": betas, "sigma2": 1.0}, ard)

    def log_weights(self, space, spec, dims):
        """log rho_i and its derivative in the packed log beta_i, for ``dims``."""
        betas = _spread(space, spec.params["betas"])[dims]
        cards = [space.cardinalities[i] for i in dims]
        rhos = np.array([heat_rho(b, g) for b, g in zip(betas, cards)])
        dw = [
            b * _heat_rho_grad(b, g) / r if r > 0 else 0.0
            for b, g, r in zip(betas, cards, rhos)
        ]
        with np.errstate(divide="ignore"):  # rho = 0 (beta = 0): exp(-1e300) = 0
            return np.maximum(np.log(rhos), -1e300), np.array(dw)

    def tied_groups(self, space):
        """Without ARD, rho still depends on g: one weight per cardinality."""
        return space.cardinalities


class _ComboClosedFamily(_HeatFamily):
    """Alias family: identical correlations, but the spectral product needs beta > 0."""

    name = "combo"
    positive = True


class _CasmoFamily(_LogAffineFamily):
    name = "casmopolitan"
    param = "lengthscales"

    def default_spec(self, space, ard=True):
        ells = heat_betas_to_casmo_lengthscales(space, np.full(space.n, 1.0 / space.n))
        if not ard:
            ells = np.array([float(np.mean(ells))])
        return KernelSpec(self.name, {"lengthscales": ells, "sigma2": 1.0}, ard)

    def log_weights(self, space, spec, dims):
        """-l_i / n, which is also its derivative in log l_i, for ``dims``."""
        w = -_spread(space, spec.params["lengthscales"])[dims] / space.n
        return w, w

    def tied_groups(self, space):
        return (0,) * space.n


class _RhoFamily:
    name = "rho"
    terms = _RhoTerms

    def validate(self, space, spec):
        rhos = np.asarray(spec.params["rhos"], dtype=float)
        if rhos.shape != (space.n,):
            raise InvalidInputError(f"need {space.n} correlations")
        _validate_rhos(space, rhos)
        if spec.sigma2 <= 0:
            raise InvalidInputError("sigma2 must be > 0")

    def default_spec(self, space, ard=True):
        rhos = np.array(
            [heat_rho(1.0 / space.n, g) for g in space.cardinalities]
        )
        return KernelSpec(self.name, {"rhos": rhos, "sigma2": 1.0}, True)

    def pairs(self, space, spec, X1, X2):
        """Product of per-dimension factors; correlations may be negative."""
        return _rho_product(spec, _mismatches(X1, X2), (X1.shape[0], X2.shape[0]))

    def pack(self, space, spec):
        rhos = np.asarray(spec.params["rhos"], dtype=float)
        lo = _rho_bounds(space)
        return np.concatenate(
            [_logit((rhos - lo) / (1.0 - lo)), [np.log(spec.sigma2)]]
        )

    def unpack(self, space, spec, theta):
        lo = _rho_bounds(space)
        rhos = lo + (1.0 - lo) * _logistic(theta[:-1])
        return spec.replace_params(rhos=rhos, sigma2=float(np.exp(theta[-1])))


class _ProfileFamily:
    """Shared machinery for the distance-profile kernels.

    ``shape_params`` are the profile's positive parameters, packed as logs in
    this order ahead of log sigma2.
    """

    profile_name: str
    shape_params = ("lengthscale",)
    terms = _ProfileTerms

    def validate(self, space, spec):
        for key in self.shape_params:
            if float(spec.params[key]) <= 0:
                raise InvalidInputError(f"{key} must be > 0")
        if spec.sigma2 <= 0:
            raise InvalidInputError("sigma2 must be > 0")

    def default_spec(self, space, ard=True):
        params = {key: 1.0 for key in self.shape_params}
        params.update(lengthscale=sqrt(space.n), sigma2=1.0)
        return KernelSpec(self.name, params, False)

    def pairs(self, space, spec, X1, X2):
        h = _hamming_matrix(space, X1, X2)
        return spec.sigma2 * _profile(self.profile_name, spec.params, h)

    def pack(self, space, spec):
        logs = [np.log(float(spec.params[key])) for key in self.shape_params]
        return np.array(logs + [np.log(spec.sigma2)])

    def unpack(self, space, spec, theta):
        shape = {key: float(np.exp(t)) for key, t in zip(self.shape_params, theta)}
        return spec.replace_params(**shape, sigma2=float(np.exp(theta[-1])))


class _HammingRbfFamily(_ProfileFamily):
    name = "hamming_rbf"
    profile_name = "rbf"


class _HammingMatern52Family(_ProfileFamily):
    name = "hamming_matern52"
    profile_name = "matern52"


class _HammingRqFamily(_ProfileFamily):
    name = "hamming_rq"
    profile_name = "rq"
    shape_params = ("lengthscale", "alpha")


class _AdditiveBase:
    """Common validation and packing for the compound-symmetry additive families."""

    terms = _GramDifferenceTerms

    def _vs_cs(self, spec):
        return (
            np.asarray(spec.params["vs"], dtype=float),
            np.asarray(spec.params["cs"], dtype=float),
        )

    def validate(self, space, spec):
        vs, cs = self._vs_cs(spec)
        if vs.shape != (space.n,) or cs.shape != (space.n,):
            raise InvalidInputError(f"need {space.n} base-kernel (v, c) pairs")
        if np.any(vs <= 0):
            raise InvalidInputError("base variances must be > 0")
        _validate_rhos(space, cs / vs)

    def pack(self, space, spec):
        vs, cs = self._vs_cs(spec)
        lo = _rho_bounds(space)
        ratio = cs / vs
        return np.concatenate([np.log(vs), _logit((ratio - lo) / (1.0 - lo))])

    def unpack(self, space, spec, theta):
        n = space.n
        vs = np.exp(theta[:n])
        lo = _rho_bounds(space)
        ratio = lo + (1.0 - lo) * _logistic(theta[n : 2 * n])
        return spec.replace_params(vs=vs, cs=vs * ratio)

    def default_base(self, space):
        vs = np.full(space.n, 1.0 / space.n)
        rhos = np.array([heat_rho(1.0 / space.n, g) for g in space.cardinalities])
        return vs, vs * rhos


class _AdditiveSumFamily(_AdditiveBase):
    name = "additive_sum"

    def default_spec(self, space, ard=True):
        vs, cs = self.default_base(space)
        return KernelSpec(self.name, {"vs": vs, "cs": cs}, True)

    def pairs(self, space, spec, X1, X2):
        vs, cs = self._vs_cs(spec)
        return float(np.sum(vs)) - weighted_mismatch_matrix(space, X1, X2, vs - cs)


class _RandomDecompositionFamily(_AdditiveBase):
    name = "random_decomposition"

    def validate(self, space, spec):
        super().validate(space, spec)
        decomp = spec.params["decomposition"]
        if not isinstance(decomp, Decomposition) or not decomp.covers(space.n):
            raise InvalidInputError("decomposition must cover every dimension")

    def default_spec(self, space, ard=True, seed: int = 0):
        vs, cs = self.default_base(space)
        return KernelSpec(
            self.name,
            {"vs": vs, "cs": cs, "decomposition": sample_decomposition(space, seed)},
            True,
        )

    def pairs(self, space, spec, X1, X2):
        vs, cs = self._vs_cs(spec)
        out = np.zeros((X1.shape[0], X2.shape[0]))
        for comp in spec.params["decomposition"].components:
            dims = list(comp)
            term = np.ones(out.shape)
            for base in _base_matrices(vs[dims], cs[dims], X1[:, dims], X2[:, dims]):
                term = term * base
            out += term
        return out


class _ExplainableAdditiveFamily(_AdditiveBase):
    name = "explainable_additive"

    def validate(self, space, spec):
        super().validate(space, spec)
        w = np.asarray(spec.params["degree_weights"], dtype=float)
        if w.shape != (space.n,) or np.any(w < 0):
            raise InvalidInputError("need nonnegative degree weights, one per degree")

    def default_spec(self, space, ard=True):
        vs, cs = self.default_base(space)
        return KernelSpec(
            self.name,
            {"vs": vs, "cs": cs, "degree_weights": np.full(space.n, 1.0 / space.n)},
            True,
        )

    def pairs(self, space, spec, X1, X2):
        vs, cs = self._vs_cs(spec)
        weights = np.asarray(spec.params["degree_weights"], dtype=float)
        shape = (X1.shape[0], X2.shape[0])
        # es[d]: degree-d elementary symmetric polynomial of the bases so far
        es = [np.ones(shape)] + [np.zeros(shape) for _ in range(space.n)]
        for i, base in enumerate(_base_matrices(vs, cs, X1, X2), start=1):
            for d in range(i, 0, -1):
                es[d] += base * es[d - 1]
        return sum(w * e for w, e in zip(weights, es[1:]))

    def pack(self, space, spec):
        w = np.asarray(spec.params["degree_weights"], dtype=float)
        return np.concatenate(
            [super().pack(space, spec), np.log(np.maximum(w, 1e-300))]
        )

    def unpack(self, space, spec, theta):
        base = super().unpack(space, spec, theta)
        return base.replace_params(degree_weights=np.exp(theta[2 * space.n :]))


class _InvariantFamily:
    """Wrapper making an inner family invariant to dimension permutations."""

    name = "invariant"
    terms = _GramDifferenceTerms

    def validate(self, space, spec):
        inner = spec.params["inner"]
        mode = spec.params["mode"]
        if mode not in ("sum", "proj", "padded_proj", "prod"):
            raise InvalidInputError(f"unknown invariance mode {mode!r}")
        if not isinstance(inner, KernelSpec):
            raise InvalidInputError("inner kernel must be a KernelSpec")
        _FAMILIES[inner.family].validate(space, inner)
        if mode == "padded_proj" and inner.family not in (
            "hamming_rbf",
            "hamming_matern52",
            "hamming_rq",
        ):
            raise InvalidInputError("padded projection needs a distance-profile inner")
        if mode in ("sum", "prod") and spec.params.get("samples", 200) is not None:
            if int(spec.params.get("samples", 200)) < 1:
                raise InvalidInputError("need at least one sampled group element")

    def default_spec(self, space, ard=True):
        inner = default_spec(space, "hamming_rbf")
        return KernelSpec(
            self.name,
            {"inner": inner, "mode": "padded_proj", "samples": 200, "seed": 0},
            False,
        )

    def value(self, space, spec, x, y):
        inner = spec.params["inner"]
        mode = spec.params["mode"]
        if mode == "padded_proj":
            params = dict(inner.params)
            params["sigma2"] = inner.sigma2
            profile_name = _FAMILIES[inner.family].profile_name
            return invariant_eval(space, (profile_name, params), mode, x, y)
        inner_fn = lambda a, b: value(space, inner, a, b)
        return invariant_eval(
            space,
            inner_fn,
            mode,
            x,
            y,
            samples=spec.params.get("samples", 200),
            seed=int(spec.params.get("seed", 0)),
        )

    def pack(self, space, spec):
        inner = spec.params["inner"]
        return _FAMILIES[inner.family].pack(space, inner)

    def unpack(self, space, spec, theta):
        inner = spec.params["inner"]
        new_inner = _FAMILIES[inner.family].unpack(space, inner, theta)
        return spec.replace_params(inner=new_inner)


_FAMILIES = {
    fam.name: fam
    for fam in [
        _HeatFamily(),
        _ComboClosedFamily(),
        _CasmoFamily(),
        _RhoFamily(),
        _HammingRbfFamily(),
        _HammingMatern52Family(),
        _HammingRqFamily(),
        _AdditiveSumFamily(),
        _RandomDecompositionFamily(),
        _ExplainableAdditiveFamily(),
        _InvariantFamily(),
    ]
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


def default_spec(space: SearchSpace, family: str, ard: bool = True, **overrides) -> KernelSpec:
    if family not in _FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}")
    spec = _FAMILIES[family].default_spec(space, ard)
    if overrides:
        spec = spec.replace_params(**overrides)
    _FAMILIES[family].validate(space, spec)
    return spec


def validate_spec(space: SearchSpace, spec: KernelSpec) -> None:
    _FAMILIES[spec.family].validate(space, spec)


def value(space: SearchSpace, spec: KernelSpec, x, y) -> float:
    """Single kernel evaluation; the Gram builders are preferred in bulk."""
    return float(cross_gram(space, spec, [x], [y])[0, 0])


def cross_gram(space: SearchSpace, spec: KernelSpec, points1, points2) -> np.ndarray:
    fam = _FAMILIES[spec.family]
    fam.validate(space, spec)
    X1 = space.validate_points(points1)
    X2 = space.validate_points(points2)
    if hasattr(fam, "pairs"):
        return fam.pairs(space, spec, X1, X2)
    out = np.empty((X1.shape[0], X2.shape[0]))
    for a, x in enumerate(X1):
        for b, y in enumerate(X2):
            out[a, b] = fam.value(space, spec, x, y)
    return out


def gram(space: SearchSpace, spec: KernelSpec, points) -> np.ndarray:
    """Pairwise kernel matrix; exactly symmetric by construction."""
    fam = _FAMILIES[spec.family]
    fam.validate(space, spec)
    X = space.validate_points(points)
    if hasattr(fam, "pairs"):
        return _symmetrize(fam.pairs(space, spec, X, X))
    m = X.shape[0]
    out = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            out[a, b] = fam.value(space, spec, X[a], X[b])
            out[b, a] = out[a, b]
    return out


def diag_values(space: SearchSpace, spec: KernelSpec, points) -> np.ndarray:
    """k(x, x) per point; one constant for every match-based family."""
    X = space.validate_points(points)
    fam = _FAMILIES[spec.family]
    if hasattr(fam, "pairs"):
        origin = np.zeros((1, space.n), dtype=int)
        return np.full(X.shape[0], float(fam.pairs(space, spec, origin, origin)[0, 0]))
    return np.array([fam.value(space, spec, x, x) for x in X])


# Internal hooks for the GP fitter: packing and the per-fit kernel terms.


def fit_terms(space: SearchSpace, spec: KernelSpec, points):
    """Kernel terms for one training set: ``gram(spec)`` and ``grad(spec, K, W)``.

    ``spec`` fixes the family and its structure (ARD, decomposition, inner
    kernel); later calls may pass any spec of that structure.
    """
    X = space.validate_points(points)
    return _FAMILIES[spec.family].terms(space, spec, X)


def pack_spec(space: SearchSpace, spec: KernelSpec) -> np.ndarray:
    return np.asarray(_FAMILIES[spec.family].pack(space, spec), dtype=float)


def unpack_spec(space: SearchSpace, spec: KernelSpec, theta: np.ndarray) -> KernelSpec:
    return _FAMILIES[spec.family].unpack(space, spec, np.asarray(theta, dtype=float))
