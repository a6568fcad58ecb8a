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

Every family has one kernel arithmetic: ``encode(space, spec, X1, X2)``
holds what its Gram needs about two point sets and ``kernel(spec, enc)``
returns the matrix.  ``gram``, ``cross_gram``, ``value``, ``diag_values``
and the GP fitter's ``fit_terms`` all go through that pair, so the fit's K
is bit for bit ``gram``.  heat, combo and casmopolitan are ``sigma2 * exp``
of an exact weighted mismatch count (one-hot products, weights on one
binary grid), the distance profiles functions of the exact Hamming matrix,
and ``additive_sum`` affine in a weighted one-hot product; the other
families take one mismatch mask per dimension.  ``fit_terms(space, spec,
X)`` encodes a training set once, for the GP's fit and predictions alike:
its ``grad(spec, K, W)`` gives 1/2 <W, dK/dtheta_j> in closed form where
the family has one, else by central differences, and its ``cross_gram(spec,
X1)`` gives ``cross_gram``'s bits, the log-affine families encoding only
X1's one-hot block.  The scalar ``*_eval`` functions are independent oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import exp, frexp, log, sqrt
from types import SimpleNamespace

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
    _validate_rhos(space, rhos)
    x = space.validate_point(x)
    y = space.validate_point(y)
    value = sigma2
    for i in range(space.n):
        if x[i] != y[i]:
            value *= rhos[i]
    return value


def _validate_rhos(space: SearchSpace, rhos: np.ndarray) -> None:
    if rhos.shape != (space.n,):
        raise InvalidInputError(f"need {space.n} correlations")
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


def _validate_base(space: SearchSpace, vs: np.ndarray, cs: np.ndarray) -> None:
    if vs.shape != (space.n,) or cs.shape != (space.n,):
        raise InvalidInputError(f"need {space.n} base-kernel (v, c) pairs")
    if np.any(vs <= 0):
        raise InvalidInputError("base variances must be > 0")
    _validate_rhos(space, cs / vs)


def _validate_degree_weights(space: SearchSpace, weights: np.ndarray) -> None:
    if weights.shape != (space.n,) or np.any(weights < 0):
        raise InvalidInputError("need nonnegative degree weights, one per degree")


def _base_values(space: SearchSpace, vs, cs, x, y) -> np.ndarray:
    vs = np.asarray(vs, dtype=float)
    cs = np.asarray(cs, dtype=float)
    _validate_base(space, vs, cs)
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
    _validate_degree_weights(space, weights)
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


def _one_hot(space: SearchSpace, X) -> np.ndarray:
    """One one-hot block per dimension, shape (m, sum g_i)."""
    offsets = np.concatenate([[0], np.cumsum(space.cardinalities)[:-1]])
    Z = np.zeros((X.shape[0], space.one_hot_width))
    Z[np.arange(X.shape[0])[:, None], X + offsets] = 1.0
    return Z


def _one_hot_pair(space: SearchSpace, X1, X2) -> SimpleNamespace:
    """Z1 and 1 - Z2: the two sides of ``_weighted_mismatches``."""
    Z1 = _one_hot(space, X1)
    return SimpleNamespace(
        cards=space.cardinalities, Z1=Z1, Z2c=1.0 - (Z1 if X2 is X1 else _one_hot(space, X2))
    )


def _weighted_mismatches(pair: SimpleNamespace, weights) -> np.ndarray:
    """sum_i w_i [x_i != y_i] for every pair of rows, as (Z1 * w) @ (1 - Z2).T.

    Only mismatches contribute, so a floored log-weight of -1e300 (a zero
    correlation) is never cancelled against itself and exp gives exactly 0.
    """
    return (pair.Z1 * np.repeat(weights, pair.cards)) @ pair.Z2c.T


def mismatch_counts(space: SearchSpace, X1, X2, groups) -> np.ndarray:
    """Exact mismatch counts per weight group, shape (G, m1, m2).

    ``groups`` labels each dimension, and groups come in sorted label order.
    Entry [g, a, b] is Z1_g (1 - Z2_g)^T over group g's one-hot columns: at
    most n products of 0 and 1, exact in any summation order and unchanged
    when categories are relocated.
    """
    pair, columns = _one_hot_pair(space, X1, X2), np.repeat(groups, space.cardinalities)
    return np.stack([
        pair.Z1[:, columns == g] @ pair.Z2c[:, columns == g].T for g in sorted(set(groups))
    ])


def _dyadic(w: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``w`` rounded onto one binary grid on which every sum of its entries is exact.

    ``sizes`` counts the dimensions that share each weight.  With 2**e above
    sum sizes * |w|, adding and removing C = 3 * 2**e rounds each weight to
    a multiple of 2**(e - 51), by at most 2**-51 times the sum; every partial
    sum is then a multiple below 2**53 steps.  So a one-hot product gives the
    same bits whatever its BLAS summation order, which follows the column
    positions that relocating categories permutes.  Floored weights (-1e300)
    pass unchanged, and exp of any sum holding one is 0.
    """
    C = 3.0 * 2.0 ** frexp(_grid_total(w, sizes))[1]
    return (w + C) - C


def _grid_total(w: np.ndarray, sizes: np.ndarray) -> float:
    """sum sizes * |w| over the weights above the floor, added left to right.

    A scalar loop: for the few weights of a spec it is faster than a numpy
    reduction, and unlike ``sum`` (compensated for floats from Python 3.12
    on) it fixes the order.
    """
    total = 0.0
    for x, k in zip(w.tolist(), sizes.tolist()):
        if x > -1e300:
            total += abs(x) * k
    return total


def _scaled_exp(exponent: np.ndarray, sigma2: float) -> np.ndarray:
    """sigma2 * exp(exponent), in place: no fresh pages for a large Gram."""
    np.exp(exponent, out=exponent)
    return np.multiply(exponent, sigma2, out=exponent)


def _symmetrize(K: np.ndarray) -> np.ndarray:
    """Exact symmetry regardless of BLAS summation order.

    Averaging with the transpose is bit-symmetric because IEEE addition is
    commutative, and costs two passes instead of the triangular mirror's
    mask construction.
    """
    S = K + K.T
    return np.multiply(S, 0.5, out=S)


def _logistic(t):
    return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


def _logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def _rho_bounds(space: SearchSpace) -> np.ndarray:
    return np.array([-1.0 / (g - 1.0) for g in space.cardinalities])


def _base_matrices(vs, cs, masks):
    """Per-dimension base-kernel matrices, one at a time: v_i on a match, else c_i."""
    return (np.where(mask, c, v) for v, c, mask in zip(vs, cs, masks))


class _Family:
    """``encode`` reads only a spec's structure; ``kernel``, ``grad`` any spec of it."""

    grad = None  # without one, _FitTerms takes differences of the kernel

    def cross(self, space, spec, X1, X2, enc):
        """k(X1, X2), given ``enc``, X2's encoding against itself: bit for bit
        ``kernel`` of the pair's own encoding."""
        return self.kernel(spec, self.encode(space, spec, X1, X2))

    def encode(self, space, spec, X1, X2):
        """One boolean (m1, m2) mask per dimension, in order: do the rows differ there."""
        masks = [c1[:, None] != c2[None, :] for c1, c2 in zip(X1.T, X2.T)]
        return SimpleNamespace(space=space, masks=masks)

    def diag(self, space, spec, X):
        """k(x, x) per point: one constant for every match-based family, and
        sigma2 (no mismatch, exactly) for each family that has one."""
        if "sigma2" in spec.params:
            return np.full(X.shape[0], spec.sigma2)
        value = self.kernel(spec, self.encode(space, spec, X[:1], X[:1]))[0, 0]
        return np.full(X.shape[0], float(value))


class _LogAffineFamily(_Family):
    """K = sigma2 * exp(sum_i w_i [x_i != y_i]), w_i from ``log_weights``.

    ``param`` names the per-dimension parameter (one value without ARD),
    packed as its log, ahead of log sigma2.  On one ``_dyadic`` grid the
    exponent is exact, as the weights' one-hot product or, once a gradient
    has counted the mismatches per weight group, as sum_g w_g D_g.  So fit,
    predict, relocated inputs and tied ARD values all give the same bits.
    The fit asks for K and then its gradient: weights once per spec.
    """

    positive = True  # else zero is allowed too

    def validate(self, space, spec):
        values = _spread(space, spec.params[self.param])
        if np.any(values < 0) or (self.positive and np.any(values == 0)):
            bound = "> 0" if self.positive else ">= 0"
            raise InvalidInputError(f"{self.param} must be {bound}")
        expected = space.n if spec.ard else 1
        if np.atleast_1d(np.asarray(spec.params[self.param])).size != expected:
            raise InvalidInputError(f"{self.param} count does not match the ard flag")

    def pack(self, space, spec):
        values = np.atleast_1d(np.asarray(spec.params[self.param], dtype=float))
        return np.concatenate([np.log(values), [np.log(spec.sigma2)]])

    def unpack(self, space, spec, theta):
        k = theta.size - 1
        params = {**spec.params, self.param: np.exp(theta[:k])}
        params["sigma2"] = float(np.exp(theta[-1]))
        return KernelSpec(spec.family, params, spec.ard)

    def encode(self, space, spec, X1, X2):
        groups = np.arange(space.n) if spec.ard else self.tied_groups(space)
        _, first, inverse, sizes = np.unique(  # sorted, as mismatch_counts orders them
            groups, return_index=True, return_inverse=True, return_counts=True
        )
        return SimpleNamespace(
            space=space, ard=spec.ard, points=(X1, X2), first=first, inverse=inverse,
            sizes=sizes, pair=_one_hot_pair(space, X1, X2), counts=None, last=(None, None),
        )

    def _weights(self, spec, enc):
        if enc.last[0] is not spec:
            enc.last = (spec, self.log_weights(enc.space, spec, enc.first))
        return enc.last[1]

    def kernel(self, spec, enc):
        w, _ = self._weights(spec, enc)
        w = _dyadic(w, enc.sizes)
        # exact on the dyadic grid, so the counts a gradient caches give the same bits
        if enc.counts is None:
            exponent = _weighted_mismatches(enc.pair, w[enc.inverse])
        else:
            exponent = (w @ enc.counts).reshape(len(enc.pair.Z1), -1)
        return _scaled_exp(exponent, spec.sigma2)

    def cross(self, space, spec, X1, X2, enc):
        """Only X1's one-hot block is new: 1 - Z2 and the weights are ``enc``'s."""
        w = _dyadic(self._weights(spec, enc)[0], enc.sizes)
        pair = SimpleNamespace(
            cards=space.cardinalities, Z1=_one_hot(space, X1), Z2c=enc.pair.Z2c
        )
        return _scaled_exp(_weighted_mismatches(pair, w[enc.inverse]), spec.sigma2)

    def grad(self, spec, enc, K, W):
        _, dw = self._weights(spec, enc)
        if enc.counts is None:
            D = mismatch_counts(enc.space, *enc.points, enc.inverse)
            enc.counts = D.reshape(len(D), -1)
        A = W * K  # dK/dtheta_g = dw_g * K o D_g: one product with the counts
        per_group = 0.5 * dw * (enc.counts @ A.ravel())
        kernel_part = per_group.tolist() if enc.ard else [float(per_group.sum())]
        return kernel_part + [float(0.5 * A.sum())]


class _HeatFamily(_LogAffineFamily):
    """Diffusion kernel; also covers the normalized per-factor spectral product."""

    name = "heat"
    param = "betas"
    positive = False  # beta = 0 gives rho = 0

    def default_spec(self, space, ard=True):
        betas = np.full(space.n if ard else 1, 1.0 / space.n)
        return KernelSpec(self.name, {"betas": betas, "sigma2": 1.0}, ard)

    def log_weights(self, space, spec, dims):
        """log rho_i and its derivative in the packed log beta_i, for ``dims``.

        One scalar exp(-beta_i g_i) per dimension serves both: rho_i as in
        ``heat_rho`` and d rho_i / d beta_i = g_i^2 e / (1 + (g_i - 1) e)^2.
        """
        rhos, dw, betas = [], [], np.asarray(spec.params["betas"]).ravel().tolist()
        for i in dims.tolist():
            b = betas[i] if spec.ard else betas[0]
            if b < 0:
                raise InvalidInputError(f"beta must be >= 0, got {b}")
            g = space.cardinalities[i]
            e = exp(-b * g)
            d = 1.0 + (g - 1.0) * e
            r = (1.0 - e) / d
            rhos.append(r)
            dw.append(b * ((g * g * e) / d**2) / r if r > 0 else 0.0)
        if 0.0 not in rhos:  # a positive rho is at least 2**-53 / g: no floor needed
            return np.log(rhos), np.array(dw)
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
        # dims: every dimension with ARD, else [0] for the one value
        w = -np.asarray(spec.params["lengthscales"]).ravel()[dims] / space.n
        return w, w

    def tied_groups(self, space):
        return (0,) * space.n


class _RhoFamily(_Family):
    """Product of per-dimension factors; correlations may be negative."""

    name = "rho"

    def validate(self, space, spec):
        _validate_rhos(space, np.asarray(spec.params["rhos"], dtype=float))

    def default_spec(self, space, ard=True):
        rhos = np.array(
            [heat_rho(1.0 / space.n, g) for g in space.cardinalities]
        )
        return KernelSpec(self.name, {"rhos": rhos, "sigma2": 1.0}, True)

    def kernel(self, spec, enc):
        """sigma2 * prod_i (rho_i where the rows differ in dimension i, else 1)."""
        K = np.full(enc.masks[0].shape, spec.sigma2)
        for rho, mask in zip(np.asarray(spec.params["rhos"], dtype=float), enc.masks):
            K = K * np.where(mask, rho, 1.0)
        return K

    def grad(self, spec, enc, K, W):
        rhos = np.asarray(spec.params["rhos"], dtype=float)
        lo = _rho_bounds(enc.space)
        s = (rhos - lo) / (1.0 - lo)
        drho_dtheta = (1.0 - lo) * s * (1.0 - s)
        factors = [np.where(mask, r, 1.0) for r, mask in zip(rhos, enc.masks)]
        # prefix/suffix products allow rho_i == 0 without 0/0 division
        suffix = [np.ones_like(K)]  # suffix[i]: product of the factors after i
        for f in reversed(factors[1:]):
            suffix.append(suffix[-1] * f)
        suffix.reverse()
        prefix, out = np.ones_like(K), []
        for f, mask, after, c in zip(factors, enc.masks, suffix, drho_dtheta):
            leave_one_out = np.where(mask, prefix * after, 0.0)
            out.append(0.5 * c * spec.sigma2 * float(np.sum(W * leave_one_out)))
            prefix = prefix * f
        return np.array(out + [0.5 * float(np.sum(W * K))]).tolist()

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


class _ProfileFamily(_Family):
    """Shared machinery for the distance-profile kernels.

    ``shape_params`` are the profile's positive parameters, packed as logs in
    this order ahead of log sigma2.  The encoding is the exact Hamming
    matrix h, and the gradient is f' on it.
    """

    profile_name: str
    shape_params = ("lengthscale",)

    def validate(self, space, spec):
        for key in self.shape_params:
            if float(spec.params[key]) <= 0:
                raise InvalidInputError(f"{key} must be > 0")

    def default_spec(self, space, ard=True):
        params = {key: 1.0 for key in self.shape_params}
        params.update(lengthscale=sqrt(space.n), sigma2=1.0)
        return KernelSpec(self.name, params, False)

    def encode(self, space, spec, X1, X2):
        return mismatch_counts(space, X1, X2, np.zeros(space.n))[0]

    def kernel(self, spec, h):
        return spec.sigma2 * _profile(self.profile_name, spec.params, h)

    def grad(self, spec, h, K, W):
        dprofile = _profile_grads(self.profile_name, spec.params, h)
        return [0.5 * spec.sigma2 * float(np.sum(W * G)) for G in dprofile] + [
            0.5 * float(np.sum(W * K))
        ]

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


class _AdditiveBase(_Family):
    """Common validation, packing and mask encoding for the additive families."""

    def _vs_cs(self, spec):
        return (
            np.asarray(spec.params["vs"], dtype=float),
            np.asarray(spec.params["cs"], dtype=float),
        )

    def validate(self, space, spec):
        _validate_base(space, *self._vs_cs(spec))

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

    def encode(self, space, spec, X1, X2):
        return _one_hot_pair(space, X1, X2)

    def kernel(self, spec, pair):
        vs, cs = self._vs_cs(spec)
        return float(np.sum(vs)) - _weighted_mismatches(pair, vs - cs)


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

    def kernel(self, spec, enc):
        vs, cs = self._vs_cs(spec)
        out = np.zeros(enc.masks[0].shape)
        for comp in spec.params["decomposition"].components:
            dims = list(comp)
            term = np.ones(out.shape)
            for base in _base_matrices(vs[dims], cs[dims], [enc.masks[i] for i in dims]):
                term = term * base
            out += term
        return out


class _ExplainableAdditiveFamily(_AdditiveBase):
    name = "explainable_additive"

    def validate(self, space, spec):
        super().validate(space, spec)
        _validate_degree_weights(space, np.asarray(spec.params["degree_weights"], dtype=float))

    def default_spec(self, space, ard=True):
        vs, cs = self.default_base(space)
        return KernelSpec(
            self.name,
            {"vs": vs, "cs": cs, "degree_weights": np.full(space.n, 1.0 / space.n)},
            True,
        )

    def kernel(self, spec, enc):
        vs, cs = self._vs_cs(spec)
        weights = np.asarray(spec.params["degree_weights"], dtype=float)
        shape = enc.masks[0].shape
        # es[d]: degree-d elementary symmetric polynomial of the bases so far
        es = [np.ones(shape)] + [np.zeros(shape) for _ in range(vs.size)]
        for i, base in enumerate(_base_matrices(vs, cs, enc.masks), start=1):
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


class _InvariantFamily(_Family):
    """Wrapper making an inner family invariant to dimension permutations.

    The encoding is the padded-encoding distance (``padded_proj``), the
    inner family's encoding of the sorted rows (``proj``), or the rows under
    each of the S sampled permutations (``sum``, ``prod``), which the kernel
    encodes for the inner family one permutation of X1 at a time: S m1 m2
    inner entries at once rather than S^2 m1 m2.
    """

    name = "invariant"

    def validate(self, space, spec):
        inner = spec.params["inner"]
        mode = spec.params["mode"]
        if mode not in ("sum", "proj", "padded_proj", "prod"):
            raise InvalidInputError(f"unknown invariance mode {mode!r}")
        if not isinstance(inner, KernelSpec):
            raise InvalidInputError("inner kernel must be a KernelSpec")
        validate_spec(space, inner)
        if mode == "padded_proj" and not isinstance(_FAMILIES[inner.family], _ProfileFamily):
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

    def encode(self, space, spec, X1, X2):
        inner, mode = spec.params["inner"], spec.params["mode"]
        if mode == "padded_proj":  # the inner profile's Hamming matrix, padded
            g = _require_equal_alphabet(space)
            C1, C2 = (np.stack([np.sum(X == c, axis=1) for c in range(g)]) for X in (X1, X2))
            h = sum(np.abs(c1[:, None] - c2[None, :]) for c1, c2 in zip(C1, C2))
            return h.astype(float)
        if mode == "proj":
            rows = [space.validate_points(np.sort(X, axis=1)) for X in (X1, X2)]
            return _FAMILIES[inner.family].encode(space, inner, *rows)
        perms = _dimension_permutations(
            space.n, spec.params.get("samples", 200), int(spec.params.get("seed", 0))
        )
        return SimpleNamespace(
            space=space, rows1=[space.validate_points(X1[:, p]) for p in perms],
            rows2=space.validate_points(np.concatenate([X2[:, q] for q in perms])),
        )

    def kernel(self, spec, enc):
        inner, mode = spec.params["inner"], spec.params["mode"]
        family = _FAMILIES[inner.family]
        if mode not in ("sum", "prod"):
            return family.kernel(inner, enc)
        reduce, S = (np.mean if mode == "sum" else np.prod), len(enc.rows1)
        return reduce([  # block p: (x under p, y under each q, y)
            reduce(family.kernel(inner, family.encode(enc.space, inner, R, enc.rows2))
                   .reshape(len(R), S, -1), axis=1)
            for R in enc.rows1
        ], axis=0)

    def diag(self, space, spec, X):
        """k(x, x) depends on x here: one value per point."""
        return np.array([value(space, spec, x, x) for x in X])

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
    validate_spec(space, spec)
    return spec


def validate_spec(space: SearchSpace, spec: KernelSpec) -> None:
    """The family's own checks, after two shared by every family: each numeric
    hyperparameter is finite, and sigma2, where given, is positive."""
    for key, value in spec.params.items():
        values = np.asarray(value)
        if values.dtype.kind in "biuf" and not np.isfinite(values).all():
            raise InvalidInputError(f"{key} must be finite, got {value!r}")
    if spec.sigma2 <= 0:
        raise InvalidInputError("sigma2 must be > 0")
    _FAMILIES[spec.family].validate(space, spec)


def value(space: SearchSpace, spec: KernelSpec, x, y) -> float:
    """Single kernel evaluation; the Gram builders are preferred in bulk."""
    return float(cross_gram(space, spec, [x], [y])[0, 0])


def cross_gram(space: SearchSpace, spec: KernelSpec, points1, points2) -> np.ndarray:
    fam = _FAMILIES[spec.family]
    validate_spec(space, spec)
    X1 = space.validate_points(points1)
    X2 = space.validate_points(points2)
    return fam.kernel(spec, fam.encode(space, spec, X1, X2))


def gram(space: SearchSpace, spec: KernelSpec, points) -> np.ndarray:
    """Pairwise kernel matrix; exactly symmetric by construction."""
    fam = _FAMILIES[spec.family]
    validate_spec(space, spec)
    X = space.validate_points(points)
    return _symmetrize(fam.kernel(spec, fam.encode(space, spec, X, X)))


def diag_values(space: SearchSpace, spec: KernelSpec, points) -> np.ndarray:
    """k(x, x) per point."""
    X = space.validate_points(points)
    return _FAMILIES[spec.family].diag(space, spec, X)


# Internal hooks for the GP: packing and the per-training-set kernel terms.
#
# Fourth-order central differences for families without ``grad``.  W = alpha
# alpha^T - (K + noise I)^-1 can reach 1e5 and amplifies the rounding error of
# dK, which shrinks as the step grows; at this step the two-point rule's
# truncation error is already too large for kernels such as ``invariant``.
FD_STEP = 1e-3
_FD_STENCIL = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))


class _FitTerms:
    """One training set's encoding, built once, and its family's arithmetic on it.

    ``gram(spec)`` is K, bit for bit what ``kernels.gram`` returns, and
    ``grad(spec, K, W)`` is 1/2 <W, dK/dtheta_j> for every packed theta_j;
    with W = alpha alpha^T - (K + noise I)^-1 that is the kernel part of the
    marginal log-likelihood gradient.  For validated rows X1, ``cross_gram``
    and ``diag`` are ``cross_gram(space, spec, X1, X)`` and ``diag_values``.
    """

    def __init__(self, space, spec, X):
        self.space, self.family, self.X = space, _FAMILIES[spec.family], X
        self.enc = self.family.encode(space, spec, X, X)

    def gram(self, spec):
        return _symmetrize(self.family.kernel(spec, self.enc))

    def cross_gram(self, spec, X1):
        return self.family.cross(self.space, spec, X1, self.X, self.enc)

    def diag(self, spec, X1):
        return self.family.diag(self.space, spec, X1)

    def grad(self, spec, K, W):
        if self.family.grad is not None:
            return self.family.grad(spec, self.enc, K, W)
        theta = pack_spec(self.space, spec)
        steps = FD_STEP * np.maximum(1.0, np.abs(theta))
        out = []
        for h, e in zip(steps, np.diag(steps)):
            dK = sum(
                c * self.gram(unpack_spec(self.space, spec, theta + k * e))
                for k, c in _FD_STENCIL
            )
            out.append(0.5 * float(np.sum(W * dK)) / h)
        return np.array(out).tolist()


def fit_terms(space: SearchSpace, spec: KernelSpec, points) -> _FitTerms:
    """Kernel terms for one training set; ``spec`` fixes only the structure."""
    return _FitTerms(space, spec, space.validate_points(points))


def pack_spec(space: SearchSpace, spec: KernelSpec) -> np.ndarray:
    return np.asarray(_FAMILIES[spec.family].pack(space, spec), dtype=float)


def unpack_spec(space: SearchSpace, spec: KernelSpec, theta: np.ndarray) -> KernelSpec:
    return _FAMILIES[spec.family].unpack(space, spec, np.asarray(theta, dtype=float))
