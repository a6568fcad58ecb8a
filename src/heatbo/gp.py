"""Gaussian-process surrogate with exact inference and gradient-based MLE.

Targets are standardized with the mean and standard deviation of all
observed values and transformed back at prediction.  Hyperparameters are
fitted by maximizing the marginal log-likelihood with Adam in an
unconstrained parameterization (log for positive parameters, scaled logistic
for bounded correlations).

Every family takes one route.  ``fit`` encodes the training set once
(``kernels.fit_terms``); every Adam start, each unpacked through ``spec``,
and the returned state share those terms, and K comes from ``terms.gram``,
bit for bit ``kernels.gram``.  An ARD spec runs both starts, cold and warm,
for the full step count.  A non-ARD spec runs the warm start alone when
there is one, and a start stops once its MLL stalls.  Each gradient step
factors K + noise I once, takes K^-1 from the Cholesky factor (LAPACK
potri), forms W = alpha alpha^T - K^-1 and asks ``terms.grad`` for
1/2 <W, dK/dtheta_j>, a list of floats, to which it appends the noise term
1/2 tr(W) noise.  Adam keeps its moments and iterates as Python floats,
with the operations of the elementwise numpy form in the same order; the
numpy-array Adam, frozen in ``tests/test_gp.py``, pins the fitted bits.

The linear algebra calls LAPACK directly through this module's own
``cholesky``, ``cho_solve`` and ``solve_triangular``, without scipy.linalg's
per-call checks and copies.  A step makes one copy of K: the noise goes
onto its diagonal and dpotrf factors it in place; only a jitter level
above zero takes another.  The bits are those of K + noise I + jitter I.

Predictions take the same arithmetic.  ``predict_batch`` asks the state's
terms for ``cross_gram``, which for heat, combo and casmopolitan encodes
only the query rows' one-hot block against the cached training side, and
its k(X, X_train) is bit for bit ``kernels.cross_gram``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, log, pi, sqrt

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from . import kernels
from .space import InvalidInputError, NumericFailure, SearchSpace

__all__ = [
    "TrainingSet",
    "OptimizerConfig",
    "GpState",
    "fit",
    "make_state",
    "mll",
    "predict",
    "predict_batch",
    "NumericFailure",
]

JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)
# A non-ARD start ends once STALL_STEPS consecutive Adam steps have raised its
# best MLL by no more than STALL_NATS_PER_POINT nats per training point in all.
STALL_STEPS = 20
STALL_NATS_PER_POINT = 1e-6


@dataclass(frozen=True)
class TrainingSet:
    """Observed points with raw targets and their standardization statistics."""

    points: np.ndarray  # (m, n) int
    raw_targets: np.ndarray  # (m,)
    mean: float
    std: float

    @classmethod
    def from_observations(cls, space: SearchSpace, points, values) -> "TrainingSet":
        X = space.validate_points(points)
        y = np.asarray(values, dtype=float).ravel()
        if y.shape[0] != X.shape[0]:
            raise InvalidInputError("one target per point required")
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("targets must be finite")
        if y.size < 2:
            # single observation: standardization statistics are undefined
            return cls(X, y, mean=0.0, std=1.0)
        mean = float(np.mean(y))
        std = float(np.std(y))
        if std == 0.0:
            std = 1.0
        return cls(X, y, mean=mean, std=std)

    @property
    def count(self) -> int:
        return int(self.raw_targets.shape[0])

    def standardized(self) -> np.ndarray:
        return (self.raw_targets - self.mean) / self.std

    def destandardize_mean(self, values):
        return self.mean + self.std * np.asarray(values)

    def destandardize_variance(self, values):
        return self.std**2 * np.asarray(values)


@dataclass(frozen=True)
class OptimizerConfig:
    steps: int = 100
    learning_rate: float = 0.03
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    jitter_ladder: tuple = JITTER_LADDER
    initial_noise: float = 1e-3

    def __post_init__(self):
        # Adam divides by 1 - beta**t and by sqrt(m2) + epsilon
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and self.epsilon > 0):
            raise InvalidInputError("Adam needs 0 <= beta1, beta2 < 1 and epsilon > 0")
        if not (0 < self.learning_rate < inf and 0 < self.initial_noise < inf):  # NaN fails
            raise InvalidInputError("need finite learning_rate > 0 and initial_noise > 0")
        if self.steps < 0:
            raise InvalidInputError("need steps >= 0")


@dataclass(frozen=True)
class GpState:
    """Fitted surrogate: spec, noise, training set, factored covariance and the
    training set's kernel terms."""

    space: SearchSpace
    spec: kernels.KernelSpec
    noise_variance: float
    train: TrainingSet
    chol_lower: np.ndarray  # L with L @ L.T = K + noise * I
    weights: np.ndarray  # (K + noise * I)^{-1} y_std
    mll_value: float
    terms: kernels._FitTerms  # the training set's encoding, shared with the fit

    def prior_variance(self) -> float:
        """Prior predictive variance in raw target units."""
        diag = self.terms.diag(self.spec, self.train.points[:1])
        return float(diag[0]) * self.train.std**2


def cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A with a zeroed upper triangle (LAPACK dpotrf).

    An F-ordered A is factored in place.  Raises ``np.linalg.LinAlgError``
    when A is not positive definite.
    """
    L, info = dpotrf(A, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf info {info}: not positive definite")
    return L


# dpotrs and dtrtrs report an error only for an illegal argument or a zero on
# L's diagonal, which a factor from ``cholesky`` never has.
def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b, for L from ``cholesky`` (LAPACK dpotrs)."""
    return dpotrs(L, b, lower=1)[0]


def solve_triangular(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with L X = B, for L from ``cholesky`` (LAPACK dtrtrs)."""
    return dtrtrs(L, B, lower=1)[0]


def _diagonal(A: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C- or F-contiguous square matrix."""
    return A.ravel(order="K")[:: A.shape[0] + 1]


def _chol_with_jitter(K: np.ndarray, ladder, noise: float = 0.0) -> tuple[np.ndarray, float]:
    """Factor of K + noise I + jitter I at the first ladder level that factors,
    and that jitter: the level times the mean of K + noise I's diagonal.

    Each try takes one F-ordered copy of K, the layout dpotrf factors in
    place; adding 0.0 off the diagonal keeps the bits of adding a scaled
    identity.  Level 0 needs no mean.
    """
    if not (np.isfinite(K).all() and isfinite(noise)):
        raise NumericFailure("covariance has non-finite entries")
    mean_diag = None
    for level in ladder:
        A = np.add(K, 0.0, order="F")
        diag = _diagonal(A)
        diag += noise
        jitter = 0.0
        if level:
            if mean_diag is None:
                mean_diag = float(np.mean(diag))
            jitter = level * mean_diag
            diag += jitter
        try:
            return cholesky(A), jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericFailure("covariance not factorizable after jitter escalation")


def _mll_parts(terms, spec, log_noise, y, ladder):
    m = y.shape[0]
    K = terms.gram(spec)
    noise = float(np.exp(log_noise))
    L, _ = _chol_with_jitter(K, ladder, noise)
    alpha = cho_solve(L, y)
    value = (
        -0.5 * float(y @ alpha)
        - float(np.log(L.diagonal()).sum())
        - 0.5 * m * log(2.0 * pi)
    )
    return value, K, L, alpha, noise


def _mll_and_grad(terms, spec, log_noise, y, ladder):
    """Marginal log-likelihood and its gradient (a list) in the unconstrained space."""
    value, K, L, alpha, noise = _mll_parts(terms, spec, log_noise, y, ladder)
    # potri overwrites L with the lower triangle of K^-1 and keeps its zero
    # upper triangle: adding the transpose mirrors it, doubling the diagonal
    K_inv, _ = dpotri(L, lower=1, overwrite_c=1)
    S = K_inv + K_inv.T
    _diagonal(S)[:] = _diagonal(K_inv)
    W = np.outer(alpha, alpha)
    W -= S
    grad = terms.grad(spec, K, W)
    grad.append(0.5 * float(W.trace()) * noise)  # dK/d log noise = noise * I
    return value, grad


def _adam_ascent(terms, spec, y, theta: list, config: OptimizerConfig, stall_nats=None):
    """Adam on the MLL from ``theta``, the packed spec and log noise as floats;
    returns the best iterate seen and its value.  Each update is the numpy
    form's elementwise IEEE operations, in order: ``g * g`` as numpy squares,
    not ``g ** 2`` (libm pow).

    With ``stall_nats``, the start ends once ``STALL_STEPS`` consecutive
    steps have raised its best value by no more than that in total;
    ``config.steps`` stays the cap.  A ``NumericFailure`` ends the start
    with its best iterate so far; it propagates only when the start itself
    cannot be evaluated.
    """
    space, ladder = terms.space, config.jitter_ladder
    b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.epsilon
    best_theta, best_value = theta, -inf  # step 1 evaluates the start
    bests = []  # best_value after each evaluation
    m1 = m2 = [0.0] * len(theta)
    try:
        for t in range(1, config.steps + 1):
            x = np.array(theta)
            cur = kernels.unpack_spec(space, spec, x[:-1])
            value, grad = _mll_and_grad(terms, cur, x[-1], y, ladder)
            if value > best_value:
                best_value, best_theta = value, theta
            bests.append(best_value)
            if stall_nats is not None and t > STALL_STEPS:
                if best_value - bests[-1 - STALL_STEPS] <= stall_nats:
                    return best_theta, best_value
            m1 = [b1 * a + (1 - b1) * g for a, g in zip(m1, grad)]
            m2 = [b2 * a + (1 - b2) * (g * g) for a, g in zip(m2, grad)]
            c1, c2 = 1 - b1**t, 1 - b2**t
            theta = [p + lr * (a / c1) / (sqrt(b / c2) + eps) for p, a, b in zip(theta, m1, m2)]
        x = np.array(theta)  # the last iterate needs no gradient
        value = _mll_parts(terms, kernels.unpack_spec(space, spec, x[:-1]), x[-1], y, ladder)[0]
    except NumericFailure:
        if not bests:
            raise
        return best_theta, best_value
    if value > best_value:
        best_value, best_theta = value, theta
    return best_theta, best_value


def make_state(
    space: SearchSpace,
    train: TrainingSet,
    spec: kernels.KernelSpec,
    noise_variance: float,
    jitter_ladder=JITTER_LADDER,
) -> GpState:
    """Assemble a state from explicit hyperparameters without any fitting."""
    return _state(space, train, spec, noise_variance, jitter_ladder)


def _state(space, train, spec, noise_variance, ladder, terms=None) -> GpState:
    """``make_state`` on the training set's ``terms``, built here if not given."""
    if noise_variance <= 0:
        raise InvalidInputError("noise variance must be > 0")
    kernels.validate_spec(space, spec)
    if terms is None:
        terms = kernels.fit_terms(space, spec, train.points)
    value, _, L, alpha, _ = _mll_parts(
        terms, spec, log(noise_variance), train.standardized(), ladder
    )
    return GpState(space, spec, noise_variance, train, L, alpha, value, terms)


def fit(
    space: SearchSpace,
    train: TrainingSet,
    spec: kernels.KernelSpec,
    config: OptimizerConfig = OptimizerConfig(),
    warm_start: kernels.KernelSpec | None = None,
    warm_noise: float | None = None,
) -> GpState:
    """Maximize the marginal log-likelihood; best of the available starts wins.

    Starts from ``spec`` (typically family defaults) and from the previous
    fit's hyperparameters when given, which must share ``spec``'s family,
    ard flag and parameter count.  An ARD spec runs Adam from both starts
    for ``config.steps`` steps each.  A non-ARD spec, a handful of
    parameters that the previous fit already places near their optimum,
    runs from the warm start alone when there is one, and each start stops
    early once its MLL stalls (``STALL_STEPS``, ``STALL_NATS_PER_POINT``).
    A start that hits a ``NumericFailure`` keeps its best iterate so far;
    the fit raises only when no start could be evaluated at all.
    Deterministic: full-batch gradients, no stochasticity anywhere.
    """
    if train.count < 2:
        raise InvalidInputError("need at least 2 training points to fit")
    kernels.validate_spec(space, spec)
    packed = kernels.pack_spec(space, spec)
    starts = []
    if warm_start is None or spec.ard:
        starts.append((packed, config.initial_noise))
    if warm_start is not None:
        warm = kernels.pack_spec(space, warm_start)
        shape = (warm_start.family, warm_start.ard, warm.size)
        if shape != (spec.family, spec.ard, packed.size):
            raise InvalidInputError("warm start differs from spec in family, ard or length")
        starts.append((warm, warm_noise if warm_noise else config.initial_noise))
    stall_nats = None if spec.ard else STALL_NATS_PER_POINT * train.count
    y = train.standardized()
    terms = kernels.fit_terms(space, spec, train.points)
    results = []
    for start, noise in starts:
        theta = [*start.tolist(), log(noise)]
        try:
            results.append(_adam_ascent(terms, spec, y, theta, config, stall_nats))
        except NumericFailure:  # the start itself cannot be factored
            continue
    if not results:
        raise NumericFailure("no start could be evaluated")
    theta_opt, _ = max(results, key=lambda result: result[1])  # the first on a tie
    fitted_spec = kernels.unpack_spec(space, spec, theta_opt[:-1])
    fitted_noise = float(np.exp(theta_opt[-1]))
    return _state(space, train, fitted_spec, fitted_noise, config.jitter_ladder, terms)


def mll(state: GpState) -> float:
    """Marginal log-likelihood of the standardized targets under the state."""
    return state.mll_value


def predict_batch(state: GpState, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance in raw target units for each query point."""
    X = state.space.validate_points(points)
    kernels.validate_spec(state.space, state.spec)
    k_star = state.terms.cross_gram(state.spec, X)
    mean_std = k_star @ state.weights
    v = solve_triangular(state.chol_lower, k_star.T)
    var_std = state.terms.diag(state.spec, X) - np.sum(v**2, axis=0)
    var_std = np.maximum(var_std, 0.0)
    return (
        state.train.destandardize_mean(mean_std),
        state.train.destandardize_variance(var_std),
    )


def predict(state: GpState, point) -> tuple[float, float]:
    means, variances = predict_batch(state, [point])
    return float(means[0]), float(variances[0])
