"""Gaussian-process surrogate with exact inference and gradient-based MLE.

Targets are standardized with the mean and standard deviation of all
observed values and transformed back at prediction.  Hyperparameters are
fitted by maximizing the marginal log-likelihood in an unconstrained
parameterization (log for positive parameters, scaled logistic for bounded
correlations).

Every family takes one route.  ``fit`` encodes the training set once
(``kernels.fit_terms``); every start, each unpacked through ``spec``, and
the returned state share those terms, and K is ``terms.gram``: the family's
exact kernel, bit for bit ``kernels.gram`` and ``kernels.cross_gram(X, X)``,
so exactly symmetric.  Each evaluation factors K + noise I once and,
for the gradient, takes K^-1 from the Cholesky factor (LAPACK potri), forms
W = alpha alpha^T - K^-1 and asks ``terms.grad`` for 1/2 <W, dK/dtheta_j>;
with the noise term 1/2 tr(W) noise appended, that is one float array.

The optimizer follows ``spec.ard``, and both take the same evaluation: the
MLL, and a function that returns its gradient.  An ARD spec runs Adam, with
the fixed constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``,
from both starts, cold and warm, for the full step count.  A non-ARD spec,
a handful of parameters, runs L-BFGS from the warm start alone when there
is one: the two-loop recursion, Armijo backtracking by halving and a box on
the packed coordinates, stopped once its MLL stalls.  It takes the gradient
only at the trials it accepts; a rejected trial costs one factorization and
no potri, as does Adam's last iterate.  This is the optimizer BoTorch's
``fit_gpytorch_mll`` uses for the GP marginal likelihood (Balandat et al.,
NeurIPS 2020, through scipy's L-BFGS-B); it is written here in numpy,
because importing ``scipy.optimize`` would add about 17 MB of resident
memory and 0.1-0.2 s to every process.  On ARD specs L-BFGS reached a
lower MLL than Adam on many training sets, so they keep Adam.

The linear algebra calls LAPACK directly through this module's own
``cholesky``, ``cho_solve`` and ``solve_triangular``, without scipy.linalg's
per-call checks and copies, or its import (``heatbo._scipy`` loads the file
of ``scipy.linalg._flapack``).  An evaluation copies the exactly symmetric K
once and dpotrf factors the F-ordered transpose in place, the noise on its
diagonal; only a jitter level above zero takes another copy.  The bits are
those of K + noise I + jitter I.  W takes potri's triangle, then its mirror.

Predictions take the same arithmetic.  ``posterior(state)`` validates the
spec once and returns ``predict`` for validated rows, which ``predict_batch``
and every GA batch of ``bo.suggest`` call.  Its k(X, X_train) is bit for bit
``kernels.cross_gram``; heat, combo and casmopolitan take it as the rows'
one-hot block times the weighted training side kept for the last spec.  No
row is deduplicated: gemv can round its mean differently in another batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf, isfinite, log, pi

import numpy as np

from . import kernels
from ._scipy import dpotrf, dpotri, dpotrs, dtrtrs
from .space import InvalidInputError, NumericFailure, SearchSpace

__all__ = [
    "TrainingSet",
    "OptimizerConfig",
    "GpState",
    "fit",
    "make_state",
    "posterior",
    "predict_batch",
    "NumericFailure",
]

JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)
# Adam, which fits ARD specs: its moment decay rates and the epsilon of its
# update's denominator (Kingma and Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# L-BFGS, which fits non-ARD specs: the curvature pairs it keeps, the Armijo
# constant of its backtracking, and the box on the packed coordinates (every
# kernel coordinate, then log noise), widened where a start lies outside it.
LBFGS_MEMORY = 10
ARMIJO_C1 = 1e-4
KERNEL_BOX = (-12.0, 8.0)
NOISE_BOX = (log(1e-6), log(10.0))
# An L-BFGS start ends once STALL_ITERATIONS accepted steps in a row have each
# raised its MLL by no more than STALL_NATS_PER_POINT nats per training point.
STALL_ITERATIONS = 3
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
    initial_noise: float = 1e-3
    jitter_ladder = JITTER_LADDER  # not a field: every fit takes JITTER_LADDER

    def __post_init__(self):
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

    K must be exactly symmetric, as every family's kernel is by construction:
    each try takes one contiguous copy of K and factors its transpose, which
    is F-ordered, the layout dpotrf factors in place.  Adding 0.0 off the
    diagonal keeps the bits of adding a scaled identity, -0.0 turned into
    +0.0 included.  Level 0 needs no mean.
    """
    if not (np.isfinite(K).all() and isfinite(noise)):
        raise NumericFailure("covariance has non-finite entries")
    mean_diag = None
    for level in ladder:
        A = np.add(K, 0.0).T
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


def _mll_grad(terms, spec, parts) -> np.ndarray:
    """The gradient at ``_mll_parts``'s result, whose factor it overwrites."""
    _, K, L, alpha, noise = parts
    # potri overwrites L with the lower triangle of K^-1 and keeps its zero
    # upper triangle: it, then its transpose without the diagonal, is K^-1
    K_inv, _ = dpotri(L, lower=1, overwrite_c=1)
    W = np.multiply.outer(alpha, alpha)
    W -= K_inv
    _diagonal(K_inv)[:] = 0.0
    W -= K_inv.T
    # dK/d log noise = noise * I
    return np.array([*terms.grad(spec, K, W), 0.5 * float(W.trace()) * noise])


def _adam_ascent(evaluate, theta: np.ndarray, config: OptimizerConfig):
    """Adam on ``evaluate`` from ``theta``, the packed spec and log noise, for
    ``config.steps`` steps; returns the best iterate seen and its value.
    ``evaluate(x)`` returns the MLL and a function that returns its gradient
    array, which the last iterate does not call.

    A ``NumericFailure`` ends the start with its best iterate so far; it
    propagates only when the start itself cannot be evaluated.
    """
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, config.learning_rate
    value, gradient = evaluate(theta)
    best_theta, best_value = theta, value
    m1 = m2 = np.zeros_like(theta)
    try:
        for t in range(1, config.steps + 1):
            grad = gradient()
            m1 = b1 * m1 + (1 - b1) * grad
            m2 = b2 * m2 + (1 - b2) * (grad * grad)
            theta = theta + lr * (m1 / (1 - b1**t)) / (np.sqrt(m2 / (1 - b2**t)) + eps)
            value, gradient = evaluate(theta)
            if value > best_value:
                best_value, best_theta = value, theta
    except NumericFailure:  # a failed step ends the start
        pass
    return best_theta, best_value


def _two_loop(grad, pairs):
    """The L-BFGS ascent direction H grad, with H the inverse Hessian of -MLL
    that the curvature ``pairs`` (s, y, 1 / y.s) imply, scaled by the newest
    pair's s.y / y.y (Nocedal and Wright, Algorithm 7.4)."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    s, y, rho = pairs[-1]
    q /= rho * (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


def _lbfgs_ascent(evaluate, x: np.ndarray, config: OptimizerConfig, stall_nats: float):
    """L-BFGS on ``evaluate`` from ``x``, the packed spec and log noise,
    inside the box ``KERNEL_BOX`` x ``NOISE_BOX`` widened to hold ``x``;
    returns the last accepted iterate, which is the best, and its value.
    ``evaluate(x)`` returns the MLL and a function that returns its gradient
    array, which is called only at the start and at accepted trials.

    Before any curvature is known the step is the gradient scaled to a
    max-norm of ``config.learning_rate``.  Each trial is clipped to the box,
    and Armijo backtracking halves the step until the MLL rises by at least
    ``ARMIJO_C1`` times the gradient's inner product with the clipped step;
    a ``NumericFailure`` or a non-finite value or gradient at a trial halves
    it too.  ``config.steps`` caps the evaluations after the start's, trials
    included.  The start ends early at ``STALL_ITERATIONS`` stalled steps in
    a row (each gaining at most ``stall_nats``), when no box-feasible
    direction ascends, or when a halved step no longer moves the iterate.
    A ``NumericFailure`` at the start itself propagates.
    """
    k = x.size - 1
    lower = np.minimum(x, [KERNEL_BOX[0]] * k + [NOISE_BOX[0]])
    upper = np.maximum(x, [KERNEL_BOX[1]] * k + [NOISE_BOX[1]])
    value, gradient = evaluate(x)
    grad = gradient()
    pairs = deque(maxlen=LBFGS_MEMORY)
    budget, stalls = config.steps, 0
    while budget > 0 and stalls < STALL_ITERATIONS:
        # a coordinate on the box that the gradient pushes outward stays put
        free = ~(((x <= lower) & (grad < 0)) | ((x >= upper) & (grad > 0)))
        step = _two_loop(grad, pairs) * free if pairs else None
        if step is None or not step @ grad > 0:
            pairs.clear()
            step = grad * free
            norm = np.abs(step).max()
            if not norm > 0:
                break
            step *= config.learning_rate / norm
        while budget > 0:
            trial = np.clip(x + step, lower, upper)
            if (trial == x).all():
                return x, value
            budget -= 1
            try:
                trial_value, gradient = evaluate(trial)
                gain = ARMIJO_C1 * float(grad @ (trial - x))
                if isfinite(trial_value) and trial_value >= value + gain:
                    trial_grad = gradient()
                    if np.isfinite(trial_grad).all():
                        break
            except NumericFailure:
                pass
            step = step * 0.5
        else:
            break
        s, y = trial - x, grad - trial_grad  # y: the change of -MLL's gradient
        if s @ y > 1e-12 * (y @ y):  # a positive curvature, kept
            pairs.append((s, y, 1.0 / (s @ y)))
        stalls = stalls + 1 if trial_value - value <= stall_nats else 0
        x, value, grad = trial, trial_value, trial_grad
    return x, value


def make_state(
    space: SearchSpace,
    train: TrainingSet,
    spec: kernels.KernelSpec,
    noise_variance: float,
    jitter_ladder=JITTER_LADDER,
    *,
    terms: kernels._FitTerms | None = None,
) -> GpState:
    """Assemble a state from explicit hyperparameters without any fitting, on
    the training set's kernel ``terms``, which are built here if not given."""
    if noise_variance <= 0:
        raise InvalidInputError("noise variance must be > 0")
    if len(jitter_ladder) == 0 or not all(0 <= v < inf for v in jitter_ladder):  # NaN fails
        raise InvalidInputError(
            f"need jitter levels, each finite and >= 0, got {jitter_ladder!r}"
        )
    kernels.validate_spec(space, spec)
    if terms is None:
        terms = kernels.fit_terms(space, spec, train.points)
    value, _, L, alpha, _ = _mll_parts(
        terms, spec, log(noise_variance), train.standardized(), jitter_ladder
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
    runs L-BFGS (``_lbfgs_ascent``) from the warm start alone when there is
    one, else from ``spec``.  A ``NumericFailure`` ends an Adam start with
    its best iterate so far and halves an L-BFGS step; when no start could
    be evaluated at all, the fit raises it.
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
    y = train.standardized()
    terms = kernels.fit_terms(space, spec, train.points)

    def evaluate(x):
        cur = kernels.unpack_spec(space, spec, x[:-1])
        parts = _mll_parts(terms, cur, x[-1], y, JITTER_LADDER)
        return parts[0], lambda: _mll_grad(terms, cur, parts)

    stall_nats = STALL_NATS_PER_POINT * train.count
    results = []
    for start, noise in starts:
        theta = np.append(start, log(noise))
        try:
            if spec.ard:
                results.append(_adam_ascent(evaluate, theta, config))
            else:
                results.append(_lbfgs_ascent(evaluate, theta, config, stall_nats))
        except NumericFailure:  # the start itself cannot be factored
            continue
    if not results:
        raise NumericFailure("no start could be evaluated")
    theta_opt, _ = max(results, key=lambda result: result[1])  # the first on a tie
    fitted_spec = kernels.unpack_spec(space, spec, theta_opt[:-1])
    fitted_noise = float(np.exp(theta_opt[-1]))
    return make_state(space, train, fitted_spec, fitted_noise, terms=terms)


def posterior(state: GpState):
    """Validate ``state.spec`` once and return ``predict``: validated int64
    rows to their posterior mean and variance in raw target units."""
    kernels.validate_spec(state.space, state.spec)

    def predict(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k_star = state.terms.cross_gram(state.spec, X)
        mean_std = k_star @ state.weights
        v = solve_triangular(state.chol_lower, k_star.T)
        var_std = state.terms.diag(state.spec, X) - (v * v).sum(axis=0)
        np.maximum(var_std, 0.0, out=var_std)
        return (
            state.train.destandardize_mean(mean_std),
            state.train.destandardize_variance(var_std),
        )

    return predict


def predict_batch(state: GpState, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance in raw target units for each query point."""
    return posterior(state)(state.space.validate_points(points))

