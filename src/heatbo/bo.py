"""Bayesian-optimization loop: Expected Improvement maximized by a genetic
algorithm inside a Hamming-ball trust region.

Minimization convention throughout.  The surrogate is refitted on the full
(standardized) history every iteration, the acquisition is optimized only
over points within the current trust-region radius of the incumbent, and the
radius doubles after repeated successes and halves after repeated failures,
restarting from a random unobserved center once it collapses.

Category-changing random draws are modular offsets from the current value
((value + u) mod g), and which coordinates change or revert depends only on
where a point differs from the center.  On binary dimensions every stochastic
operator thus commutes with relocations, so entire runs are equivariant:
relocating the objective and the initial design relocates the whole trace.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from math import ceil, sqrt

import numpy as np
from scipy.special import ndtr

from . import gp, kernels
from .space import InvalidInputError, SearchSpace

__all__ = [
    "TrustRegionConfig",
    "TrustRegionState",
    "GaConfig",
    "BoRunState",
    "IterationRecord",
    "TrustRegionExhausted",
    "expected_improvement",
    "ga_optimize",
    "tr_update",
    "new_run",
    "suggest",
    "observe",
    "run_bo",
]

INCUMBENT_TOL = 1e-12
_ENUMERATION_CAP = 4096


class TrustRegionExhausted(RuntimeError):
    """Every point of the current trust region has already been observed."""


# ---------------------------------------------------------------------------
# Acquisition.
# ---------------------------------------------------------------------------


def expected_improvement(mean, variance, best_so_far: float):
    """Expected improvement below ``best_so_far`` under a Gaussian posterior."""
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0):
        raise InvalidInputError("variance must be nonnegative")
    sigma = np.sqrt(variance)
    improve = best_so_far - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
        # the normal CDF/PDF saturate long before this; avoids overflow in z**2
        z = np.clip(z, -38.0, 38.0)
        ei = np.where(
            sigma > 0,
            improve * ndtr(z) + sigma * np.exp(-0.5 * z**2) / sqrt(2.0 * np.pi),
            np.maximum(improve, 0.0),
        )
    return np.maximum(ei, 0.0) if ei.ndim else float(max(ei, 0.0))


# ---------------------------------------------------------------------------
# Trust region.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrustRegionConfig:
    l_init: int
    l_min: int = 1
    l_max: int = 0  # 0 means "dimension count", resolved by new_run
    success_tolerance: int = 3
    failure_tolerance: int = 10

    def __post_init__(self):
        if min(self.l_min, self.success_tolerance, self.failure_tolerance) < 1:
            raise InvalidInputError("need l_min and both tolerances >= 1")

    @classmethod
    def for_space(cls, space: SearchSpace, **overrides) -> "TrustRegionConfig":
        values = dict(l_init=max(ceil(space.n / 4), 1), l_max=space.n)
        values.update(overrides)
        return cls(**values)


@dataclass(frozen=True)
class TrustRegionState:
    center: tuple
    radius: int
    config: TrustRegionConfig
    success_streak: int = 0
    failure_streak: int = 0

    def __post_init__(self):
        if not (self.config.l_min <= self.radius <= self.config.l_max):
            raise InvalidInputError(
                f"radius {self.radius} outside [{self.config.l_min}, {self.config.l_max}]"
            )


def tr_update(tr: TrustRegionState, improved: bool) -> tuple[TrustRegionState, bool]:
    """Streak-based radius schedule; returns (new_state, restart_signal).

    Doubling after ``success_tolerance`` consecutive improvements, halving
    after ``failure_tolerance`` consecutive failures, restart once failures
    accumulate at the minimum radius.
    """
    cfg = tr.config
    if improved:
        succ = tr.success_streak + 1
        if succ >= cfg.success_tolerance:
            return (
                replace(
                    tr,
                    radius=min(2 * tr.radius, cfg.l_max),
                    success_streak=0,
                    failure_streak=0,
                ),
                False,
            )
        return replace(tr, success_streak=succ, failure_streak=0), False
    fail = tr.failure_streak + 1
    if fail >= cfg.failure_tolerance:
        if tr.radius <= cfg.l_min:
            return replace(tr, success_streak=0, failure_streak=0), True
        return (
            replace(
                tr,
                radius=max(tr.radius // 2, cfg.l_min),
                success_streak=0,
                failure_streak=0,
            ),
            False,
        )
    return replace(tr, success_streak=0, failure_streak=fail), False


def ball_size(space: SearchSpace, radius: int) -> int:
    """Number of points within the given Hamming radius of any center."""
    coeffs = np.zeros(space.n + 1, dtype=float)
    coeffs[0] = 1.0
    for g in space.cardinalities:
        coeffs = np.convolve(coeffs, [1.0, g - 1.0])[: space.n + 1]
    return int(round(np.sum(coeffs[: radius + 1])))


def enumerate_ball(space: SearchSpace, center, radius: int):
    """All points within the Hamming ball; call only when ball_size is small."""
    center = np.asarray(center)
    out = [center.copy()]
    for d in range(1, radius + 1):
        for dims in itertools.combinations(range(space.n), d):
            choices = [
                [v for v in range(space.cardinalities[i]) if v != center[i]]
                for i in dims
            ]
            for values in itertools.product(*choices):
                p = center.copy()
                p[list(dims)] = values
                out.append(p.copy())
    return np.array(out)


# ---------------------------------------------------------------------------
# Genetic algorithm inside the trust region.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    generations: int = 20
    tournament_size: int = 3
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # None resolves to 1/n
    elite_count: int = 2

    def __post_init__(self):
        if not (2 <= self.population_size and 0 <= self.elite_count < self.population_size
                and self.tournament_size >= 1 and self.generations >= 0):
            raise InvalidInputError("GA needs population_size >= 2, 0 <= elite_count < "
                                    "population_size, tournament_size >= 1, generations >= 0")
        for prob in (self.crossover_prob, self.mutation_prob):
            if prob is not None and not 0 <= prob <= 1:  # NaN fails too
                raise InvalidInputError(f"GA probabilities must lie in [0, 1], got {prob}")


def _shift(points, mask, cards, rng):
    """Move every masked entry to another category: a modular offset in 1..g-1."""
    rows, cols = np.nonzero(mask)
    g = cards[cols]
    points[rows, cols] = (points[rows, cols] + rng.integers(1, g)) % g
    return points


def _draw_in_ball(center, radius, count, cards, rng):
    """``count`` points inside the ball: each changes a uniform 1..radius of its
    dimensions, those whose uniform keys rank lowest."""
    changes = rng.integers(1, radius + 1, size=(count, 1))
    ranks = rng.random((count, len(center))).argsort(1, kind="stable").argsort(1)
    return _shift(np.repeat(center[None], count, axis=0), ranks < changes, cards, rng)


def _repair_into_ball(points, center, radius, rng):
    """Revert the mismatched coordinates with the lowest uniform keys of every row
    outside the ball, down to ``radius`` mismatches; rows inside take no draws."""
    mismatched = points != center
    excess = np.count_nonzero(mismatched, axis=1) - radius
    over = np.flatnonzero(excess > 0)
    if over.size:
        keys = np.where(mismatched[over], rng.random((over.size, len(center))), np.inf)
        revert = keys.argsort(1, kind="stable").argsort(1) < excess[over, None]
        points[over] = np.where(revert, center, points[over])
    return points


def ga_optimize(
    acq,
    space: SearchSpace,
    tr: TrustRegionState,
    config: GaConfig,
    seed: int,
    exclude: frozenset = frozenset(),
):
    """Maximize a batched acquisition over the trust region.

    ``acq`` maps an (m, n) array of points to m values.  Every candidate is
    kept within the Hamming ball by construction; among all evaluated
    candidates the acquisition-best unobserved point is returned.  Falls
    back to enumeration (and raises ``TrustRegionExhausted``) when the whole
    ball has been observed.  Each call draws from a fresh generator seeded
    with ``seed``, so equal seeds draw alike.
    """
    center = np.asarray(tr.center)
    radius = int(tr.radius)
    rng = np.random.default_rng(seed)
    pm = config.mutation_prob if config.mutation_prob is not None else 1.0 / space.n
    cards = np.asarray(space.cardinalities)

    population = np.vstack(
        [center, _draw_in_ball(center, radius, config.population_size - 1, cards, rng)]
    )

    best_unobserved = None  # (value, point)

    def digest(pop, values):
        """Keep the first acquisition-best unobserved row; a later one must beat
        it.  Only rows that beat the kept one are looked up, best first."""
        nonlocal best_unobserved
        rows = np.arange(len(values))
        if best_unobserved is not None:
            rows = rows[values > best_unobserved[0]]
        for j in rows[np.argsort(-values[rows], kind="stable")].tolist():
            if tuple(pop[j].tolist()) not in exclude:
                best_unobserved = (values[j], pop[j].copy())
                return

    values = np.asarray(acq(population), dtype=float)
    digest(population, values)

    n_children = config.population_size - config.elite_count
    for _ in range(config.generations):
        order = np.argsort(values)[::-1]
        elites = population[order[: config.elite_count]]
        # tournament selection, two parents per child
        idx = rng.integers(
            0, len(population), size=(n_children, 2, config.tournament_size)
        )
        winner_slot = np.argmax(values[idx], axis=2)
        winners = np.take_along_axis(idx, winner_slot[..., None], axis=2)[..., 0]
        p1 = population[winners[:, 0]]
        p2 = population[winners[:, 1]]
        # uniform crossover, falling back to the first parent
        do_cross = rng.random(n_children) < config.crossover_prob
        mask = rng.random((n_children, space.n)) < 0.5
        children = np.where(do_cross[:, None] & mask, p2, p1)
        # per-dimension mutation, then every offspring back into the ball
        children = _shift(children, rng.random((n_children, space.n)) < pm, cards, rng)
        children = _repair_into_ball(children, center, radius, rng)
        population = np.vstack([elites, children])
        values = np.asarray(acq(population), dtype=float)
        digest(population, values)

    if best_unobserved is not None:
        return best_unobserved[1]

    # Every candidate we evaluated was already observed; decide exhaustion.
    if ball_size(space, radius) <= _ENUMERATION_CAP:
        ball = enumerate_ball(space, center, radius)
        fresh = np.array([p not in exclude for p in map(tuple, ball.tolist())])
        if not np.any(fresh):
            raise TrustRegionExhausted(
                f"all {len(ball)} points within radius {radius} observed"
            )
        candidates = ball[fresh]
        vals = np.asarray(acq(candidates), dtype=float)
        return candidates[int(np.argmax(vals))]
    for start in range(0, 10000, config.population_size):
        count = min(config.population_size, 10000 - start)
        for p in map(tuple, _draw_in_ball(center, radius, count, cards, rng).tolist()):
            if p not in exclude:
                return np.array(p)
    raise TrustRegionExhausted("could not sample an unobserved point")


# ---------------------------------------------------------------------------
# Ask-tell driver.
# ---------------------------------------------------------------------------


@dataclass
class BoRunState:
    """Mutable per-run state; confined to a single thread of control."""

    space: SearchSpace
    spec_template: kernels.KernelSpec
    seed: int
    tr: TrustRegionState
    ga_config: GaConfig
    optimizer_config: gp.OptimizerConfig
    points: list = field(default_factory=list)  # list of tuples
    values: list = field(default_factory=list)
    incumbent_index: int | None = None
    iteration: int = 0
    fitted_spec: kernels.KernelSpec | None = None
    fitted_noise: float | None = None
    restart_count: int = 0

    @property
    def incumbent_value(self) -> float:
        return self.values[self.incumbent_index]

    @property
    def incumbent_point(self) -> tuple:
        return self.points[self.incumbent_index]

    def observed_set(self) -> frozenset:
        return frozenset(self.points)

    def history_arrays(self):
        return np.array(self.points, dtype=np.int64), np.array(self.values)


def new_run(
    space: SearchSpace,
    spec: kernels.KernelSpec,
    seed: int,
    tr_config: TrustRegionConfig | None = None,
    ga_config: GaConfig | None = None,
    optimizer_config: gp.OptimizerConfig | None = None,
) -> BoRunState:
    tr_config = tr_config or TrustRegionConfig.for_space(space)
    if tr_config.l_max == 0:  # "dimension count"
        tr_config = replace(tr_config, l_max=space.n)
    placeholder = TrustRegionState(
        center=tuple([0] * space.n), radius=tr_config.l_init, config=tr_config
    )
    return BoRunState(
        space=space,
        spec_template=spec,
        seed=seed,
        tr=placeholder,
        ga_config=ga_config or GaConfig(),
        optimizer_config=optimizer_config or gp.OptimizerConfig(),
    )


def _iteration_rng_seed(run: BoRunState, tag: int) -> list:
    return [run.seed, run.iteration, tag]


def suggest(run: BoRunState) -> np.ndarray:
    """Fit the surrogate on the history and maximize EI inside the trust region."""
    if len(run.points) < 2:
        raise InvalidInputError("need at least 2 observations before suggesting")
    X, y = run.history_arrays()
    train = gp.TrainingSet.from_observations(run.space, X, y)
    state = gp.fit(
        run.space,
        train,
        run.spec_template,
        run.optimizer_config,
        warm_start=run.fitted_spec,
        warm_noise=run.fitted_noise,
    )
    run.fitted_spec = state.spec
    run.fitted_noise = state.noise_variance
    best = run.incumbent_value

    def acq(points):
        means, variances = gp.predict_batch(state, points)
        return expected_improvement(means, variances, best)

    seed = int(np.random.SeedSequence(_iteration_rng_seed(run, 1)).generate_state(1)[0])
    try:
        return ga_optimize(acq, run.space, run.tr, run.ga_config, seed, run.observed_set())
    except TrustRegionExhausted:
        _restart_region(run)
        return ga_optimize(acq, run.space, run.tr, run.ga_config, seed, run.observed_set())


def _restart_region(run: BoRunState) -> None:
    """Re-center on a random unobserved point at the initial radius."""
    rng = np.random.default_rng([run.seed, run.restart_count, 2])
    observed = run.observed_set()
    incumbent = np.asarray(run.incumbent_point)
    cards = run.space.cardinalities
    center = None
    for _ in range(10000):
        offsets = rng.integers(0, cards, size=run.space.n)
        candidate = tuple(
            int((incumbent[i] + offsets[i]) % cards[i]) for i in range(run.space.n)
        )
        if candidate not in observed:
            center = candidate
            break
    if center is None:  # space may be fully observed; keep incumbent center
        center = tuple(int(v) for v in incumbent)
    run.restart_count += 1
    run.tr = TrustRegionState(
        center=center, radius=run.tr.config.l_init, config=run.tr.config
    )


def observe(
    run: BoRunState, point, raw_value: float, update_region: bool = True
) -> BoRunState:
    """Record an evaluation, update the incumbent and the trust region.

    ``update_region=False`` (used for the initial design) still tracks the
    incumbent and keeps the trust region centered on it, but leaves the
    success/failure streaks untouched.
    """
    if not np.isfinite(raw_value):
        raise InvalidInputError(f"objective value must be finite, got {raw_value}")
    key = tuple(int(v) for v in run.space.validate_point(point))
    if isinstance(point, tuple) and all(type(v) is int for v in point):
        key = point  # already canonical: share it instead of holding a copy
    run.points.append(key)
    run.values.append(float(raw_value))

    if run.incumbent_index is None:
        run.incumbent_index = 0
        run.tr = TrustRegionState(
            center=key, radius=run.tr.config.l_init, config=run.tr.config
        )
        return run

    improved = raw_value < run.incumbent_value - INCUMBENT_TOL
    if improved:
        run.incumbent_index = len(run.values) - 1
    if update_region:
        updated, restart = tr_update(run.tr, improved)
        run.tr = replace(updated, center=run.incumbent_point)
        if restart:
            _restart_region(run)
    else:
        run.tr = replace(run.tr, center=run.incumbent_point)
    return run


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    point: tuple
    raw_value: float
    incumbent: float
    elapsed_ms: float  # algorithm time, objective evaluation excluded
    objective_ms: float
    tr_radius: int


def run_bo(
    objective,
    space: SearchSpace,
    spec: kernels.KernelSpec,
    budget: int,
    init_count: int,
    seed: int,
    tr_config: TrustRegionConfig | None = None,
    ga_config: GaConfig | None = None,
    optimizer_config: gp.OptimizerConfig | None = None,
    initial_points=None,
    measure_time: bool = True,
) -> list[IterationRecord]:
    """Seeded initialization followed by ``budget`` suggest/observe rounds.

    ``objective`` maps a point to a float.  The returned trace contains one
    record per evaluation, init points included; per-iteration wall-clock
    excludes the objective evaluation, which is timed separately.
    """
    if budget < 0 or init_count < (2 if budget else 1):
        raise InvalidInputError("need budget >= 0, init_count >= 1, and >= 2 if budget > 0")
    run = new_run(space, spec, seed, tr_config, ga_config, optimizer_config)
    if initial_points is None:
        init_rng = np.random.default_rng([seed, 0])
        initial_points = space.sample_points(init_count, init_rng)
    else:
        initial_points = space.validate_points(initial_points)
        if initial_points.shape[0] != init_count:
            raise InvalidInputError("initial point count mismatch")

    clock = time.perf_counter if measure_time else (lambda: 0.0)
    trace: list[IterationRecord] = []
    for i in range(init_count + budget):
        initial = i < init_count  # the design is observed without a region update
        t0 = clock()
        point = initial_points[i] if initial else suggest(run)
        alg_ms = 0.0 if initial else (clock() - t0) * 1e3
        t1 = clock()
        value = float(objective(point))
        obj_ms = (clock() - t1) * 1e3
        observe(run, point, value, update_region=not initial)
        trace.append(
            IterationRecord(
                iteration=run.iteration,
                point=tuple(int(v) for v in point),
                raw_value=value,
                incumbent=run.incumbent_value,
                elapsed_ms=alg_ms,
                objective_ms=obj_ms,
                tr_radius=run.tr.radius,
            )
        )
        run.iteration += 1
    return trace


def random_search(objective, space: SearchSpace, budget: int, seed: int):
    """Uniform-random baseline with the same evaluation accounting."""
    rng = np.random.default_rng([seed, 0])
    pts = space.sample_points(budget, rng)
    trace = []
    best = np.inf
    for i, p in enumerate(pts):
        value = float(objective(p))
        best = min(best, value)
        trace.append(
            IterationRecord(
                iteration=i,
                point=tuple(int(v) for v in p),
                raw_value=value,
                incumbent=best,
                elapsed_ms=0.0,
                objective_ms=0.0,
                tr_radius=0,
            )
        )
    return trace
