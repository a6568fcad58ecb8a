"""Bayesian-optimization loop: Expected Improvement maximized by a genetic
algorithm inside a Hamming-ball trust region.

Minimization convention throughout.  The surrogate is refitted on the full
(standardized) history every iteration, the acquisition is optimized only
over points within the current trust-region radius of the incumbent, and the
radius doubles after repeated successes and halves after repeated failures,
restarting from a random unobserved center once it collapses.  On n
dimensions the radius runs from 1 to n and starts, and restarts, at
ceil(n / 4); the GA mutates each dimension with probability 1/n.

Category-changing random draws are modular offsets from the current value
((value + u) mod g), and which coordinates change or revert depends only on
where a point differs from the center.  On binary dimensions every stochastic
operator thus commutes with relocations, so entire runs are equivariant:
relocating the objective and the initial design relocates the whole trace.
Each GA generation makes the same generator calls (method, shape, order)
whatever array code consumes them; on GA-sized batches numpy's fixed cost per
call outweighs the arithmetic, so that code is kept to few calls.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from math import ceil, isfinite, sqrt

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
    "check_run",
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
    if not (isfinite(best_so_far) and np.isfinite(mean).all() and (variance >= 0).all()):
        raise InvalidInputError("need finite mean and best_so_far and variance >= 0, not NaN")
    sigma = np.sqrt(variance)
    improve = best_so_far - mean
    positive = sigma > 0  # else z = 0, and EI is the certain improvement
    # the normal CDF/PDF saturate long before |z| = 38; the clip avoids overflow in z**2
    z = np.divide(improve, sigma, out=np.zeros(improve.shape), where=positive)
    z = np.minimum(np.maximum(z, -38.0), 38.0)
    ei = improve * ndtr(z) + sigma * np.exp(-0.5 * z**2) / sqrt(2.0 * np.pi)
    ei = np.where(positive, ei, improve)
    return np.maximum(ei, 0.0) if ei.ndim else float(max(ei, 0.0))


# ---------------------------------------------------------------------------
# Trust region.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrustRegionConfig:
    """The streak lengths of the radius schedule.  The radius itself follows
    from the space: it runs from 1 to n and starts at ``_initial_radius(n)``."""

    success_tolerance: int = 3
    failure_tolerance: int = 10

    def __post_init__(self):
        if min(self.success_tolerance, self.failure_tolerance) < 1:
            raise InvalidInputError("need both tolerances >= 1")


def _initial_radius(n: int) -> int:
    """The radius a region starts and restarts at on n dimensions: a quarter of them."""
    return ceil(n / 4)


@dataclass(frozen=True)
class TrustRegionState:
    center: tuple
    radius: int
    config: TrustRegionConfig
    success_streak: int = 0
    failure_streak: int = 0

    def __post_init__(self):
        if not 1 <= self.radius <= len(self.center):
            raise InvalidInputError(f"radius {self.radius} outside [1, {len(self.center)}]")


def tr_update(tr: TrustRegionState, improved: bool) -> tuple[TrustRegionState, bool]:
    """Streak-based radius schedule; returns (new_state, restart_signal).

    Doubling after ``success_tolerance`` consecutive improvements, halving
    after ``failure_tolerance`` consecutive failures, restart once failures
    accumulate at radius 1.
    """
    cfg = tr.config
    if improved:
        succ = tr.success_streak + 1
        if succ >= cfg.success_tolerance:
            radius = min(2 * tr.radius, len(tr.center))
            return replace(tr, radius=radius, success_streak=0, failure_streak=0), False
        return replace(tr, success_streak=succ, failure_streak=0), False
    fail = tr.failure_streak + 1
    if fail >= cfg.failure_tolerance:
        if tr.radius == 1:
            return replace(tr, success_streak=0, failure_streak=0), True
        return replace(tr, radius=tr.radius // 2, success_streak=0, failure_streak=0), False
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
    elite_count: int = 2

    def __post_init__(self):
        if not (2 <= self.population_size and 0 <= self.elite_count < self.population_size
                and self.tournament_size >= 1 and self.generations >= 0):
            raise InvalidInputError("GA needs population_size >= 2, 0 <= elite_count < "
                                    "population_size, tournament_size >= 1, generations >= 0")
        if not 0 <= self.crossover_prob <= 1:  # NaN fails too
            raise InvalidInputError(f"need crossover_prob in [0, 1], got {self.crossover_prob}")


def _shift(points, mask, cards, rng):
    """Move every masked entry (row-major) to another category: a modular offset in 1..g-1."""
    flat = mask.ravel().nonzero()[0]
    g = cards[flat % mask.shape[1]]
    points.put(flat, (points.take(flat) + rng.integers(1, g)) % g)
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
    excess = mismatched.sum(1) - radius
    over = (excess > 0).nonzero()[0]
    if over.size:
        keys = np.where(mismatched[over], rng.random((over.size, len(center))), np.inf)
        cols = keys.argsort(1, kind="stable")[np.arange(len(center)) < excess[over, None]]
        points[over.repeat(excess[over]), cols] = center[cols]
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
    pm = 1.0 / space.n  # one mutated dimension per child, on average
    cards = space.card_array

    population = np.concatenate(
        (center[None], _draw_in_ball(center, radius, config.population_size - 1, cards, rng))
    )

    best_unobserved = None  # (value, point)

    def digest(pop, values):
        """Keep the first acquisition-best unobserved row; a later one must beat
        it.  Only rows that beat the kept one are looked up, best first."""
        nonlocal best_unobserved
        if best_unobserved is None:
            rows = np.arange(len(values))
        elif not (rows := (values > best_unobserved[0]).nonzero()[0]).size:
            return  # the common case once a row is kept
        for j in rows[(-values[rows]).argsort(kind="stable")].tolist():
            if tuple(pop[j].tolist()) not in exclude:
                best_unobserved = (values[j], pop[j].copy())
                return

    values = np.asarray(acq(population), dtype=float)
    digest(population, values)

    n_children = config.population_size - config.elite_count
    tournaments = np.arange(2 * n_children)
    for _ in range(config.generations):
        elites = population[values.argsort()[::-1][: config.elite_count]]
        # tournament selection, two parents per child, gathered at once
        idx = rng.integers(0, len(population), size=(2 * n_children, config.tournament_size))
        winners = idx[tournaments, values[idx].argmax(1)]
        parents = population[winners].reshape(n_children, 2, space.n)
        # uniform crossover, falling back to the first parent
        do_cross = rng.random(n_children) < config.crossover_prob
        mask = rng.random((n_children, space.n)) < 0.5
        children = np.where(do_cross[:, None] & mask, parents[:, 1], parents[:, 0])
        # per-dimension mutation, then every offspring back into the ball
        children = _shift(children, rng.random((n_children, space.n)) < pm, cards, rng)
        children = _repair_into_ball(children, center, radius, rng)
        population = np.concatenate((elites, children))
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
    placeholder = TrustRegionState(
        center=(0,) * space.n,
        radius=_initial_radius(space.n),
        config=tr_config or TrustRegionConfig(),
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
    predict = gp.posterior(state)

    def acq(points):
        return expected_improvement(*predict(run.space.validate_points(points)), best)

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
    cards = run.space.card_array
    center = None
    for _ in range(10000):
        offsets = rng.integers(0, cards, size=run.space.n)
        candidate = tuple(((incumbent + offsets) % cards).tolist())
        if candidate not in observed:
            center = candidate
            break
    if center is None:  # space may be fully observed; keep incumbent center
        center = tuple(int(v) for v in incumbent)
    run.restart_count += 1
    run.tr = TrustRegionState(center, _initial_radius(len(center)), run.tr.config)


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
        run.tr = TrustRegionState(key, _initial_radius(len(key)), run.tr.config)
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


def check_run(space: SearchSpace, budget: int, init_count: int, seed: int) -> None:
    """A ``run_bo`` shape: seed >= 0, budget >= 0 and init_count >= 1; if budget > 0,
    also init_count >= 2 (a fit needs two points) and init_count + budget <= space.size,
    so each suggestion has an unobserved point whether or not initial draws repeat."""
    if budget < 0 or init_count < (2 if budget else 1):
        raise InvalidInputError("need budget >= 0, init_count >= 1, and >= 2 if budget > 0")
    if budget and init_count + budget > space.size:
        raise InvalidInputError(f"init_count + budget exceeds the space's {space.size} points")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


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
    excludes the objective evaluation, which is timed separately.  With
    ``budget=0`` and no ``initial_points`` it is the uniform random-search
    baseline: ``init_count`` seeded draws, incumbents as for any run.
    """
    check_run(space, budget, init_count, seed)
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

