"""The three benchmark workloads, each a closed loop with one client.

A workload turns the benchmark seed into inputs once (``prepare``, not
timed), then runs a fixed *unit* of work on those inputs (``run_unit``).
Units are deterministic, so repeating one gives the same trace and more
timing samples of the same operations.  Only heatbo's public API is called:
``runner.run_experiment``, ``bo.new_run/suggest/observe`` and
``benchmarks.make_benchmark`` plus the config/spec constructors they take.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from reference import Reference

HERE = Path(__file__).resolve().parent


@dataclass
class History:
    """One optimization history as the program reported it."""

    label: str
    benchmark: str
    options: dict
    points: list = field(default_factory=list)  # tuples, in observation order
    values: list = field(default_factory=list)  # raw objective values
    incumbents: list = field(default_factory=list)  # incumbent after each observation


@dataclass
class Ask:
    """One suggest call: the region it was asked for and what it returned."""

    run: object
    observed: int  # history length when asked
    center: tuple
    radius: int
    point: tuple


@dataclass
class Unit:
    """Timings and outputs of one run of a workload's unit of work."""

    run_s: float = 0.0
    setup_s: float = 0.0
    suggest_ms: list = field(default_factory=list)
    suggest_ref_s: list = field(default_factory=list)  # reference time around each call
    ref_spent_s: float = 0.0  # reference work done inside the unit, excluded from run_s
    attempted: int = 0
    failures: list = field(default_factory=list)  # (label, exception type, message)
    aborted: list = field(default_factory=list)  # same, for non-suggest errors
    histories: list = field(default_factory=list)
    asks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # (trace csv path, History) from the runner


class SuggestLog:
    """Calls ``bo.suggest`` as bound when created; records timing and the ask.

    Times only the call itself, with the reference work timed just before
    and just after it.  A raised exception is logged with its type and
    re-raised so the caller can abandon that history.
    """

    def __init__(self, bo, unit: Unit, label: str, reference: Reference):
        self.inner = bo.suggest
        self.unit = unit
        self.label = label
        self.reference = reference

    def __call__(self, run):
        observed = len(run.points)
        self.unit.attempted += 1
        before = self.reference.seconds()
        t0 = time.perf_counter()
        try:
            point = self.inner(run)
        except Exception as exc:
            self.unit.failures.append((self.label, type(exc).__name__, str(exc)))
            raise
        elapsed = time.perf_counter() - t0
        after = self.reference.seconds()
        self.unit.suggest_ms.append(elapsed * 1e3)
        self.unit.suggest_ref_s.append(0.5 * (before + after))
        self.unit.ref_spent_s += before + after
        self.unit.asks.append(
            Ask(run, observed, tuple(run.tr.center), int(run.tr.radius),
                tuple(int(v) for v in point))
        )
        return point


def warm_up(heatbo, objective, spec, size: int, seed: int, **run_options) -> None:
    """One untimed suggest on ``size`` random points of the unit's shape.

    Pays lazy imports, allocator growth and other first-call costs before
    anything is timed.
    """
    bo = heatbo.bo
    run = bo.new_run(objective.space, spec, seed, **run_options)
    for point in objective.space.sample_points(size, np.random.default_rng([seed, 99])):
        bo.observe(run, point, objective(point), update_region=False)
    bo.suggest(run)


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


class Labs20:
    """``runner.run_experiment`` on LABS n=20: one seed, 20 init + 25 suggests."""

    name = "labs20"
    why = ("small history, 40-column one-hot, 3 hyperparameters: per-call overhead, "
           "small Cholesky and GA visible; the only workload through runner "
           "(config parsing, CSV writing)")
    config_path = HERE / "labs20.ini"

    def prepare(self, heatbo, seed: int, out_dir: Path):
        self.heatbo = heatbo
        self.seed = _derived_seed(seed, 20)
        self.reference = Reference(points=40, dims=20, repeats=10, nominal_s=0.004)
        self.out_dir = out_dir / self.name

    def warm_up(self):
        hb = self.heatbo
        config = hb.runner.load_config(str(self.config_path))
        objective = hb.benchmarks.make_benchmark(config.benchmark, **config.benchmark_options)
        spec = hb.kernels.default_spec(objective.space, config.kernel_family,
                                       ard=config.kernel_ard)
        warm_up(hb, objective, spec, config.init_count + config.budget, self.seed,
                ga_config=hb.bo.GaConfig(**config.ga_options))

    def run_unit(self, mark=lambda label: None) -> Unit:
        runner, bo = self.heatbo.runner, self.heatbo.bo
        unit = Unit()
        label = f"{self.name}:seed{self.seed}"
        mark(label)
        t_unit = time.perf_counter()
        config = replace(
            runner.load_config(str(self.config_path)),
            seeds=(self.seed,),
            output_dir=str(self.out_dir / f"seed{self.seed}"),
        )
        unit.setup_s = time.perf_counter() - t_unit
        log = SuggestLog(bo, unit, label, self.reference)
        bo.suggest = log
        try:
            result = runner.run_experiment(config)
        except Exception as exc:
            if not unit.failures:  # not raised by suggest
                unit.aborted.append((label, type(exc).__name__, str(exc)))
            result = None
        finally:
            bo.suggest = log.inner
        unit.run_s = time.perf_counter() - t_unit - unit.setup_s - unit.ref_spent_s
        if result is not None:
            records = result["records"][self.seed]
            history = History(
                label, config.benchmark, dict(config.benchmark_options),
                [r.point for r in records], [r.raw_value for r in records],
                [r.incumbent for r in records],
            )
            unit.histories.append(history)
            unit.outputs.append((result["traces"][self.seed], history))
        return unit


def _observe(bo, run, history: History, point, value, update_region=True):
    bo.observe(run, point, value, update_region=update_region)
    run.iteration += 1
    history.points.append(run.points[-1])
    history.values.append(run.values[-1])
    history.incumbents.append(run.incumbent_value)


class Pest25WideAcq:
    """Ask-tell on pest_control (25 x 5), ARD heat, 8x larger GA: 20 init + 25 suggests."""

    name = "pest25-wideacq"
    why = ("ARD heat on 25 dims x 5 categories with GA 200x40: acquisition (GA plus "
           "predict_batch) is a large share here and not elsewhere; the objective "
           "is a real Monte Carlo cost")
    benchmark = "pest_control"
    init_count = 20
    suggests = 25
    ga = dict(population_size=200, generations=40)

    def prepare(self, heatbo, seed: int, out_dir: Path):
        self.heatbo = heatbo
        self.seed = _derived_seed(seed, 25)
        self.reference = Reference(points=40, dims=25, repeats=8, nominal_s=0.004)
        space = heatbo.benchmarks.make_benchmark(self.benchmark).space
        self.init = space.sample_points(self.init_count, np.random.default_rng([seed, 25]))

    def warm_up(self):
        hb = self.heatbo
        objective = hb.benchmarks.make_benchmark(self.benchmark)
        spec = hb.kernels.default_spec(objective.space, "heat", ard=True)
        warm_up(hb, objective, spec, self.init_count + self.suggests, self.seed,
                ga_config=hb.bo.GaConfig(**self.ga))

    def run_unit(self, mark=lambda label: None) -> Unit:
        hb = self.heatbo
        bo = hb.bo
        unit = Unit()
        label = f"{self.name}:seed{self.seed}"
        mark(label)
        t_unit = time.perf_counter()
        objective = hb.benchmarks.make_benchmark(self.benchmark)
        space = objective.space
        spec = hb.kernels.default_spec(space, "heat", ard=True)
        run = bo.new_run(space, spec, self.seed, ga_config=bo.GaConfig(**self.ga))
        unit.setup_s = time.perf_counter() - t_unit
        history = History(label, self.benchmark, {})
        unit.histories.append(history)
        for point in self.init:
            _observe(bo, run, history, point, objective(point), update_region=False)
        suggest = SuggestLog(bo, unit, label, self.reference)
        for _ in range(self.suggests):
            try:
                point = suggest(run)
            except Exception:
                break
            _observe(bo, run, history, point, objective(point))
        unit.run_s = time.perf_counter() - t_unit - unit.setup_s - unit.ref_spent_s
        return unit


class Labs50Late:
    """``bo.suggest`` on seeded LABS n=50 histories of 100, 150 and 200 points."""

    name = "labs50-late"
    why = ("late iterations of the default experiment (LABS n=50, m up to 200), heat "
           "non-ARD: O(n m^2) Gram/gradient and O(m^3) linear algebra dominate, GA "
           "and Python overhead do not")
    benchmark = "labs"
    n = 50
    sizes = (100, 150, 200)
    uniform_count = 20
    max_flips = 4

    def prepare(self, heatbo, seed: int, out_dir: Path):
        """Uniform points, then points a few flips from the running best."""
        self.heatbo = heatbo
        self.seed = _derived_seed(seed, 50)
        self.reference = Reference(points=150, dims=50, repeats=2, nominal_s=0.024)
        objective = heatbo.benchmarks.make_benchmark(self.benchmark, n=self.n)
        rng = np.random.default_rng([seed, 50])
        points = [tuple(int(v) for v in p)
                  for p in objective.space.sample_points(self.uniform_count, rng)]
        seen = set(points)
        values = [objective(p) for p in points]
        while len(points) < max(self.sizes):
            center = np.array(points[int(np.argmin(values))])
            flips = rng.choice(self.n, size=int(rng.integers(1, self.max_flips + 1)),
                               replace=False)
            center[flips] = 1 - center[flips]
            key = tuple(int(v) for v in center)
            if key in seen:
                continue
            seen.add(key)
            points.append(key)
            values.append(objective(key))
        self.points, self.values = points, values

    def warm_up(self):
        hb = self.heatbo
        objective = hb.benchmarks.make_benchmark(self.benchmark, n=self.n)
        spec = hb.kernels.default_spec(objective.space, "heat", ard=False)
        warm_up(hb, objective, spec, min(self.sizes), self.seed)

    def run_unit(self, mark=lambda label: None) -> Unit:
        hb = self.heatbo
        bo = hb.bo
        unit = Unit()
        t_unit = time.perf_counter()
        for m in self.sizes:
            label = f"{self.name}:m{m}"
            mark(label)
            t0 = time.perf_counter()
            objective = hb.benchmarks.make_benchmark(self.benchmark, n=self.n)
            space = objective.space
            spec = hb.kernels.default_spec(space, "heat", ard=False)
            run = bo.new_run(space, spec, self.seed + m)
            history = History(label, self.benchmark, {"n": self.n})
            for point, value in zip(self.points[:m], self.values[:m]):
                _observe(bo, run, history, point, value, update_region=False)
            unit.setup_s += time.perf_counter() - t0
            unit.histories.append(history)
            try:
                point = SuggestLog(bo, unit, label, self.reference)(run)
            except Exception:
                continue
            _observe(bo, run, history, point, objective(point))
        unit.run_s = time.perf_counter() - t_unit - unit.setup_s - unit.ref_spent_s
        return unit


WORKLOADS = {w.name: w for w in (Labs20, Pest25WideAcq, Labs50Late)}
