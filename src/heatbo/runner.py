"""Experiment harness: config-file driven multi-seed runs, CSV persistence,
summary statistics, self-test subcommands and the Gram-construction speed
comparison.

Exit codes: 0 success, 1 configuration error, 2 runtime failure, 3 self-test
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import benchmarks, bo, gp, kernels, spectral
from .space import InvalidInputError, SearchSpace

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "load_config",
    "run_experiment",
    "summarize",
    "selftest",
    "compare_speed",
    "main",
    "TRACE_COLUMNS",
    "SUMMARY_COLUMNS",
]

TRACE_COLUMNS = (
    "run_id",
    "seed",
    "iteration",
    "point",
    "raw_value",
    "incumbent",
    "elapsed_ms",
    "tr_radius",
)
SUMMARY_COLUMNS = (
    "iteration",
    "mean_incumbent",
    "sem",
    "mean_elapsed_ms",
    "mean_objective_ms",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; reported before any run starts."""


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str = "labs"
    benchmark_options: dict = field(default_factory=dict)
    relocate: bool = False
    relocation_seed: int = 0
    noise_seed: int = 0
    kernel_family: str = "heat"
    kernel_ard: bool = True
    kernel_options: dict = field(default_factory=dict)
    budget: int = 200
    init_count: int = 20
    seeds: tuple = (0,)
    output_dir: str = "results"
    measure_time: bool = True
    parallel: int = 1
    tr_options: dict = field(default_factory=dict)
    ga_options: dict = field(default_factory=dict)
    optimizer_options: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if self.budget < 0 or self.init_count < 1:
            raise ConfigError("need budget >= 0 and init_count >= 1")
        if self.parallel < 1:
            raise ConfigError("parallel degree must be >= 1")
        if self.kernel_family not in kernels.FAMILY_NAMES:
            raise ConfigError(
                f"unknown kernel family {self.kernel_family!r}; "
                f"known: {kernels.FAMILY_NAMES}"
            )
        if self.benchmark not in benchmarks.list_benchmarks():
            raise ConfigError(
                f"unknown benchmark {self.benchmark!r}; "
                f"known: {benchmarks.list_benchmarks()}"
            )
        for section, options, known in (
            ("kernel", self.kernel_options, dict.fromkeys(_kernel_keys(self.kernel_family))),
            ("trust_region", self.tr_options, _field_types(bo.TrustRegionConfig)),
            ("ga", self.ga_options, _field_types(bo.GaConfig)),
            ("optimizer", self.optimizer_options, _field_types(gp.OptimizerConfig)),
        ):
            unknown = sorted(set(options) - set(known))
            if unknown:
                raise ConfigError(
                    f"unknown key(s) {unknown} in [{section}]; known: {sorted(known)}"
                )
            # the dataclass sections take numbers only; [kernel] may name a mode
            text = sorted(k for k, v in options.items() if isinstance(v, (str, bool)))
            if text and section != "kernel":
                raise ConfigError(f"non-numeric value for {text} in [{section}]")
            tuples = sorted(k for k in options if known[k] in (tuple, "tuple"))
            if tuples:  # the jitter ladder: a config value is one number, not a tuple
                raise ConfigError(f"{tuples} in [{section}] cannot be set in a config file")
            fractional = [k for k in sorted(options) if known[k] in (int, "int")
                          and type(options[k]) is not int]  # not 2.5
            if fractional:
                raise ConfigError(f"non-integer value for {fractional} in [{section}]")

    def run_id(self, seed: int) -> str:
        reloc = "-reloc" if self.relocate else ""
        return f"{self.benchmark}{reloc}:{self.kernel_family}:seed{seed}"


def _field_types(cls) -> dict:
    return {f.name: f.type for f in fields(cls)}


_BROADCASTS = {"beta": "betas", "lengthscale": "lengthscales", "rho": "rhos"}


def _kernel_keys(family: str) -> set:
    """[kernel] keys: the family's parameters and the scalars broadcast to them."""
    params = kernels.default_spec(SearchSpace((2,)), family).params
    return {*params, *(k for k, vector in _BROADCASTS.items() if vector in params)}


def _parse_option_value(raw: str):
    text = raw.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config(path) -> ExperimentConfig:
    """Read a key = value sectioned config file."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    exp = parser["experiment"] if parser.has_section("experiment") else {}

    def section_dict(name):
        if not parser.has_section(name):
            return {}
        return {k: _parse_option_value(v) for k, v in parser[name].items() if v.strip()}

    try:
        seeds = tuple(
            int(s) for s in str(exp.get("seeds", "0")).split(",") if s.strip()
        )
        config = ExperimentConfig(
            benchmark=str(exp.get("benchmark", "labs")),
            benchmark_options=section_dict("benchmark_options"),
            relocate=str(exp.get("relocate", "false")).lower() == "true",
            relocation_seed=int(exp.get("relocation_seed", 0)),
            noise_seed=int(exp.get("noise_seed", 0)),
            kernel_family=str(exp.get("kernel", "heat")),
            kernel_ard=str(exp.get("ard", "true")).lower() == "true",
            kernel_options=section_dict("kernel"),
            budget=int(exp.get("budget", 200)),
            init_count=int(exp.get("init_count", 20)),
            seeds=seeds,
            output_dir=str(exp.get("output_dir", "results")),
            measure_time=str(exp.get("measure_time", "true")).lower() == "true",
            parallel=int(exp.get("parallel", 1)),
            tr_options=section_dict("trust_region"),
            ga_options=section_dict("ga"),
            optimizer_options=section_dict("optimizer"),
        )
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(f"bad config value: {exc}")
    config.validate()
    return config


def _build_objective(config: ExperimentConfig) -> benchmarks.BenchmarkObjective:
    obj = benchmarks.make_benchmark(
        config.benchmark, noise_seed=config.noise_seed, **config.benchmark_options
    )
    if config.relocate:
        obj = benchmarks.relocate_objective(obj, config.relocation_seed)
    return obj


def _initial_kernel_spec(config: ExperimentConfig, space: SearchSpace):
    """Family defaults overridden by initial values from the [kernel] section.

    Scalar keys ``beta``, ``lengthscale``, ``rho`` broadcast to the
    per-dimension vectors; ``sigma2`` and ``alpha`` apply directly.
    """
    options = dict(config.kernel_options)
    overrides = {}
    n = space.n if config.kernel_ard else 1
    if "beta" in options:
        overrides["betas"] = np.full(n, float(options.pop("beta")))
    if "lengthscale" in options and config.kernel_family == "casmopolitan":
        overrides["lengthscales"] = np.full(n, float(options.pop("lengthscale")))
    if "rho" in options:
        overrides["rhos"] = np.full(space.n, float(options.pop("rho")))
    overrides.update(options)  # sigma2, lengthscale, alpha pass through
    return kernels.default_spec(
        space, config.kernel_family, ard=config.kernel_ard, **overrides
    )


def _build_run_components(config: ExperimentConfig, space: SearchSpace):
    spec = _initial_kernel_spec(config, space)
    tr_config = bo.TrustRegionConfig.for_space(space, **config.tr_options)
    ga_config = bo.GaConfig(**config.ga_options)
    opt_config = gp.OptimizerConfig(**config.optimizer_options)
    return spec, tr_config, ga_config, opt_config


def _run_single_seed(config: ExperimentConfig, seed: int) -> list[bo.IterationRecord]:
    objective = _build_objective(config)
    spec, tr_config, ga_config, opt_config = _build_run_components(
        config, objective.space
    )
    return bo.run_bo(
        objective,
        objective.space,
        spec,
        budget=config.budget,
        init_count=config.init_count,
        seed=seed,
        tr_config=tr_config,
        ga_config=ga_config,
        optimizer_config=opt_config,
        measure_time=config.measure_time,
    )


def _trace_rows(config: ExperimentConfig, seed: int, trace) -> list[dict]:
    rows = []
    for rec in trace:
        rows.append(
            {
                "run_id": config.run_id(seed),
                "seed": seed,
                "iteration": rec.iteration,
                "point": ";".join(str(v) for v in rec.point),
                "raw_value": repr(rec.raw_value),
                "incumbent": repr(rec.incumbent),
                "elapsed_ms": f"{rec.elapsed_ms:.3f}",
                "tr_radius": rec.tr_radius,
            }
        )
    return rows


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


def summarize(traces: dict) -> list[dict]:
    """Per-iteration mean incumbent, standard error and mean timings."""
    lengths = {len(t) for t in traces.values()}
    if len(lengths) != 1:
        raise InvalidInputError("traces must share one length")
    (length,) = lengths
    k = len(traces)
    rows = []
    for i in range(length):
        incumbents = np.array([t[i].incumbent for t in traces.values()])
        elapsed = np.array([t[i].elapsed_ms for t in traces.values()])
        objective = np.array([t[i].objective_ms for t in traces.values()])
        sem = float(np.std(incumbents, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
        rows.append(
            {
                "iteration": i,
                "mean_incumbent": repr(float(np.mean(incumbents))),
                "sem": repr(sem),
                "mean_elapsed_ms": f"{float(np.mean(elapsed)):.3f}",
                "mean_objective_ms": f"{float(np.mean(objective)):.3f}",
            }
        )
    return rows


def _outcome(config: ExperimentConfig, seed: int):
    """The seed's trace, or the exception its run raised."""
    try:
        return _run_single_seed(config, seed)
    except Exception as exc:
        return exc


def _seed_outcomes(config: ExperimentConfig):
    """(seed, its trace or the exception its run raised), as each seed finishes."""
    if config.parallel == 1:
        yield from ((seed, _outcome(config, seed)) for seed in config.seeds)
        return
    with ProcessPoolExecutor(max_workers=config.parallel) as pool:
        futures = {pool.submit(_run_single_seed, config, seed): seed for seed in config.seeds}
        yield from ((futures[f], f.exception() or f.result()) for f in as_completed(futures))


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all seeds, write one trace CSV per seed as it finishes, then
    one summary CSV; if a seed fails, a ``RuntimeError`` names the failed
    seeds instead of the summary."""
    config.validate()
    try:  # the objective, kernel spec and run state, checked before any output
        objective = _build_objective(config)
        spec, *run_configs = _build_run_components(config, objective.space)
        bo.new_run(objective.space, spec, config.seeds[0], *run_configs)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(str(exc)) from None
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output path not writable: {exc}")

    traces, trace_paths, failed = {}, {}, {}
    for seed, outcome in _seed_outcomes(config):
        if isinstance(outcome, BaseException):
            failed[seed] = f"seed {seed}: {outcome}"
            continue
        trace_paths[seed] = out_dir / f"trace_{config.benchmark}_seed{seed}.csv"
        _write_csv(trace_paths[seed], TRACE_COLUMNS, _trace_rows(config, seed, outcome))
        traces[seed] = outcome
    if failed:
        reasons = "; ".join(failed[s] for s in sorted(failed))
        raise RuntimeError(f"seed(s) {sorted(failed)} failed, no summary written ({reasons})")
    # seed order, so the summary sums in one order whatever finished first
    traces = {seed: traces[seed] for seed in config.seeds}
    trace_paths = {seed: trace_paths[seed] for seed in config.seeds}
    summary_path = out_dir / f"summary_{config.benchmark}.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, summarize(traces))
    return {"traces": trace_paths, "summary": summary_path, "records": traces}


# ---------------------------------------------------------------------------
# Self-test: every named cross-check at desk scale.
# ---------------------------------------------------------------------------


def _check_equivalence() -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        space = SearchSpace(tuple(int(g) for g in rng.integers(2, 7, size=n)))
        betas = rng.uniform(0.05, 2.0, size=n)
        pts = space.sample_points(10, rng)
        heat = kernels.gram(
            space, kernels.KernelSpec("heat", {"betas": betas, "sigma2": 1.0}), pts
        )
        ells = kernels.heat_betas_to_casmo_lengthscales(space, betas)
        casmo = kernels.gram(
            space,
            kernels.KernelSpec("casmopolitan", {"lengthscales": ells, "sigma2": 1.0}),
            pts,
        )
        numeric = spectral.combo_gram_numeric(space, betas, pts)
        ref = heat / heat[0, 0]
        worst = max(
            worst,
            float(np.max(np.abs(casmo / casmo[0, 0] - ref))),
            float(np.max(np.abs(numeric / numeric[0, 0] - ref))),
        )
    return worst < 1e-8, f"three kernel routes agree, max deviation {worst:.2e}"


def _check_psd_sweep() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for family in ("hamming_rbf", "hamming_matern52", "hamming_rq"):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            space = SearchSpace(tuple(int(g) for g in rng.integers(2, 7, size=n)))
            pts = space.sample_points(int(rng.integers(8, 65)), rng)
            params = {"lengthscale": float(rng.uniform(0.3, 3.0)), "sigma2": 1.0}
            if family == "hamming_rq":
                params["alpha"] = float(rng.uniform(0.3, 3.0))
            gram = kernels.gram(space, kernels.KernelSpec(family, params, False), pts)
            eigs = np.linalg.eigvalsh(gram)
            worst = max(worst, float(-eigs.min() / max(eigs.max(), 1e-300)))
    return worst < 1e-8, f"distance-profile Grams PSD, worst ratio {worst:.2e}"


def _check_counterexample() -> tuple[bool, str]:
    distinct, counts = spectral.counterexample_eigenvalues()
    ok_eigs = np.allclose(distinct, [77, 15, 9, 5, 3, 1], atol=1e-6)
    ok_mult = np.array_equal(counts, [1, 2, 3, 1, 6, 3])
    conversion = spectral.hamming_to_phi(
        spectral.counterexample_space(), spectral.COUNTEREXAMPLE_PROFILE
    )
    eig_str = " ".join(str(int(round(v))) for v in distinct)
    return (
        ok_eigs and ok_mult and conversion is None,
        f"distinct eigenvalues: {eig_str}; profile has no spectral form",
    )


def _check_conversion() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        g = int(rng.integers(2, 5))
        space = SearchSpace((g,) * n)
        ell = float(rng.uniform(0.5, 3.0))
        values = np.exp(-np.arange(n + 1) / ell**2)
        phi = spectral.hamming_to_phi(space, values)
        if phi is None:
            return False, "conversion failed on an equal-sized space"
        pts = space.enumerate_points()
        recon = spectral.phi_gram(space, phi, pts)
        target = spectral.hamming_profile_gram(space, values, pts)
        worst = max(worst, float(np.max(np.abs(recon - target))))
    return worst < 1e-8, f"profile-to-spectral round trip, residual {worst:.2e}"


def _check_dictionary_embedding() -> tuple[bool, str]:
    report = spectral.bodi_not_hamming_check()
    return (
        bool(report["reproduced"]),
        "equal sqrt-distance pairs give embedding distances "
        f"{report['A']['embedding_sq_distance']:.0f} and "
        f"{report['B']['embedding_sq_distance']:.0f}",
    )


def _check_padded_sorting() -> tuple[bool, str]:
    space = SearchSpace((5,) * 10)
    x = [0, 0, 0, 1, 1, 2, 3, 3, 4, 4]
    xp = [4, 4, 0, 1, 1, 2, 3, 3, 4, 4]
    padded = kernels.padded_hamming_distance(space, x, xp)
    plain = int(np.count_nonzero(np.sort(x) != np.sort(xp)))
    return padded == 4 and plain == 7, f"padded distance {padded} vs sorted {plain}"


SELFTEST_CHECKS = (
    ("kernel-equivalence", _check_equivalence),
    ("distance-profile-psd", _check_psd_sweep),
    ("unequal-size-counterexample", _check_counterexample),
    ("profile-spectral-conversion", _check_conversion),
    ("dictionary-embedding-counterexample", _check_dictionary_embedding),
    ("padded-sorting", _check_padded_sorting),
)


def selftest(stream=None) -> bool:
    """Run every named cross-check; prints one PASS/FAIL line per check."""
    stream = stream if stream is not None else sys.stdout
    all_ok = True
    for name, check in SELFTEST_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"crashed: {exc}"
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {detail} -- {status}", file=stream)
    return all_ok


# ---------------------------------------------------------------------------
# Speed comparison: closed form vs numeric eigendecomposition.
# ---------------------------------------------------------------------------


def _interleaved_median_times(fns: dict, repeats: int) -> dict:
    """Median seconds per callable, alternating between them each round so
    machine-load drift affects all candidates equally."""
    for fn in fns.values():  # warm caches and BLAS pools
        fn()
    times = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {name: float(np.median(ts)) for name, ts in times.items()}


# (getter, setter) names of the OpenBLAS thread-count C API, in the symbol
# schemes of the numpy (64-bit interface) and scipy wheels and of plain builds.
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _bundled_openblas() -> list:
    """(get, set) thread-count functions of each OpenBLAS shipped inside the
    numpy and scipy wheels (``numpy.libs``, ``scipy.libs``)."""
    import scipy

    found = []
    for module in (np, scipy):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get, set_ in _OPENBLAS_THREAD_API:
                if hasattr(lib, get) and hasattr(lib, set_):
                    found.append((getattr(lib, get), getattr(lib, set_)))
                    break
    return found


@contextmanager
def _single_threaded_blas():
    """Limit BLAS to one thread inside the block; yields whether it took effect.

    threadpoolctl is used when it is installed, since it knows every BLAS
    vendor.  Otherwise the OpenBLAS libraries bundled in the numpy and scipy
    wheels are pinned through their C API.  If neither applies, nothing is
    pinned and False is yielded.  Previous thread counts are restored on exit.
    """
    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        pass
    else:
        with threadpool_limits(limits=1, user_api="blas"):
            blas = [p for p in threadpool_info() if p["user_api"] == "blas"]
            yield bool(blas) and all(p["num_threads"] == 1 for p in blas)
        return
    libs = _bundled_openblas()
    previous = [get() for get, _ in libs]
    try:
        for _, set_ in libs:
            set_(1)
        yield bool(libs) and all(get() == 1 for get, _ in libs)
    finally:
        for (_, set_), count in zip(libs, previous):
            set_(count)


def compare_speed(
    category_sizes=(4, 8, 16, 32), num_points: int = 200, dims: int = 10,
    repeats: int = 15,
):
    """Time closed-form vs numeric-eigendecomposition Gram construction.

    Returns rows of (kernel, categories, dims, points, median_ms,
    blas_pinned) and verifies the two routes produce the same Gram up to
    global scale.  Measurements are interleaved so the ordering reflects the
    algorithms, not scheduler noise, and are taken with BLAS limited to one
    thread (see ``_single_threaded_blas``); ``blas_pinned`` is False when no
    limit could be applied and the timings used whatever threading BLAS has.
    """
    rng = np.random.default_rng(0)
    rows = []
    for g in category_sizes:
        space = SearchSpace((int(g),) * dims)
        pts = space.sample_points(num_points, rng)
        betas = np.full(dims, 1.0 / dims)
        spec = kernels.KernelSpec("heat", {"betas": betas, "sigma2": 1.0})
        with _single_threaded_blas() as pinned:
            medians = _interleaved_median_times(
                {
                    "closed": lambda: kernels.gram(space, spec, pts),
                    "numeric": lambda: spectral.combo_gram_numeric(space, betas, pts),
                },
                repeats,
            )
        closed, numeric = medians["closed"], medians["numeric"]
        k_closed = kernels.gram(space, spec, pts)
        k_numeric = spectral.combo_gram_numeric(space, betas, pts)
        deviation = float(
            np.max(np.abs(k_closed / k_closed[0, 0] - k_numeric / k_numeric[0, 0]))
        )
        rows.append(
            {"kernel": "heat_closed_form", "categories": g, "dims": dims,
             "points": num_points, "median_ms": f"{closed * 1e3:.3f}",
             "blas_pinned": pinned}
        )
        rows.append(
            {"kernel": "spectral_numeric", "categories": g, "dims": dims,
             "points": num_points, "median_ms": f"{numeric * 1e3:.3f}",
             "blas_pinned": pinned}
        )
        if deviation > 1e-8:
            raise RuntimeError(
                f"timed paths disagree at g={g}: deviation {deviation:.2e}"
            )
        if g >= 8 and closed >= numeric:
            raise RuntimeError(
                f"closed form not faster at g={g}: "
                f"{closed * 1e3:.3f} ms vs {numeric * 1e3:.3f} ms"
                + ("" if pinned else " (BLAS threads not pinned)")
            )
    return rows


# ---------------------------------------------------------------------------
# Command-line interface.
# ---------------------------------------------------------------------------


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatbo",
        description="Combinatorial Bayesian optimization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("config", help="path to the experiment config file")
    run_p.add_argument("--seeds", help="comma-separated seed list override")
    run_p.add_argument("--budget", type=int, help="iteration budget override")
    run_p.add_argument("--init", type=int, help="initialization count override")
    run_p.add_argument("--kernel", help="kernel family override")
    run_p.add_argument("--relocate", action="store_true", help="relocate the optimum")
    run_p.add_argument("--out", help="output directory override")
    run_p.add_argument("--parallel", type=int, help="seed-level parallelism degree")
    run_p.add_argument(
        "--no-timing", action="store_true",
        help="write zero timings for byte-identical reruns",
    )

    sub.add_parser("selftest", help="run the named theorem cross-checks")

    speed_p = sub.add_parser("speed", help="compare Gram construction speed")
    speed_p.add_argument("--sizes", default="4,8,16,32")
    speed_p.add_argument("--points", type=int, default=200)
    speed_p.add_argument("--dims", type=int, default=10)
    speed_p.add_argument("--out", help="CSV output path")

    sub.add_parser("list-benchmarks", help="print available benchmark names")
    sub.add_parser("list-kernels", help="print available kernel families")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seeds:
        updates["seeds"] = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    if args.budget is not None:
        updates["budget"] = args.budget
    if args.init is not None:
        updates["init_count"] = args.init
    if args.kernel:
        updates["kernel_family"] = args.kernel
    if args.relocate:
        updates["relocate"] = True
    if args.out:
        updates["output_dir"] = args.out
    if args.parallel is not None:
        updates["parallel"] = args.parallel
    if args.no_timing:
        updates["measure_time"] = False
    return replace(config, **updates) if updates else config


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    if args.command == "run":
        try:
            config = _apply_overrides(load_config(args.config), args)
            config.validate()
        except (ConfigError, InvalidInputError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        try:
            result = run_experiment(config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 2
        print(f"summary: {result['summary']}")
        for seed, path in result["traces"].items():
            print(f"trace seed {seed}: {path}")
        return 0
    if args.command == "selftest":
        return 0 if selftest() else 3
    if args.command == "speed":
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
        try:
            rows = compare_speed(sizes, args.points, args.dims)
        except RuntimeError as exc:
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 2
        header = ("kernel", "categories", "dims", "points", "median_ms", "blas_pinned")
        if args.out:
            _write_csv(Path(args.out), header, rows)
            print(f"timing table: {args.out}")
        else:
            print(",".join(header))
            for row in rows:
                print(",".join(str(row[c]) for c in header))
        return 0
    if args.command == "list-benchmarks":
        for name in benchmarks.list_benchmarks():
            print(name)
        return 0
    if args.command == "list-kernels":
        for name in kernels.FAMILY_NAMES:
            print(name)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
