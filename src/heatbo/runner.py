"""Experiment harness: config files read value by value at their declared
types, multi-seed runs, CSV persistence, summary statistics, the self-test
of the paper's five claims (the :mod:`heatbo.spectral` functions acceptance
criteria 1-5 run) and the Gram-construction speed comparison.

Exit codes: 0 success, 1 configuration error, 2 runtime failure, 3 self-test
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

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


ConfigError = InvalidInputError  # a rejected configuration is rejected input


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str = "labs"
    benchmark_options: dict = field(default_factory=dict)
    relocate: bool = False
    relocation_seed: int = 0
    noise_seed: int = 0
    kernel_family: str = "heat"
    kernel_ard: bool | None = None  # None: the family's own
    kernel_options: dict = field(default_factory=dict)
    budget: int = 200
    init_count: int = 20
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "results"
    measure_time: bool = True
    parallel: int = 1
    tr_options: dict = field(default_factory=dict)
    ga_options: dict = field(default_factory=dict)
    optimizer_options: dict = field(default_factory=dict)

    def validate(self) -> None:
        """The seeds' and ``parallel``'s rules; ``run_experiment`` checks the rest."""
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if self.parallel < 1:
            raise ConfigError("parallel degree must be >= 1")

    def run_id(self, seed: int) -> str:
        reloc = "-reloc" if self.relocate else ""
        return f"{self.benchmark}{reloc}:{self.kernel_family}:seed{seed}"


# A singular name for a vector parameter, where the family has that vector
_ALIASES = {"beta": "betas", "lengthscale": "lengthscales", "rho": "rhos"}


def _kernel_kinds(family: str) -> dict:
    """[kernel] keys and their types: the family's default parameters (a
    vector takes a float), and a float for each alias of a vector."""
    params = kernels.default_spec(SearchSpace((2,)), family).params
    kinds = {k: float if isinstance(v, (float, np.ndarray)) else type(v)
             for k, v in params.items()}
    kinds.update((k, float) for k, vector in _ALIASES.items() if vector in params)
    return kinds


def _int_list(text: str) -> tuple:
    """Comma-separated integers: ``seeds`` in a config file, ``--seeds``, ``--sizes``."""
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"not a comma-separated list of integers: {text!r}") from None


# The getter for each type a key can have.  A key of another type (the
# ExperimentConfig dicts, a kernel's inner spec) cannot be set in a file.
_GETTERS = {
    int: "getint", float: "getfloat", bool: "getboolean", bool | None: "getboolean",
    str: "get", str | os.PathLike | None: "get", tuple[int, ...]: "getints",
}
# section: (the ExperimentConfig field it fills, or None for ExperimentConfig's
# own fields; the types of its keys by field, given the config read from the
# sections above it; {field: its file key where they differ})
_SECTIONS = {
    "experiment": (None, lambda config: get_type_hints(ExperimentConfig),
                   {"kernel_family": "kernel", "kernel_ard": "ard"}),
    "trust_region": ("tr_options", lambda config: get_type_hints(bo.TrustRegionConfig), {}),
    "ga": ("ga_options", lambda config: get_type_hints(bo.GaConfig), {}),
    "optimizer": ("optimizer_options", lambda config: get_type_hints(gp.OptimizerConfig), {}),
    "benchmark_options": ("benchmark_options",
                          lambda config: benchmarks.option_types(config.benchmark), {}),
    "kernel": ("kernel_options", lambda config: _kernel_kinds(config.kernel_family), {}),
}


def _read(section, key: str, getter: str):
    try:
        if not section[key]:
            raise ValueError("empty value")
        return getattr(section, getter)(key)
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad value for {key} in [{section.name}]: {exc}") from None


def _section_values(section, kinds: dict, file_keys: dict) -> dict:
    """``section``'s values by name, each read by its type in ``kinds``;
    ``file_keys`` maps a name to its key in the file where they differ."""
    known = {file_keys.get(f, f): f for f, kind in kinds.items() if kind in _GETTERS}
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(
            f"key(s) {unknown} cannot be set in [{section.name}]; settable: {sorted(known)}"
        )
    return {known[k]: _read(section, k, _GETTERS[kinds[known[k]]]) for k in section}


def load_config(path) -> ExperimentConfig:
    """Read a key = value sectioned config file; README lists its rules."""
    parser = configparser.ConfigParser(converters={"ints": _int_list})
    parser.read_dict(dict.fromkeys(_SECTIONS, {}))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    unknown = sorted(set(parser.sections()) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown section(s) {unknown}; known: {list(_SECTIONS)}")
    config = ExperimentConfig()
    for name, (dest, kinds, file_keys) in _SECTIONS.items():
        values = _section_values(parser[name], kinds(config), file_keys)
        config = replace(config, **(values if dest is None else {dest: values}))
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

    A number given for a vector parameter of the family's default spec, by
    its name or its ``_ALIASES`` name, fills that vector at its length; any
    other key applies directly.  An ``ard`` that the family cannot take is
    an error: only heat, combo and casmopolitan have both forms.
    """
    family = config.kernel_family
    ard = config.kernel_ard is not False  # unset: ARD where the family has both forms
    defaults = kernels.default_spec(space, family, ard=ard).params
    overrides = {}
    for key, value in config.kernel_options.items():
        if _ALIASES.get(key) in defaults:
            key = _ALIASES[key]
        if isinstance(defaults.get(key), np.ndarray):
            value = np.full(defaults[key].shape, float(value))
        overrides[key] = value
    spec = kernels.default_spec(space, family, ard=ard, **overrides)
    if config.kernel_ard not in (None, spec.ard):
        raise ConfigError(f"kernel {family!r} has ard = {str(spec.ard).lower()}; "
                          f"[experiment] ard = {str(config.kernel_ard).lower()} contradicts it")
    return spec


def _build_run_components(config: ExperimentConfig, space: SearchSpace):
    spec = _initial_kernel_spec(config, space)
    tr_config = bo.TrustRegionConfig(**config.tr_options)
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


def _writable_dir(path) -> Path:
    """``path``, made a directory if missing, probed with a fresh temporary file."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryFile(dir=path):
            pass
    except OSError as exc:
        raise ConfigError(f"output path not writable: {exc}") from None
    return path


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all seeds, write one trace CSV per seed as it finishes, then
    one summary CSV; if a seed fails, a ``RuntimeError`` names the failed
    seeds instead of the summary."""
    config.validate()
    try:  # the objective, kernel spec, run settings and run shape, checked before any output
        space = _build_objective(config).space
        _build_run_components(config, space)
        for seed in config.seeds:
            bo.check_run(space, config.budget, config.init_count, seed)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(str(exc)) from None
    out_dir = _writable_dir(config.output_dir)

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


def _tiny(text: str, measured: float) -> tuple[bool, str]:
    return measured < 1e-8, f"{text} {measured:.2e}"


# name, and a check returning (passed, detail) from the claim's function in
# ``spectral`` at this command's own seeds
SELFTEST_CHECKS = (
    ("kernel-equivalence", lambda: _tiny(
        "three kernel routes agree, max deviation", spectral.kernel_route_deviation(2024))),
    ("distance-profile-psd", lambda: _tiny(
        "distance-profile Grams PSD, worst ratio", spectral.profile_psd_worst_ratio(7))),
    ("unequal-size-counterexample", lambda: (
        np.allclose((e := spectral.counterexample_eigenvalues())[0], [77, 15, 9, 5, 3, 1],
                    atol=1e-6)
        and list(e[1]) == [1, 2, 3, 1, 6, 3] and spectral.hamming_to_phi(
            spectral.counterexample_space(), spectral.COUNTEREXAMPLE_PROFILE) is None,
        f"distinct eigenvalues: {' '.join(str(round(v)) for v in e[0])}; "
        "profile has no spectral form")),
    ("profile-spectral-conversion", lambda: _tiny(
        "profile-to-spectral round trip, residual", spectral.conversion_residual(11))),
    ("dictionary-embedding-counterexample", lambda: (
        (r := spectral.bodi_not_hamming_check())["reproduced"],
        "equal sqrt-distance pairs give embedding distances {:.0f} and {:.0f}".format(
            r["A"]["embedding_sq_distance"], r["B"]["embedding_sq_distance"]))),
    ("padded-sorting", lambda: (
        (d := spectral.padded_sorting_distances()) == (4, 7),
        "padded distance %d vs sorted %d" % d)),
)


def selftest() -> bool:
    """Run every named cross-check; prints one PASS/FAIL line per check."""
    all_ok = True
    for name, check in SELFTEST_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"crashed: {exc}"
        all_ok &= bool(ok)
        print(f"{name}: {detail} -- {'PASS' if ok else 'FAIL'}")
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


def compare_speed(category_sizes=(4, 8, 16, 32), num_points: int = 200, dims: int = 10):
    """Time closed-form vs numeric-eigendecomposition Gram construction.

    Returns rows of (kernel, categories, dims, points, median_ms,
    blas_pinned) and verifies the two routes produce the same Gram up to
    global scale.  Each median is over 15 interleaved rounds, so the ordering
    reflects the algorithms, not scheduler noise, with BLAS limited to one
    thread (see ``_single_threaded_blas``); ``blas_pinned`` is False when no
    limit could be applied and the timings used whatever threading BLAS has.
    """
    if num_points < 1:
        raise InvalidInputError("need at least one point")
    rng = np.random.default_rng(0)
    rows = []
    for g in category_sizes:
        space = SearchSpace((int(g),) * dims)
        pts = space.sample_points(num_points, rng)
        betas = np.full(dims, 1.0 / dims)
        spec = kernels.KernelSpec("heat", {"betas": betas, "sigma2": 1.0})
        routes = {
            "heat_closed_form": lambda: kernels.gram(space, spec, pts),
            "spectral_numeric": lambda: spectral.combo_gram_numeric(space, betas, pts),
        }
        with _single_threaded_blas() as pinned:
            medians = _interleaved_median_times(routes, 15)
        closed, numeric = medians.values()
        k_closed, k_numeric = (route() for route in routes.values())
        deviation = float(
            np.max(np.abs(k_closed / k_closed[0, 0] - k_numeric / k_numeric[0, 0]))
        )
        rows.extend(
            {"kernel": kernel, "categories": g, "dims": dims, "points": num_points,
             "median_ms": f"{seconds * 1e3:.3f}", "blas_pinned": pinned}
            for kernel, seconds in medians.items()
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


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 1); subparsers inherit this."""

    def error(self, message):
        raise ConfigError(message)


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="heatbo",
        description="Combinatorial Bayesian optimization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("config", help="path to the experiment config file")
    # each override's dest is the ExperimentConfig field it sets
    run_p.add_argument("--seeds", help="comma-separated seed list override")
    run_p.add_argument("--budget", type=int, help="iteration budget override")
    run_p.add_argument("--init", dest="init_count", type=int,
                       help="initialization count override")
    run_p.add_argument("--kernel", dest="kernel_family", help="kernel family override")
    run_p.add_argument("--relocate", action="store_const", const=True,
                       help="relocate the optimum")
    run_p.add_argument("--out", dest="output_dir", help="output directory override")
    run_p.add_argument("--parallel", type=int, help="seed-level parallelism degree")
    run_p.add_argument(
        "--no-timing", dest="measure_time", action="store_const", const=False,
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
    given = {f.name: getattr(args, f.name) for f in fields(config)
             if getattr(args, f.name, None) is not None}
    if "seeds" in given:
        given["seeds"] = _int_list(given["seeds"])
    return replace(config, **given)


def main(argv=None) -> int:
    try:  # a usage error is a ConfigError; each command checks its input before it writes
        args = _build_arg_parser().parse_args(argv)
        if args.command == "selftest":
            return 0 if selftest() else 3
        if args.command == "run":
            result = run_experiment(_apply_overrides(load_config(args.config), args))
            lines = [f"summary: {result['summary']}"]
            lines += [f"trace seed {seed}: {path}" for seed, path in result["traces"].items()]
        elif args.command == "speed":
            sizes = _int_list(args.sizes)
            header = ("kernel", "categories", "dims", "points", "median_ms", "blas_pinned")
            if args.out:  # probed first: the timing run takes seconds
                _writable_dir(Path(args.out).parent)
            rows = compare_speed(sizes, args.points, args.dims)
            if args.out:
                _write_csv(Path(args.out), header, rows)
                lines = [f"timing table: {args.out}"]
            else:
                lines = [",".join(header)]
                lines += [",".join(str(row[c]) for c in header) for row in rows]
        else:
            lines = {"list-benchmarks": benchmarks.list_benchmarks(),
                     "list-kernels": kernels.FAMILY_NAMES}[args.command]
        print(*lines, sep="\n")
        return 0
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
