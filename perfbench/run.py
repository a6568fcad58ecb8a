"""heatbo benchmark: one closed-loop client driving the public BO API.

Usage, from the repository root:

    python3 perfbench/run.py --workload labs20 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload`` is one of labs20, pest25-wideacq, labs50-late or all.  With
``--trace 0`` the run repeats the workload's unit of work until
``--seconds`` have passed and reports the end-to-end metrics, each time
scaled by reference work timed next to it (see reference.py).  With
``--trace 1`` it runs one untraced unit, then traced units for the rest of
the time, and reports the per-layer metrics; spans and every span total go
to ``perfbench/out/``.  Every run checks the program's outputs and exits 1
if a check fails.  The last line of standard output is one JSON object.

BLAS is pinned to one thread through the environment, before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
IMPORT_SAMPLES = 5
# The import probe scales by the labs20-shaped reference, timed in the child.
IMPORT_REFERENCE = dict(points=40, dims=20, repeats=10, nominal_s=0.004)
IMPORT_PROBE = f"""
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
t = time.perf_counter()
import heatbo
t = time.perf_counter() - t
from reference import Reference
reference = Reference(**{IMPORT_REFERENCE!r})
print(t, statistics.median(reference.seconds() for _ in range(5)))
"""
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("suggest_ms_p50", "ms"),
    ("suggest_ms_p80", "ms"),
    ("peak_rss_mb", "MB"),
)
QUALITY_UNITS = {"bo.final_best": "objective", "gp.fit.nll_per_obs": "nats"}


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    import scipy

    getters = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    found = {}
    for module in (np, scipy):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            getter = next((getattr(lib, g) for g in getters if hasattr(lib, g)), None)
            if getter is not None:
                found[path.name] = int(getter())
    return found


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = _blas_threads()
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": threads,
        "blas_pinned": bool(threads) and all(v == 1 for v in threads.values()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def import_seconds(samples: int) -> list:
    """``import heatbo`` in fresh interpreters, each at the reference speed.

    Interpreter start-up is excluded.  Each child times the reference right
    after the import, on the core it ran on.
    """
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref = done.stdout.split()[-2:]
        times.append(float(seconds) * IMPORT_REFERENCE["nominal_s"] / float(ref))
    return times


# ---------------------------------------------------------------------------
# Measurement.
#
# Every end-to-end time is scaled to the reference speed (reference.py):
# measured time * nominal / reference time measured next to it.  On a
# shared machine a neighbour can halve the speed of a core for minutes, and
# the ratio cancels that while keeping every change in the work itself.
# Repeated units replay the same operations, giving more samples.
# ---------------------------------------------------------------------------


def run_units(seconds: float, started: float, run_unit) -> list:
    """Repeat the unit while another one fits in the time left (at least one)."""
    units, walls = [], []
    while True:
        t0 = time.perf_counter()
        units.append(run_unit())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return units


def scaled_suggest_ms(units, nominal_s: float) -> list:
    """Every suggest time of every unit, at the reference speed."""
    return [
        ms * nominal_s / ref
        for unit in units
        for ms, ref in zip(unit.suggest_ms, unit.suggest_ref_s)
    ]


def unit_speed(unit, nominal_s: float) -> float:
    """Nominal over the unit's median reference time: its speed factor."""
    return nominal_s / statistics.median(unit.suggest_ref_s)


def scaled_run_s(unit, nominal_s: float) -> float:
    """The unit's time at the reference speed: each suggest call scaled by the
    reference around it, the rest by the unit's median reference."""
    suggest_s = sum(unit.suggest_ms) / 1e3
    rest_s = (unit.run_s - suggest_s) * unit_speed(unit, nominal_s)
    return sum(scaled_suggest_ms([unit], nominal_s)) / 1e3 + rest_s


def check_units(heatbo, units, seed: int) -> list:
    first = units[0]
    problems = [f"{label}: aborted by {kind}: {msg}" for label, kind, msg in first.aborted]
    if not first.suggest_ms:
        problems.append("no suggest call succeeded")
    fingerprint = checks.fingerprint(first)
    for unit in units:
        problems += checks.check_asks(unit)
        problems += checks.check_incumbents(unit, heatbo.bo.INCUMBENT_TOL)
        if checks.fingerprint(unit) != fingerprint:
            problems.append("a repeated or traced unit changed the trace")
    problems += checks.check_reevaluation(heatbo, first, seed)
    problems += checks.check_runner_outputs(units[-1])
    fits = checks.last_fits(first)
    if fits:
        problems += checks.check_oracle(heatbo, *fits[-1])
    return problems


def quality(heatbo, unit) -> dict:
    """Optimization outcome of a unit: deterministic given the seed."""
    return {
        "bo.final_best": statistics.median(h.incumbents[-1] for h in unit.histories),
        "gp.fit.nll_per_obs": statistics.median(
            checks.fit_nll(heatbo, *fit) for fit in checks.last_fits(unit)
        ),
    }


def end_to_end(units, imports, nominal_s: float) -> dict:
    suggest_ms = scaled_suggest_ms(units, nominal_s)
    return {
        "setup_s": statistics.median(imports)
        + statistics.median(u.setup_s * unit_speed(u, nominal_s) for u in units),
        "run_s": statistics.median(scaled_run_s(u, nominal_s) for u in units),
        "suggest_ms_p50": float(np.percentile(suggest_ms, 50)),
        "suggest_ms_p80": float(np.percentile(suggest_ms, 80)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _times(units) -> str:
    return " ".join(f"{u.run_s:.3f}" for u in units)


def bench_untraced(heatbo, workload, args, env: dict) -> tuple:
    imports = import_seconds(IMPORT_SAMPLES)
    units = run_units(args.seconds, time.perf_counter(), workload.run_unit)
    problems = check_units(heatbo, units, args.seed)
    if problems:
        return units, {}, problems
    nominal_s = workload.reference.nominal_s
    metrics = end_to_end(units, imports, nominal_s)
    values = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    calls = sum(len(u.suggest_ms) for u in units)
    raw = [ms for u in units for ms in u.suggest_ms]
    print(f"[{workload.name}] units={len(units)} unscaled run_s each=[{_times(units)}] "
          f"speed each=[{' '.join(f'{unit_speed(u, nominal_s):.3f}' for u in units)}]")
    print(f"[{workload.name}] suggest samples={calls} ({len(units[0].suggest_ms)} per unit, "
          f"p80 has {calls - int(np.ceil(0.8 * calls))} above it) unscaled p50="
          f"{np.percentile(raw, 50):.3f} ms p80={np.percentile(raw, 80):.3f} ms; "
          f"import probes={len(imports)}")
    for name, value in quality(heatbo, units[0]).items():
        print(f"[{workload.name}] quality {name} = {value:.6g}")
    return units, values, problems


def bench_traced(heatbo, workload, args, env: dict) -> tuple:
    started = time.perf_counter()
    base = workload.run_unit()
    tracer = tracing.Tracer()
    rows, span_units, span_totals = [], [], []

    def traced_unit():
        unit = workload.run_unit(mark=lambda label: setattr(tracer, "run_id", label))
        spans, counters = tracer.take()
        values, totals = tracing.layer_values(spans, counters, unit.run_s, base.run_s)
        rows.append(values)
        span_units.append(spans)
        span_totals.append(totals)
        return unit

    tracer.install(heatbo)
    try:
        units = [base] + run_units(args.seconds, started, traced_unit)
    finally:
        tracer.uninstall()
    problems = check_units(heatbo, units, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(OUT / f"spans_{workload.name}.jsonl", span_units)
    absent = set(tracer.absent)
    metrics = {}
    for name, unit, needs in tracing.PER_LAYER:
        if not absent.intersection(needs):
            metrics[name] = {"value": statistics.median(r[name] for r in rows), "unit": unit}
    if not problems:
        for name, value in quality(heatbo, base).items():
            metrics[name] = {"value": value, "unit": QUALITY_UNITS[name]}
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "env": env,
        "fingerprint": checks.fingerprint(base),
        "absent": sorted(absent),
        "untraced_run_s": base.run_s,
        "traced_units": len(rows),
        "spans": span_totals[0],
    }
    with open(OUT / f"layers_{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"[{workload.name}] untraced run_s={base.run_s:.3f} traced run_s each="
          f"[{_times(units[1:])}] absent={sorted(absent)} "
          f"spans={sum(len(s) for s in span_units)}")
    return units, metrics, problems


def bench(heatbo, name: str, args, env: dict) -> dict:
    workload = WORKLOADS[name]()
    workload.prepare(heatbo, args.seed, OUT)
    workload.warm_up()
    measure = bench_traced if args.trace else bench_untraced
    units, metrics, problems = measure(heatbo, workload, args, env)
    attempted = sum(u.attempted for u in units)
    failed = sum(len(u.failures) for u in units)
    for label, kind, message in units[0].failures:
        print(f"[{name}] suggest failed in {label}: {kind}: {message}")
    for problem in problems:
        print(f"[{name}] CHECK FAILED: {problem}", file=sys.stderr)
    print(f"[{name}] fingerprint={checks.fingerprint(units[0])} attempted={attempted} "
          f"failed={failed} fail_frac={failed / max(attempted, 1):.4f} correct={not problems}")
    for metric, entry in metrics.items():
        print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "heatbo" / "__init__.py"
    if not package.is_file():
        print(f"heatbo sources not found at {package.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import heatbo

    if Path(heatbo.__file__).resolve() != package.resolve():
        print(f"imported heatbo from {heatbo.__file__}, not {package}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench(heatbo, name, args, env) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
