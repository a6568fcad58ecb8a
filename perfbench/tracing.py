"""In-memory span tracer that wraps heatbo's public functions from outside.

Nothing under ``src/`` is changed: the tracer replaces module and class
attributes (``bo.suggest``, ``gp.fit``, ``kernels.gram``, the ``cholesky``
name bound in ``gp`` and so on) with timing wrappers, and restores them on
exit.  heatbo calls these through module attributes, so every call made
inside the program passes through the wrapper.

A span is (name, start, end, parent index, run id).  Self time is a span's
duration minus the time covered by its direct children; because the program
is single-threaded, children nest strictly inside their parent.

A target missing at the current commit (the planned single Gram path
deletes several kernel internals) is recorded as absent and skipped; the
run proceeds.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

KERNEL_FUNCTIONS = (
    "gram",
    "cross_gram",
    "diag_values",
    "match_tensor",
    "gram_from_match",
    "gram_with_grads",
    "unpack_spec",
)
LINALG_NAMES = ("cholesky", "cho_solve", "solve_triangular")


def _row_keys(space, points) -> np.ndarray:
    """Each point's mixed-radix index; exact for spaces of fewer than 2**63 points."""
    radix = np.cumprod((1,) + space.cardinalities[:-1], dtype=np.int64)
    return np.asarray(points, dtype=np.int64) @ radix


def _returned_entries(result) -> int:
    """Entries of every array a kernel function returns (gradients included)."""
    if isinstance(result, np.ndarray):
        return int(result.size)
    if isinstance(result, (tuple, list)):
        return sum(_returned_entries(r) for r in result)
    return 0


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, run_id, child_s]
        self.counters = defaultdict(int)
        self.absent = []
        self.run_id = ""
        self._stack = []  # indices into self.spans
        self._ga_keys = None  # row keys evaluated by the running ga_optimize
        self._ga_done = []  # row keys of every finished ga_optimize call
        self._patches = []

    # -- span bookkeeping --------------------------------------------------

    def _wrap(self, name, fn, after=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.run_id, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent][5] += span[2] - span[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, after=None, on_error=None, wrap_inner=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        self._patches.append((owner, attr, fn))
        inner = wrap_inner(fn) if wrap_inner is not None else fn
        setattr(owner, attr, self._wrap(name, inner, after, on_error))

    # -- installation ------------------------------------------------------

    def install(self, heatbo) -> None:
        """Wrap every traced entry point of an imported ``heatbo`` package."""
        bo, gp, kernels, runner = heatbo.bo, heatbo.gp, heatbo.kernels, heatbo.runner

        def kernel_after(args, kwargs, result):
            self.counters["kernels.entries"] += _returned_entries(result)

        for fn in KERNEL_FUNCTIONS:
            self._patch(kernels, fn, f"kernels.{fn}", kernel_after)

        def chol_error(exc):
            if isinstance(exc, np.linalg.LinAlgError):
                self.counters["gp.cholesky.retries"] += 1

        for fn in LINALG_NAMES:
            error = chol_error if fn == "cholesky" else None
            self._patch(gp, fn, f"gp.{fn}", on_error=error)
        self._patch(gp, "fit", "gp.fit")
        self._patch(gp, "make_state", "gp.make_state")

        def predict_after(args, kwargs, result):
            state = args[0] if args else kwargs["state"]
            points = np.atleast_2d(args[1] if len(args) > 1 else kwargs["points"])
            self.counters["gp.predict_batch.rows"] += points.shape[0]
            if self._ga_keys is not None:
                self._ga_keys.append(_row_keys(state.space, points))

        self._patch(gp, "predict_batch", "gp.predict_batch", predict_after)

        def collect_rows(ga):
            def ga_optimize(*args, **kwargs):
                self._ga_keys = []
                try:
                    return ga(*args, **kwargs)
                finally:
                    self._ga_done.append(self._ga_keys)
                    self._ga_keys = None
            return ga_optimize

        self._patch(bo, "ga_optimize", "bo.ga_optimize", wrap_inner=collect_rows)
        self._patch(bo, "suggest", "bo.suggest")
        self._patch(bo, "observe", "bo.observe")
        self._patch(bo, "run_bo", "bo.run_bo")
        self._patch(bo, "ball_size", "bo.ball_size")
        self._patch(bo, "enumerate_ball", "bo.enumerate_ball")
        self._patch(heatbo.space.SearchSpace, "validate_points", "space.validate_points")
        self._patch(heatbo.benchmarks.BenchmarkObjective, "__call__", "benchmarks.objective")
        self._patch(runner, "run_experiment", "runner.run_experiment")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        counters = dict(self.counters)
        done = [np.concatenate(keys) for keys in self._ga_done if keys]
        counters["bo.ga.candidates"] = sum(k.size for k in done)
        counters["bo.ga.unique"] = sum(np.unique(k).size for k in done)
        spans = self.spans
        self.spans, self.counters, self._ga_done = [], defaultdict(int), []
        return spans, counters


def _has_ancestor(spans, parent: int, match) -> bool:
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def span_totals(spans) -> dict:
    """Per span name: calls, inclusive seconds (outermost only), self seconds."""
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for name, start, end, parent, _, child_s in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_s
        if not _has_ancestor(spans, parent, name.__eq__):
            row["s"] += end - start
    return dict(out)


def outermost_seconds(spans, prefixes) -> float:
    """Inclusive time of spans named with any prefix, not nested in another such span."""
    def match(name):
        return name.startswith(prefixes)

    return sum(
        end - start
        for name, start, end, parent, _, _ in spans
        if match(name) and not _has_ancestor(spans, parent, match)
    )


def write_spans(path, units) -> None:
    """One JSON object per span; ``parent`` indexes into the same unit's spans."""
    with open(path, "w", encoding="utf-8") as fh:
        for unit, spans in enumerate(units):
            for name, start, end, parent, run_id, _ in spans:
                fh.write(json.dumps(
                    {"unit": unit, "name": name, "start": start, "end": end,
                     "parent": parent, "run": run_id}
                ) + "\n")


# Per-layer metrics: (name, unit, spans it needs).  A metric whose spans are
# absent at this commit is left out of the result and listed as absent.
_LINALG = tuple(f"gp.{fn}" for fn in LINALG_NAMES)
PER_LAYER = (
    ("kernels.s", "s", ()),
    ("kernels.calls", "count", ()),
    ("kernels.entries", "count", ()),
    *(
        (f"kernels.{fn}.{key}", unit, (f"kernels.{fn}",))
        for fn in ("gram", "cross_gram", "diag_values", "unpack_spec")
        for key, unit in (("calls", "count"), ("s", "s"))
    ),
    ("gp.fit.calls", "count", ("gp.fit",)),
    ("gp.fit.self_s", "s", ("gp.fit",)),
    ("gp.cholesky.calls", "count", ("gp.cholesky",)),
    ("gp.cholesky.retries", "count", ("gp.cholesky",)),
    ("gp.linalg.s", "s", _LINALG),
    ("gp.predict_batch.calls", "count", ("gp.predict_batch",)),
    ("gp.predict_batch.rows", "count", ("gp.predict_batch",)),
    ("gp.predict_batch.self_s", "s", ("gp.predict_batch",)),
    ("bo.suggest.calls", "count", ("bo.suggest",)),
    ("bo.suggest.self_s", "s", ("bo.suggest",)),
    ("bo.ga_optimize.self_s", "s", ("bo.ga_optimize",)),
    ("bo.ga.candidates", "count", ("bo.ga_optimize", "gp.predict_batch")),
    ("bo.ga.unique_frac", "frac", ("bo.ga_optimize", "gp.predict_batch")),
    ("bo.ga.fallbacks", "count", ("bo.ga_optimize", "bo.ball_size")),
    ("bo.observe.s", "s", ("bo.observe",)),
    ("space.validate_points.calls", "count", ("space.validate_points",)),
    ("space.validate_points.s", "s", ("space.validate_points",)),
    ("benchmarks.objective.calls", "count", ("benchmarks.objective",)),
    ("benchmarks.objective.s", "s", ("benchmarks.objective",)),
    ("runner.self_s", "s", ("runner.run_experiment",)),
    ("suggest.fit_frac", "frac", ("bo.suggest", "gp.fit")),
    ("suggest.acq_frac", "frac", ("bo.suggest", "bo.ga_optimize")),
    ("run.objective_frac", "frac", ("benchmarks.objective",)),
    ("trace.overhead_frac", "frac", ()),
)


def layer_values(spans, counters, unit_s: float, untraced_s: float) -> dict:
    """Every per-layer value of one traced unit, plus per-span totals."""
    totals = span_totals(spans)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    values = {
        "kernels.s": outermost_seconds(spans, ("kernels.",)),
        "kernels.calls": sum(r["calls"] for n, r in totals.items() if n.startswith("kernels.")),
        "kernels.entries": counters.get("kernels.entries", 0),
        "gp.cholesky.retries": counters.get("gp.cholesky.retries", 0),
        "gp.linalg.s": outermost_seconds(spans, _LINALG),
        "gp.predict_batch.rows": counters.get("gp.predict_batch.rows", 0),
        "bo.ga.candidates": counters.get("bo.ga.candidates", 0),
        "bo.ga.unique_frac": (
            counters.get("bo.ga.unique", 0) / counters["bo.ga.candidates"]
            if counters.get("bo.ga.candidates") else 0.0
        ),
        "bo.ga.fallbacks": sum(
            1 for name, _, _, parent, _, _ in spans
            if name == "bo.ball_size" and parent >= 0 and spans[parent][0] == "bo.ga_optimize"
        ),
        "runner.self_s": get("runner.run_experiment", "self_s"),
        "suggest.fit_frac": get("gp.fit", "s") / get("bo.suggest", "s") if get("bo.suggest", "s") else 0.0,
        "suggest.acq_frac": get("bo.ga_optimize", "s") / get("bo.suggest", "s") if get("bo.suggest", "s") else 0.0,
        "run.objective_frac": get("benchmarks.objective", "s") / unit_s,
        "trace.overhead_frac": unit_s / untraced_s - 1.0,
    }
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        span, _, key = name.rpartition(".")
        values[name] = get(span, key)
    return values, totals
