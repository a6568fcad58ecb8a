"""Correctness gate and trace fingerprint, applied off the timed path.

Each ``check_*`` function returns a list of problems; an empty list means
the check passed.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

ORACLE_TOL = 1e-8
REEVALUATED_PER_HISTORY = 4


def last_fits(unit) -> list:
    """(run, training size) of the last successful suggest of every run."""
    fits = {}
    for ask in unit.asks:
        fits[id(ask.run)] = (ask.run, ask.observed)
    return list(fits.values())


def check_asks(unit) -> list:
    """Every suggestion is a valid point, inside its ball and unobserved."""
    problems = []
    for ask in unit.asks:
        cards = ask.run.space.cardinalities
        point = ask.point
        where = f"suggestion {point} at history length {ask.observed}"
        if len(point) != len(cards) or any(not 0 <= v < g for v, g in zip(point, cards)):
            problems.append(f"{where} is not a point of the space")
            continue
        distance = sum(a != b for a, b in zip(point, ask.center))
        if distance > ask.radius:
            problems.append(f"{where} is {distance} from the center, radius {ask.radius}")
        if point in set(ask.run.points[: ask.observed]):
            problems.append(f"{where} was already observed")
    return problems


def check_incumbents(unit, tol: float) -> list:
    """The incumbent never rises and equals the minimum observed value."""
    problems = []
    for h in unit.histories:
        best = np.inf
        for i, (value, incumbent) in enumerate(zip(h.values, h.incumbents)):
            best = min(best, value)
            if i and incumbent > h.incumbents[i - 1]:
                problems.append(f"{h.label}: incumbent rose at observation {i}")
            if abs(incumbent - best) > tol:
                problems.append(
                    f"{h.label}: incumbent {incumbent!r} at observation {i}, "
                    f"minimum observed {best!r}"
                )
    return problems


def check_reevaluation(heatbo, unit, seed: int) -> list:
    """Re-evaluating sampled points with a fresh objective is bitwise equal."""
    problems = []
    rng = np.random.default_rng([seed, 7])
    for h in unit.histories:
        if not h.points:
            continue
        objective = heatbo.benchmarks.make_benchmark(h.benchmark, **h.options)
        count = min(REEVALUATED_PER_HISTORY, len(h.points))
        for i in rng.choice(len(h.points), size=count, replace=False):
            again = float(objective(h.points[i]))
            if np.float64(again).tobytes() != np.float64(h.values[i]).tobytes():
                problems.append(
                    f"{h.label}: point {i} re-evaluates to {again!r}, "
                    f"recorded {h.values[i]!r}"
                )
    return problems


def check_runner_outputs(unit) -> list:
    """The trace CSV the runner wrote holds the records it returned."""
    problems = []
    for path, h in unit.outputs:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        written = [(r["point"], r["raw_value"]) for r in rows]
        expected = [
            (";".join(str(v) for v in p), repr(value))
            for p, value in zip(h.points, h.values)
        ]
        if written != expected:
            problems.append(f"{h.label}: {path} does not match the returned records")
    return problems


def check_oracle(heatbo, run, observed: int) -> list:
    """The fitted closed-form Gram equals the spectral oracle up to scale."""
    space, spec = run.space, run.fitted_spec
    X = np.array(run.points[:observed])
    betas = np.broadcast_to(np.asarray(spec.params["betas"], dtype=float), (space.n,))
    closed = heatbo.kernels.gram(space, spec, X)
    numeric = heatbo.spectral.combo_gram_numeric(space, betas, X)

    def normalized(K):
        d = np.sqrt(np.diag(K))
        return K / np.outer(d, d)

    deviation = float(np.max(np.abs(normalized(closed) - normalized(numeric))))
    if not deviation <= ORACLE_TOL:
        return [f"fitted Gram deviates from the spectral oracle by {deviation:.3e}"]
    return []


def fit_nll(heatbo, run, observed: int) -> float:
    """Negative marginal log-likelihood per observation of the fitted surrogate."""
    gp = heatbo.gp
    train = gp.TrainingSet.from_observations(
        run.space, run.points[:observed], run.values[:observed]
    )
    state = gp.make_state(
        run.space, train, run.fitted_spec, run.fitted_noise,
        run.optimizer_config.jitter_ladder,
    )
    return -state.mll_value / observed


def fingerprint(unit) -> str:
    """Hash of every history's points and values and of the failure types."""
    digest = hashlib.sha256()
    for h in unit.histories:
        digest.update(h.label.encode())
        digest.update(np.asarray(h.points, dtype=np.int64).tobytes())
        digest.update(np.asarray(h.values, dtype=np.float64).tobytes())
    for label, kind, _ in unit.failures + unit.aborted:
        digest.update(f"{label}:{kind}".encode())
    return digest.hexdigest()[:16]
