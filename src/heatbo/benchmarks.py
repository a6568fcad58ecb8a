"""Black-box benchmark objectives on categorical spaces.

Everything is a minimization problem evaluated at integer category vectors,
deterministic given (point, noise seed).  The suite covers binary sequence
design (autocorrelation energy), weighted MaxSAT over DIMACS WCNF instances,
two sequential stochastic-simulation chains (contamination control and pest
control, with all simulator constants frozen in a versioned data file), and
discretized permutation-invariant test functions on a regular grid.  A
relocation wrapper composes any objective with the inverse of a seeded
category bijection, moving the optimum's location while preserving the
multiset of objective values.
"""

from __future__ import annotations

import importlib.resources
import inspect
import json
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .space import (
    InvalidInputError,
    Relocation,
    SearchSpace,
    sample_relocation,
)

__all__ = [
    "WcnfInstance",
    "BenchmarkObjective",
    "labs_energy",
    "merit_factor",
    "parse_wcnf",
    "serialize_wcnf",
    "generate_synthetic_wcnf",
    "maxsat_eval",
    "contamination_eval",
    "pest_control_eval",
    "sfu_eval",
    "relocate_objective",
    "make_benchmark",
    "list_benchmarks",
    "BENCHMARK_CONSTANTS",
    "SFU_FUNCTIONS",
]


def _load_constants() -> dict:
    ref = importlib.resources.files("heatbo").joinpath("data/benchmark_constants.json")
    return json.loads(ref.read_text(encoding="utf-8"))


BENCHMARK_CONSTANTS = _load_constants()


class ParseError(ValueError):
    """Malformed instance text; message carries the offending line number."""


# ---------------------------------------------------------------------------
# Low-autocorrelation binary sequences.
# ---------------------------------------------------------------------------


def _to_signs(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise InvalidInputError("sequence must be one-dimensional")
    if not np.all((x == 0) | (x == 1)):
        raise InvalidInputError("binary objective needs categories in {0, 1}")
    return 2.0 * x - 1.0


def labs_energy(x) -> float:
    """Autocorrelation energy of a binary sequence (0/1 mapped to -1/+1).

    E = sum over shifts k of (sum_i s_i s_{i+k})**2; lower is better,
    integer-valued and at least 1 for sequences of length >= 2.
    """
    s = _to_signs(x)
    n = s.size
    energy = 0.0
    for k in range(1, n):
        c_k = float(np.dot(s[: n - k], s[k:]))
        energy += c_k * c_k
    return energy


def merit_factor(x) -> float:
    """n^2 / (2 E); the maximization view of the same objective."""
    s = np.asarray(x)
    energy = labs_energy(x)
    return s.size**2 / (2.0 * energy)


# ---------------------------------------------------------------------------
# Weighted MaxSAT (DIMACS WCNF).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WcnfInstance:
    num_variables: int
    weights: tuple  # raw positive weights per clause
    clauses: tuple  # tuple of tuples of signed literals
    weight_mean: float
    weight_std: float

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def normalized_weights(self) -> np.ndarray:
        return (np.asarray(self.weights) - self.weight_mean) / self.weight_std


def _weight_stats(weights) -> tuple[float, float]:
    w = np.asarray(weights, dtype=float)
    mean = float(np.mean(w))
    std = float(np.std(w))
    if std == 0.0:
        std = 1.0
    return mean, std


def parse_wcnf(text: str) -> WcnfInstance:
    """Parse DIMACS WCNF: ``p wcnf <nvars> <nclauses> [top]`` plus clause lines.

    Clause lines are ``<weight> <lit> ... 0``; comment lines start with "c".
    Weights must be positive and soft: a weight equal to the header's top
    value (a hard clause) is rejected.
    """
    num_vars = None
    declared_clauses = None
    top = None
    weights: list[float] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) not in (4, 5) or parts[1] != "wcnf":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
                top = int(parts[4]) if len(parts) == 5 else None
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field")
            if num_vars < 1:
                raise ParseError(f"line {lineno}: need at least one variable")
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: clause before header")
        tokens = line.split()
        try:
            weight = float(tokens[0])
            literals = [int(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric token in clause")
        if weight <= 0:
            raise ParseError(f"line {lineno}: clause weight must be positive")
        if top is not None and weight == top:
            raise ParseError(
                f"line {lineno}: hard clause (weight equals top) not supported"
            )
        if not literals or literals[-1] != 0:
            raise ParseError(f"line {lineno}: clause missing terminating 0")
        literals = literals[:-1]
        if not literals:
            raise ParseError(f"line {lineno}: empty clause")
        for lit in literals:
            if lit == 0 or abs(lit) > num_vars:
                raise ParseError(f"line {lineno}: literal {lit} out of range")
        weights.append(weight)
        clauses.append(tuple(literals))
    if num_vars is None:
        raise ParseError("no header line found")
    if not clauses:
        raise ParseError("instance has no clauses")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise ParseError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    mean, std = _weight_stats(weights)
    return WcnfInstance(num_vars, tuple(weights), tuple(clauses), mean, std)


def serialize_wcnf(instance: WcnfInstance) -> str:
    lines = [f"p wcnf {instance.num_variables} {instance.num_clauses}"]
    for w, clause in zip(instance.weights, instance.clauses):
        w_str = f"{int(w)}" if float(w).is_integer() else f"{w}"
        lines.append(f"{w_str} {' '.join(str(l) for l in clause)} 0")
    return "\n".join(lines) + "\n"


def generate_synthetic_wcnf(
    num_variables: int, num_clauses: int, seed: int, max_clause_len: int = 3
) -> WcnfInstance:
    """Seeded random soft instance; stands in when a real instance file is absent."""
    rng = np.random.default_rng(seed)
    weights = []
    clauses = []
    for _ in range(num_clauses):
        length = int(rng.integers(1, max_clause_len + 1))
        variables = rng.choice(num_variables, size=length, replace=False) + 1
        signs = rng.choice([-1, 1], size=length)
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
        weights.append(float(rng.integers(1, 11)))
    mean, std = _weight_stats(weights)
    return WcnfInstance(num_variables, tuple(weights), tuple(clauses), mean, std)


def maxsat_eval(instance: WcnfInstance, x) -> float:
    """Negated sum of normalized weights over satisfied clauses (minimize)."""
    x = np.asarray(x)
    if x.shape != (instance.num_variables,):
        raise InvalidInputError(
            f"assignment needs {instance.num_variables} binary variables"
        )
    if not np.all((x == 0) | (x == 1)):
        raise InvalidInputError("assignment must be binary")
    norm = instance.normalized_weights()
    total = 0.0
    for w, clause in zip(norm, instance.clauses):
        for lit in clause:
            value = x[abs(lit) - 1]
            if (lit > 0 and value == 1) or (lit < 0 and value == 0):
                total += w
                break
    return -total


# ---------------------------------------------------------------------------
# Sequential simulation chains.
# ---------------------------------------------------------------------------


def contamination_eval(x, noise_seed: int = 0) -> float:
    """Food-chain quarantine objective over 25 binary prevention decisions.

    Monte Carlo over seeded contamination/restoration rates: prevention at a
    stage shrinks the contaminated fraction, inaction lets contamination
    spread; cost adds the prevention price and a penalty for the fraction of
    scenarios above the contamination threshold at each stage.
    """
    cfg = BENCHMARK_CONSTANTS["contamination"]
    curve = contamination_violation_curve(x, noise_seed)
    cost = 0.0
    for decision, violated in zip(np.asarray(x), curve):
        cost += cfg["prevention_cost"] * float(decision)
        cost += cfg["violation_penalty"] * float(violated)
    return cost


def contamination_violation_curve(x, noise_seed: int = 0) -> np.ndarray:
    """Per-stage fraction of scenarios above the violation threshold."""
    cfg = BENCHMARK_CONSTANTS["contamination"]
    stages = cfg["stages"]
    x = np.asarray(x)
    if x.shape != (stages,) or not np.all((x == 0) | (x == 1)):
        raise InvalidInputError(f"need {stages} binary decisions")
    rng = np.random.default_rng([int(noise_seed), 0xC0A7])
    samples = BENCHMARK_CONSTANTS["monte_carlo_samples"]
    z = rng.beta(cfg["init_alpha"], cfg["init_beta"], size=samples)
    lam = rng.beta(
        cfg["contamination_alpha"], cfg["contamination_beta"], size=(stages, samples)
    )
    gam = rng.beta(
        cfg["restoration_alpha"], cfg["restoration_beta"], size=(stages, samples)
    )
    curve = np.empty(stages)
    for i in range(stages):
        if x[i] == 1:
            z = (1.0 - gam[i]) * z
        else:
            z = lam[i] * (1.0 - z) + z
        curve[i] = float(np.mean(z > cfg["violation_threshold"]))
    return curve


def pest_control_eval(x, noise_seed: int = 0) -> float:
    """Pest-control chain over 25 stations with 5 actions each (0 = do nothing).

    Pesticide effectiveness decays as a type accumulates use along the chain
    and its price drops with the total number of purchases; cost combines
    prices paid and a penalty for scenarios above the infestation threshold.
    """
    cfg = BENCHMARK_CONSTANTS["pest_control"]
    stations = cfg["stations"]
    x = np.asarray(x)
    if x.shape != (stations,) or np.any(x < 0) or np.any(x >= cfg["categories"]):
        raise InvalidInputError(
            f"need {stations} actions with values in 0..{cfg['categories'] - 1}"
        )
    rng = np.random.default_rng([int(noise_seed), 0x9E57])
    samples = BENCHMARK_CONSTANTS["monte_carlo_samples"]
    z = rng.beta(cfg["init_alpha"], cfg["init_beta"], size=samples)
    control_beta = list(cfg["control_beta"])
    counts = np.bincount(x, minlength=cfg["categories"])
    cost = 0.0
    for i in range(stations):
        spread = rng.beta(cfg["spread_alpha"], cfg["spread_beta"], size=samples)
        action = int(x[i])
        if action == 0:
            z = spread * (1.0 - z) + z
        else:
            k = action - 1
            control = rng.beta(cfg["control_alpha"], control_beta[k], size=samples)
            z = (1.0 - control) * z
            control_beta[k] += cfg["tolerance_develop_rate"][k] / stations
            price = cfg["control_price"][k] * (
                1.0 - cfg["price_max_discount"][k] * counts[action] / stations
            )
            cost += price
        cost += cfg["violation_penalty"] * float(
            np.mean(z > cfg["violation_threshold"])
        )
    return cost


# ---------------------------------------------------------------------------
# Discretized permutation-invariant test functions.
# ---------------------------------------------------------------------------


def _ackley(z):
    d = z.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(z**2) / d))
        - np.exp(np.sum(np.cos(2.0 * np.pi * z)) / d)
        + 20.0
        + np.e
    )


def _rastrigin(z):
    return float(10.0 * z.size + np.sum(z**2 - 10.0 * np.cos(2.0 * np.pi * z)))


def _griewank(z):
    # index-symmetric variant: the per-index scaling inside the cosine
    # product is dropped so the function is invariant to input permutations
    return float(np.sum(z**2) / 4000.0 - np.prod(np.cos(z)) + 1.0)


def _levy(z):
    # index-symmetric variant: every coordinate carries the full per-term
    # structure, keeping the global minimum at z = 1 with value 0
    w = 1.0 + (z - 1.0) / 4.0
    return float(
        np.sum(
            np.sin(np.pi * w) ** 2
            + (w - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w + 1.0) ** 2)
            + (w - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w) ** 2)
        )
    )


def _schwefel(z):
    return float(418.9829 * z.size - np.sum(z * np.sin(np.sqrt(np.abs(z)))))


SFU_FUNCTIONS = {
    "ackley": (_ackley, (-32.768, 32.768)),
    "griewank": (_griewank, (-600.0, 600.0)),
    "rastrigin": (_rastrigin, (-5.12, 5.12)),
    "levy": (_levy, (-10.0, 10.0)),
    "schwefel": (_schwefel, (-500.0, 500.0)),
}


def sfu_grid(name: str, grid: int) -> np.ndarray:
    if name not in SFU_FUNCTIONS:
        raise InvalidInputError(
            f"unknown function {name!r}; known: {sorted(SFU_FUNCTIONS)}"
        )
    lo, hi = SFU_FUNCTIONS[name][1]
    return np.linspace(lo, hi, grid)


def sfu_eval(name: str, x, grid: int = 11) -> float:
    """Evaluate a named test function at grid-indexed categorical coordinates.

    Coordinates are sorted before evaluation; for these symmetric functions
    that changes nothing mathematically but makes permutation invariance
    hold bit-exactly despite non-associative float summation.
    """
    levels = sfu_grid(name, grid)
    x = np.asarray(x)
    if np.any(x < 0) or np.any(x >= grid):
        raise InvalidInputError(f"grid indices must lie in 0..{grid - 1}")
    return SFU_FUNCTIONS[name][0](np.sort(levels[x]))


# ---------------------------------------------------------------------------
# Objective bundles and the relocation wrapper.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkObjective:
    """Named objective over a space; deterministic given (point, noise seed)."""

    name: str
    space: SearchSpace
    fn: object  # callable point -> float
    noise_seed: int = 0
    relocation: Relocation | None = None

    def evaluate(self, x) -> float:
        x = self.space.validate_point(x)
        return float(self.fn(x))

    def __call__(self, x) -> float:
        return self.evaluate(x)


def relocate_objective(obj: BenchmarkObjective, seed: int) -> BenchmarkObjective:
    """Move the optimum: ``fn`` reads through the inverse map, built once here,
    and ``relocation`` keeps the forward map.  ``evaluate`` validates the
    point, so ``fn`` maps it unchecked."""
    if obj.relocation is not None:
        raise InvalidInputError("objective already carries a relocation")
    reloc = sample_relocation(obj.space, seed)
    fn, back = obj.fn, reloc.inverse().apply_unchecked
    return replace(
        obj, name=f"{obj.name}[reloc]", fn=lambda x: fn(back(x)), relocation=reloc
    )


def _labs(noise_seed, *, n: int = 50):
    return SearchSpace((2,) * n), labs_energy


def _wcnf(default_vars: int):
    def build(noise_seed, *, path: str | os.PathLike | None = None,
              num_variables: int = default_vars, num_clauses: int = 4 * default_vars,
              seed: int = 0):
        """The instance at ``path``, else a seeded synthetic one."""
        if path is None:
            instance = generate_synthetic_wcnf(num_variables, num_clauses, seed)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                instance = parse_wcnf(fh.read())
        return SearchSpace((2,) * instance.num_variables), lambda x: maxsat_eval(instance, x)

    return build


def _contamination(noise_seed):
    return SearchSpace((2,) * 25), lambda x: contamination_eval(x, noise_seed)


def _pest_control(noise_seed):
    return SearchSpace((5,) * 25), lambda x: pest_control_eval(x, noise_seed)


def _sfu(fn_name: str):
    def build(noise_seed, *, dims: int = 20, grid: int = 11):
        return SearchSpace((grid,) * dims), lambda x: sfu_eval(fn_name, x, grid)

    return build


# name -> builder (noise_seed, **options) -> (space, fn); a builder's keyword
# parameters are the benchmark's options and their annotations the options' types
_BENCHMARKS = {
    "labs": _labs, "maxsat": _wcnf(60), "cluster_expansion": _wcnf(125),
    "contamination": _contamination, "pest_control": _pest_control,
    **{f"sfu_{fn}": _sfu(fn) for fn in sorted(SFU_FUNCTIONS)},
}


def make_benchmark(name: str, noise_seed: int = 0, **options) -> BenchmarkObjective:
    """Construct a benchmark objective by name.

    The options are the keyword parameters of the benchmark's builder in
    ``_BENCHMARKS``.  An unknown option, or a value not of the option's
    annotated type, is an ``InvalidInputError``; an ``int`` option takes an
    integer that is not a bool.
    """
    if name not in _BENCHMARKS:
        raise InvalidInputError(f"unknown benchmark {name!r}; see list_benchmarks()")
    params = inspect.signature(_BENCHMARKS[name], eval_str=True).parameters
    kinds = {k: p.annotation for k, p in params.items() if p.kind is p.KEYWORD_ONLY}
    for key, value in options.items():
        if key not in kinds:
            raise InvalidInputError(f"benchmark {name!r} takes no option {key!r}; "
                                    f"options: {sorted(kinds)}")
        kind = kinds[key]
        integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if not (integer if kind is int else isinstance(value, kind)):
            raise InvalidInputError(f"benchmark {name!r} option {key} must be "
                                    f"{inspect.formatannotation(kind)}, got {value!r}")
    space, fn = _BENCHMARKS[name](noise_seed, **options)
    return BenchmarkObjective(name, space, fn, noise_seed)


def list_benchmarks() -> list[str]:
    return list(_BENCHMARKS)
