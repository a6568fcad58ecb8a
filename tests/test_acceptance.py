"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import itertools
import time

import numpy as np
import pytest

from heatbo import benchmarks as bm
from heatbo import bo, gp, kernels, runner, spectral
from heatbo.space import (
    SearchSpace,
    sample_automorphism,
    sample_relocation,
)
from test_gp import mll_and_grad


def report(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {number:2d} {name}: PASS{suffix}")


def test_criterion_1_kernel_equivalence():
    t0 = time.perf_counter()
    worst = spectral.kernel_route_deviation(101)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    report(1, "three-route kernel equivalence", f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_counterexample_and_conversion():
    t0 = time.perf_counter()
    distinct, counts = spectral.counterexample_eigenvalues()
    np.testing.assert_allclose(distinct, [77, 15, 9, 5, 3, 1], atol=1e-6)
    np.testing.assert_array_equal(counts, [1, 2, 3, 1, 6, 3])
    assert (
        spectral.hamming_to_phi(
            spectral.counterexample_space(), spectral.COUNTEREXAMPLE_PROFILE
        )
        is None
    )
    worst = spectral.conversion_residual(102)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    report(2, "unequal-size counterexample + conversion",
           f"residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_psd_sweep():
    t0 = time.perf_counter()
    worst = spectral.profile_psd_worst_ratio(103)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 30.0
    report(3, "distance-profile PSD sweep", f"worst ratio {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_dictionary_embedding_counterexample():
    result = spectral.bodi_not_hamming_check()
    assert result["A"]["sqrt_hamming"] == 1.0
    assert result["B"]["sqrt_hamming"] == 1.0
    assert result["A"]["embedding_sq_distance"] == 1.0
    assert result["B"]["embedding_sq_distance"] == 0.0
    assert result["reproduced"] is True
    report(4, "dictionary embedding is no distance profile",
           "distances 1 and 0 at equal sqrt-h")


def test_criterion_5_padded_sorting():
    padded, plain = spectral.padded_sorting_distances()
    assert padded == 4
    assert plain == 7
    space = SearchSpace((5,) * 10)
    rng = np.random.default_rng(105)
    profile = ("rbf", {"lengthscale": 2.0})
    for _ in range(1000):
        a, b = space.sample_points(2, rng)
        base = kernels.invariant_eval(space, profile, "padded_proj", a, b)
        pa, pb = rng.permutation(10), rng.permutation(10)
        permuted = kernels.invariant_eval(space, profile, "padded_proj", a[pa], b[pb])
        assert permuted == base  # exact, not approximate
    report(5, "padded sorting", "distance 4 vs 7; 1000 permuted pairs bit-equal")


def test_criterion_6_isotropy_relocation_and_pipeline():
    rng = np.random.default_rng(106)
    specs = {
        "heat": kernels.KernelSpec("heat", {"betas": [0.4], "sigma2": 1.0}, False),
        "hamming_rbf": kernels.KernelSpec(
            "hamming_rbf", {"lengthscale": 1.3, "sigma2": 1.0}, False
        ),
        "hamming_matern52": kernels.KernelSpec(
            "hamming_matern52", {"lengthscale": 0.9, "sigma2": 1.0}, False
        ),
        "hamming_rq": kernels.KernelSpec(
            "hamming_rq", {"lengthscale": 1.1, "alpha": 0.8, "sigma2": 1.0}, False
        ),
    }
    for name, spec in specs.items():
        space = SearchSpace((3, 3, 3, 3))
        pts = space.sample_points(14, rng)
        base = kernels.gram(space, spec, pts)
        for seed in range(20):
            auto = sample_automorphism(space, seed)
            moved = kernels.gram(space, spec, auto.apply_many(pts))
            assert np.max(np.abs(moved - base)) < 1e-12, (name, "automorphism")
            reloc = sample_relocation(space, seed)
            moved = kernels.gram(space, spec, reloc.apply_many(pts))
            assert np.max(np.abs(moved - base)) < 1e-12, (name, "relocation")

    # pipeline-level equivariance on a 10-D binary objective
    space = SearchSpace((2,) * 10)
    hidden = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1])

    def objective(x):
        x = np.asarray(x)
        return float(
            np.count_nonzero(x != hidden)
            + 0.3 * np.count_nonzero(x[:5] != hidden[:5])
        )

    reloc = sample_relocation(space, 1234)
    inv = reloc.inverse()
    moved_objective = lambda x: objective(inv.apply(x))
    spec = kernels.default_spec(space, "heat")
    for seed in range(3):
        init = space.sample_points(8, np.random.default_rng([seed, 77]))
        t_orig = bo.run_bo(objective, space, spec, 8, 8, seed=seed,
                           initial_points=init, measure_time=False)
        t_moved = bo.run_bo(
            moved_objective, space, spec, 8, 8, seed=seed,
            initial_points=reloc.apply_many(init), measure_time=False,
        )
        for a, b in zip(t_orig, t_moved):
            assert abs(a.raw_value - b.raw_value) < 1e-10
            assert tuple(reloc.apply(np.array(a.point))) == b.point
    report(6, "isotropy, relocation and pipeline equivariance")


def test_criterion_7_gp_numerical_correctness():
    rng = np.random.default_rng(107)
    space = SearchSpace((3, 4, 2, 5))
    all_pts = space.enumerate_points()
    idx = rng.choice(len(all_pts), size=12, replace=False)
    train = gp.TrainingSet.from_observations(
        space, all_pts[idx], rng.normal(size=12)
    )
    y = train.standardized()
    families = [
        "heat", "casmopolitan", "rho",
        "hamming_rbf", "hamming_matern52", "hamming_rq",
    ]
    worst = 0.0
    for family in families:
        base = kernels.default_spec(space, family)
        size = kernels.pack_spec(space, base).size
        terms = kernels.fit_terms(space, base, train.points)
        for _ in range(10):
            theta = kernels.pack_spec(space, base) + rng.normal(scale=0.5, size=size)
            spec = kernels.unpack_spec(space, base, theta)
            log_noise = float(rng.uniform(-6, -2))
            _, grad = mll_and_grad(terms, spec, log_noise, y, gp.JITTER_LADDER)
            full = np.concatenate([theta, [log_noise]])
            for j in range(full.size):
                step = 1e-5 * max(1.0, abs(full[j]))
                tp = full.copy(); tp[j] += step
                tm = full.copy(); tm[j] -= step
                vp, *_ = gp._mll_parts(
                    terms, kernels.unpack_spec(space, base, tp[:-1]), tp[-1],
                    y, gp.JITTER_LADDER,
                )
                vm, *_ = gp._mll_parts(
                    terms, kernels.unpack_spec(space, base, tm[:-1]), tm[-1],
                    y, gp.JITTER_LADDER,
                )
                fd = (vp - vm) / (2 * step)
                rel = abs(grad[j] - fd) / max(abs(fd), abs(grad[j]), 1e-8)
                assert rel <= 1e-4, (family, j, rel)
                worst = max(worst, rel)

    # noiseless interpolation at the training points
    spec = kernels.default_spec(space, "heat", betas=np.full(4, 0.5))
    state = gp.make_state(space, train, spec, noise_variance=1e-10)
    means, _ = gp.predict_batch(state, train.points)
    interp_err = float(np.max(np.abs(means - train.raw_targets)))
    assert interp_err <= 1e-4
    report(7, "surrogate gradients and interpolation",
           f"grad rel {worst:.1e}, interp {interp_err:.1e}")


def test_criterion_8_ga_exhaustive_oracle():
    t0 = time.perf_counter()
    space = SearchSpace((4, 4, 4, 4))  # 256 <= 512 points
    target = np.array([1, 2, 3, 0])
    bumps = np.array([3, 3, 3, 3])

    def acq(points):
        d1 = np.count_nonzero(points != target, axis=1).astype(float)
        d2 = np.count_nonzero(points != bumps, axis=1).astype(float)
        return np.exp(-d1) + 0.4 * np.exp(-1.3 * d2)

    config = bo.TrustRegionConfig()
    tr = bo.TrustRegionState(center=(1, 2, 0, 0), radius=3, config=config)
    ball = bo.enumerate_ball(space, np.array(tr.center), tr.radius)
    exact = float(np.max(acq(ball)))
    hits = 0
    for seed in range(100):
        best = bo.ga_optimize(acq, space, tr, bo.GaConfig(), seed)
        if float(acq(best[None])[0]) >= 0.95 * exact:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 95
    assert elapsed < 60.0
    report(8, "GA vs exhaustive oracle", f"{hits}/100 hits, {elapsed:.1f}s")


def test_criterion_9_speedup_direction():
    rows = runner.compare_speed(category_sizes=(8, 16), num_points=200, dims=10)
    pairs = {}
    for row in rows:
        pairs.setdefault(int(row["categories"]), {})[row["kernel"]] = float(
            row["median_ms"]
        )
    for g, timing in pairs.items():
        assert timing["heat_closed_form"] < timing["spectral_numeric"], (g, timing)
    detail = "; ".join(
        f"g={g}: {t['heat_closed_form']:.2f}ms vs {t['spectral_numeric']:.2f}ms"
        for g, t in sorted(pairs.items())
    )
    report(9, "closed form faster than numeric route", detail)


@pytest.mark.slow
def test_criterion_10_desk_scale_bo_beats_random_search():
    t0 = time.perf_counter()
    seeds = range(10)
    init_count, budget = 20, 60
    results = {}
    for label, objective in [
        ("labs-20", bm.make_benchmark("labs", n=20)),
        (
            "ackley-reloc",
            bm.relocate_objective(
                bm.make_benchmark("sfu_ackley", dims=10, grid=11), seed=2026
            ),
        ),
    ]:
        space = objective.space
        spec = kernels.default_spec(space, "heat", ard=False)
        bo_final, rs_final = [], []
        for seed in seeds:
            trace = bo.run_bo(
                objective, space, spec, budget, init_count, seed=seed,
                measure_time=False,
            )
            bo_final.append(trace[-1].incumbent)
            rs = bo.run_bo(objective, space, spec, budget=0, init_count=init_count + budget,
                           seed=seed, measure_time=False)
            rs_final.append(rs[-1].incumbent)
        results[label] = (float(np.median(bo_final)), float(np.median(rs_final)))
        assert results[label][0] < results[label][1], (label, results[label])
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    detail = "; ".join(
        f"{k}: BO {v[0]:.3f} < RS {v[1]:.3f}" for k, v in results.items()
    )
    report(10, "desk-scale pipeline beats random search",
           f"{detail}, {elapsed:.0f}s")


def test_criterion_11_additive_identities():
    rng = np.random.default_rng(111)
    # degree-weight identities
    for _ in range(10):
        n = int(rng.integers(2, 7))
        space = SearchSpace(tuple(int(g) for g in rng.integers(2, 6, size=n)))
        vs = rng.uniform(0.3, 1.5, space.n)
        lo = np.array([-1.0 / (g - 1) for g in space.cardinalities])
        cs = vs * (lo + (1.0 - lo) * rng.uniform(0.05, 0.95, space.n))
        x, y = space.sample_points(2, rng)
        w1 = np.zeros(space.n); w1[0] = 1.0
        wn = np.zeros(space.n); wn[-1] = 1.0
        assert kernels.explainable_additive_eval(
            space, w1, vs, cs, x, y
        ) == pytest.approx(kernels.additive_sum_eval(space, vs, cs, x, y), abs=1e-12)
        base = np.where(np.asarray(x) == np.asarray(y), vs, cs)
        assert kernels.explainable_additive_eval(
            space, wn, vs, cs, x, y
        ) == pytest.approx(float(np.prod(base)), abs=1e-12)
    # symmetric-polynomial recurrence vs subset enumeration
    for n in range(1, 11):
        vals = rng.uniform(-1.0, 1.0, n)
        es = kernels.elementary_symmetric(vals)
        for d in range(n + 1):
            brute = sum(
                np.prod([vals[i] for i in c])
                for c in itertools.combinations(range(n), d)
            )
            assert abs(es[d] - float(brute)) <= 1e-12
    report(11, "additive identities", "degree weights + symmetric recurrence")


def test_criterion_12_maxsat_oracle_and_parser():
    rng = np.random.default_rng(112)
    for trial in range(20):
        nvars = int(rng.integers(4, 13))
        inst = bm.generate_synthetic_wcnf(nvars, int(rng.integers(6, 40)), seed=trial)
        assignments = list(itertools.product([0, 1], repeat=nvars))
        module_values = [bm.maxsat_eval(inst, np.array(a)) for a in assignments]
        # independent brute-force evaluation of every assignment
        norm = inst.normalized_weights()
        brute_values = []
        for a in assignments:
            sat = sum(
                w
                for w, clause in zip(norm, inst.clauses)
                if any(
                    (l > 0 and a[l - 1] == 1) or (l < 0 and a[-l - 1] == 0)
                    for l in clause
                )
            )
            brute_values.append(-sat)
        assert np.argmin(module_values) == np.argmin(brute_values)
        assert min(module_values) == pytest.approx(min(brute_values), abs=1e-12)
        # parser round trip preserves structure
        again = bm.parse_wcnf(bm.serialize_wcnf(inst))
        assert again.clauses == inst.clauses and again.weights == inst.weights
    report(12, "weighted-SAT oracle and parser round trip")
