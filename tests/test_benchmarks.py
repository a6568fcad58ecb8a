import itertools

import numpy as np
import pytest

from heatbo import benchmarks as bm
from heatbo.space import InvalidInputError

# (clause weights, error): a weight that is not finite, and finite weights whose
# mean (1e308, 1e308) or standard deviation (1e308, 1) overflows
NON_FINITE_WEIGHTS = [
    *(pytest.param(("3", w), "line 3: clause weight must be finite", id=w)
      for w in ("nan", "inf", "1e400")),
    pytest.param(("1e308", "1e308"), "clause weights overflow", id="mean-overflow"),
    pytest.param(("1e308", "1"), "clause weights overflow", id="std-overflow"),
]


class TestLabs:
    def test_all_ones_length_three(self):
        # C_1 = 2, C_2 = 1, E = 5
        assert bm.labs_energy([1, 1, 1]) == 5.0

    def test_two_element_alternating(self):
        assert bm.labs_energy([1, 0]) == 1.0

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 2, size=12)
            assert bm.labs_energy(x) == bm.labs_energy(1 - x)

    def test_energy_integer_valued_and_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.integers(0, 2, size=int(rng.integers(2, 20)))
            e = bm.labs_energy(x)
            assert e >= 1.0
            assert e == int(e)

    def test_brute_force_small_oracle(self):
        # direct O(n^2) recomputation with explicit loops
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.integers(0, 2, size=8)
            s = 2 * x - 1
            expected = 0
            for k in range(1, 8):
                c = sum(int(s[i] * s[i + k]) for i in range(8 - k))
                expected += c * c
            assert bm.labs_energy(x) == expected

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInputError):
            bm.labs_energy([0, 1, 2])

    def test_fractional_point_rejected_not_truncated(self):
        obj = bm.make_benchmark("labs", n=4)
        with pytest.raises(InvalidInputError):
            obj([0.9, 0.2, 1.0, 1.0])
        assert obj([0.0, 0.0, 1.0, 1.0]) == obj([0, 0, 1, 1])


class TestWcnfParser:
    def test_two_clause_example(self):
        inst = bm.parse_wcnf("p wcnf 2 2\n3 1 -2 0\n5 2 0\n")
        assert inst.num_clauses == 2
        assert inst.weights == (3.0, 5.0)
        np.testing.assert_allclose(inst.normalized_weights(), [-1.0, 1.0])
        assert abs(np.mean(inst.normalized_weights())) < 1e-10
        assert abs(np.std(inst.normalized_weights()) - 1.0) < 1e-9

    def test_comments_skipped(self):
        inst = bm.parse_wcnf("c a comment\np wcnf 1 1\nc another\n2 1 0\n")
        assert inst.num_clauses == 1

    def test_header_with_top_field(self):
        inst = bm.parse_wcnf("p wcnf 2 1 100\n3 1 2 0\n")
        assert inst.num_variables == 2

    def test_hard_clause_rejected(self):
        with pytest.raises(bm.ParseError, match="hard clause"):
            bm.parse_wcnf("p wcnf 2 1 100\n100 1 2 0\n")

    def test_empty_instance_rejected(self):
        with pytest.raises(bm.ParseError):
            bm.parse_wcnf("p wcnf 2 0\n")

    def test_zero_weight_rejected(self):
        with pytest.raises(bm.ParseError, match="line 2"):
            bm.parse_wcnf("p wcnf 2 1\n0 1 0\n")

    @pytest.mark.parametrize("weights, error", NON_FINITE_WEIGHTS)
    def test_non_finite_weight_rejected(self, weights, error):
        with pytest.raises(bm.ParseError, match=error):  # a RuntimeWarning would fail it
            bm.parse_wcnf("p wcnf 2 2\n{} 1 0\n{} 2 0\n".format(*weights))

    def test_literal_out_of_range(self):
        with pytest.raises(bm.ParseError, match="line 2"):
            bm.parse_wcnf("p wcnf 2 1\n3 5 0\n")

    def test_missing_terminator(self):
        with pytest.raises(bm.ParseError, match="terminating 0"):
            bm.parse_wcnf("p wcnf 2 1\n3 1 2\n")

    def test_malformed_header(self):
        with pytest.raises(bm.ParseError, match="line 1"):
            bm.parse_wcnf("p cnf 2 1\n3 1 0\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("p wcnf two 1\n3 1 0\n", "line 1: non-integer header field"),
            ("p wcnf 0 1\n3 1 0\n", "line 1: need at least one variable"),
            ("c header below\n3 1 0\np wcnf 1 1\n", "line 2: clause before header"),
            ("p wcnf 2 1\n3 1 x 0\n", "line 2: non-numeric token"),
            ("p wcnf 2 2\n3 1 0\n4 0\n", "line 3: empty clause"),
            ("c no header at all\n", "no header line found"),
            ("p wcnf 2 3\n3 1 0\n4 -2 0\n", "declares 3 clauses, found 2"),
        ],
    )
    def test_each_malformed_input_is_a_parse_error(self, text, match):
        with pytest.raises(bm.ParseError, match=match):
            bm.parse_wcnf(text)

    def test_round_trip(self):
        inst = bm.generate_synthetic_wcnf(10, 25, seed=4)
        again = bm.parse_wcnf(bm.serialize_wcnf(inst))
        assert again.clauses == inst.clauses
        assert again.weights == inst.weights

    def test_synthetic_instance_is_frozen(self):
        # capping clause lengths at the variable count must leave every
        # instance with 3 or more variables as it was drawn before
        frozen = (
            "p wcnf 12 30\n7 -3 -4 -2 0\n7 11 -8 -3 0\n2 -7 0\n10 -8 5 9 0\n"
            "6 -5 -12 7 0\n5 10 9 -12 0\n10 -9 -8 0\n6 6 0\n8 -8 5 10 0\n9 -11 -6 0\n"
            "1 -7 -1 0\n6 -10 -7 -4 0\n6 7 0\n4 11 -3 0\n2 8 -9 -10 0\n1 -2 -6 -3 0\n"
            "7 5 -2 9 0\n1 6 12 0\n10 8 10 0\n1 3 2 0\n5 -10 0\n7 -9 -2 -3 0\n"
            "3 10 -2 -6 0\n8 -3 0\n1 11 5 0\n7 11 -2 -3 0\n10 4 0\n10 4 -11 0\n"
            "2 -11 10 0\n7 -6 0\n"
        )
        assert bm.serialize_wcnf(bm.generate_synthetic_wcnf(12, 30, seed=2)) == frozen


class TestMaxsat:
    def test_unit_positive_clauses_all_true(self):
        # every clause satisfied: normalized weights sum to zero
        inst = bm.parse_wcnf("p wcnf 3 3\n1 1 0\n2 2 0\n3 3 0\n")
        assert bm.maxsat_eval(inst, [1, 1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_single_clause(self):
        inst = bm.parse_wcnf("p wcnf 1 1\n4 1 0\n")
        # single weight standardizes to 0 with unit fallback std
        assert bm.maxsat_eval(inst, [1]) == pytest.approx(0.0)
        assert bm.maxsat_eval(inst, [0]) == 0.0

    def test_negative_literals(self):
        inst = bm.parse_wcnf("p wcnf 2 2\n1 -1 0\n3 1 -2 0\n")
        norm = inst.normalized_weights()
        assert bm.maxsat_eval(inst, [0, 0]) == pytest.approx(-(norm[0] + norm[1]))
        assert bm.maxsat_eval(inst, [1, 1]) == pytest.approx(-norm[1])

    def test_brute_force_oracle_on_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            nvars = int(rng.integers(4, 13))
            inst = bm.generate_synthetic_wcnf(nvars, int(rng.integers(5, 40)), seed=trial)
            values = [
                bm.maxsat_eval(inst, np.array(a))
                for a in itertools.product([0, 1], repeat=nvars)
            ]
            # independent oracle: satisfied-weight accumulation per assignment
            norm = inst.normalized_weights()
            direct = []
            for a in itertools.product([0, 1], repeat=nvars):
                sat = 0.0
                for w, clause in zip(norm, inst.clauses):
                    if any(
                        (l > 0 and a[l - 1] == 1) or (l < 0 and a[-l - 1] == 0)
                        for l in clause
                    ):
                        sat += w
                direct.append(-sat)
            np.testing.assert_allclose(values, direct, atol=1e-12)

    def test_wrong_length_rejected(self):
        inst = bm.parse_wcnf("p wcnf 3 1\n1 1 0\n")
        with pytest.raises(InvalidInputError):
            bm.maxsat_eval(inst, [0, 1])


class TestConstants:
    def test_read_only_at_every_level(self):
        constants = bm.BENCHMARK_CONSTANTS
        with pytest.raises(TypeError):
            constants["monte_carlo_samples"] = 1
        with pytest.raises(TypeError):
            constants["pest_control"]["stations"] = 3
        with pytest.raises(TypeError):
            constants["pest_control"]["control_beta"][0] = 1.0
        with pytest.raises(TypeError):
            del constants["contamination"]["stages"]

    @pytest.mark.parametrize(
        "objective, x, noise_seed, frozen",
        [
            (bm.pest_control_eval, "3404223140112200000403311", 0, "0x1.49cac083126eap+4"),
            (bm.pest_control_eval, "2140434013233304241140013", 1, "0x1.214c985f06f69p+4"),
            (bm.pest_control_eval, "0411244410333002124121140", 2, "0x1.2594af4f0d844p+4"),
            (bm.contamination_eval, "0000110011000011101101001", 0, "0x1.94a3d70a3d70bp+4"),
            (bm.contamination_eval, "1011001110010110010111101", 1, "0x1.8028f5c28f5c2p+4"),
        ],
    )
    def test_objective_values_unchanged(self, objective, x, noise_seed, frozen):
        # the values the simulators gave while the table was a plain dict
        x = np.array([int(c) for c in x])
        assert objective(x, noise_seed).hex() == frozen


class TestContamination:
    def test_all_prevention_cost_floor(self):
        cost = bm.contamination_eval(np.ones(25, dtype=int), 0)
        assert cost >= 25.0 * bm.BENCHMARK_CONSTANTS["contamination"]["prevention_cost"]

    def test_determinism(self):
        x = np.random.default_rng(6).integers(0, 2, size=25)
        assert bm.contamination_eval(x, 11) == bm.contamination_eval(x, 11)

    def test_different_seeds_differ(self):
        x = np.zeros(25, dtype=int)
        assert bm.contamination_eval(x, 1) != bm.contamination_eval(x, 2)

    def test_prevention_never_increases_violations(self):
        for seed in range(5):
            full = bm.contamination_violation_curve(np.ones(25, dtype=int), seed)
            none = bm.contamination_violation_curve(np.zeros(25, dtype=int), seed)
            assert np.all(full <= none)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            bm.contamination_eval(np.zeros(10, dtype=int), 0)


class TestPestControl:
    def test_determinism(self):
        x = np.random.default_rng(7).integers(0, 5, size=25)
        assert bm.pest_control_eval(x, 3) == bm.pest_control_eval(x, 3)

    def test_do_nothing_worse_than_greedy(self):
        do_nothing = np.zeros(25, dtype=int)
        baseline = bm.pest_control_eval(do_nothing, 0)
        greedy = np.zeros(25, dtype=int)
        for i in range(25):
            best_c, best_v = 0, np.inf
            for c in range(5):
                greedy[i] = c
                v = bm.pest_control_eval(greedy, 0)
                if v < best_v:
                    best_c, best_v = c, v
            greedy[i] = best_c
        assert bm.pest_control_eval(greedy, 0) < baseline

    def test_relocated_variant_identity(self):
        obj = bm.make_benchmark("pest_control")
        robj = bm.relocate_objective(obj, 5)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = obj.space.sample_points(1, rng)[0]
            assert robj.evaluate(robj.relocation.apply(x)) == obj.evaluate(x)

    def test_wrong_space_rejected(self):
        with pytest.raises(InvalidInputError):
            bm.pest_control_eval(np.full(25, 7), 0)


class TestSfu:
    def test_ackley_zero_at_center_category(self):
        # grid 11 on a symmetric domain puts 0 at category 5
        assert bm.sfu_eval("ackley", np.full(20, 5)) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 11, size=20)
        for name in bm.SFU_FUNCTIONS:
            base = bm.sfu_eval(name, x)
            for _ in range(20):
                perm = rng.permutation(20)
                assert bm.sfu_eval(name, x[perm]) == base

    def test_grid_endpoints_map_to_domain_bounds(self):
        for name, (_, (lo, hi)) in bm.SFU_FUNCTIONS.items():
            levels = bm.sfu_grid(name, 11)
            assert levels[0] == lo and levels[-1] == hi

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            bm.sfu_eval("rosenbrock", np.zeros(5, dtype=int))

    def test_minima_locations(self):
        # rastrigin/griewank at 0, levy at 1 (off-grid), schwefel near 420.97
        assert bm.sfu_eval("rastrigin", np.full(20, 5)) == pytest.approx(0.0, abs=1e-10)
        assert bm.sfu_eval("griewank", np.full(20, 5)) == pytest.approx(0.0, abs=1e-10)
        z = np.ones(4)
        assert bm.SFU_FUNCTIONS["levy"][0](z) == pytest.approx(0.0, abs=1e-12)
        z = np.full(3, 420.9687)
        assert bm.SFU_FUNCTIONS["schwefel"][0](z) == pytest.approx(0.0, abs=1e-2)


class TestRelocationWrapper:
    def test_identity_relocation_is_noop(self):
        obj = bm.make_benchmark("labs", n=6)
        # scan seeds for one that samples the identity by chance
        identity_seed = None
        for seed in range(2000):
            robj = bm.relocate_objective(obj, seed)
            if robj.relocation.is_identity():
                identity_seed = seed
                break
        assert identity_seed is not None
        robj = bm.relocate_objective(obj, identity_seed)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = obj.space.sample_points(1, rng)[0]
            assert robj.evaluate(x) == obj.evaluate(x)

    def test_value_multiset_preserved(self):
        obj = bm.make_benchmark("maxsat", num_variables=8, num_clauses=20, seed=1)
        robj = bm.relocate_objective(obj, 7)
        pts = obj.space.enumerate_points()
        orig = sorted(obj.evaluate(p) for p in pts)
        moved = sorted(robj.evaluate(p) for p in pts)
        np.testing.assert_allclose(orig, moved, atol=1e-12)

    def test_minimum_preserved_and_relocated(self):
        obj = bm.make_benchmark("labs", n=8)
        robj = bm.relocate_objective(obj, 3)
        pts = obj.space.enumerate_points()
        vals = np.array([obj.evaluate(p) for p in pts])
        x_star = pts[int(np.argmin(vals))]
        assert robj.evaluate(robj.relocation.apply(x_star)) == vals.min()

    @pytest.mark.parametrize("name, options", [
        ("labs", dict(n=50)),
        ("sfu_ackley", dict(dims=10, grid=11)),
        ("pest_control", {}),
    ])
    def test_values_bitwise_those_of_the_validated_inverse_map(self, name, options):
        obj = bm.make_benchmark(name, **options)
        robj = bm.relocate_objective(obj, 4)
        back = robj.relocation.inverse()
        for x in obj.space.sample_points(20, np.random.default_rng(11)):
            assert robj.evaluate(x) == obj.fn(back.apply(x))
        for bad in (np.full(obj.space.n, 11), np.zeros(obj.space.n + 1, dtype=int)):
            with pytest.raises(InvalidInputError):
                robj.evaluate(bad)

    def test_double_relocation_rejected(self):
        obj = bm.relocate_objective(bm.make_benchmark("labs", n=6), 0)
        with pytest.raises(InvalidInputError):
            bm.relocate_objective(obj, 1)


class TestRegistry:
    def test_all_listed_benchmarks_construct_and_evaluate(self):
        rng = np.random.default_rng(11)
        for name in bm.list_benchmarks():
            obj = bm.make_benchmark(name)
            x = obj.space.sample_points(1, rng)[0]
            value = obj.evaluate(x)
            assert np.isfinite(value)
            assert obj.evaluate(x) == value  # deterministic

    def test_expected_dimensions(self):
        assert bm.make_benchmark("labs").space.n == 50
        assert bm.make_benchmark("maxsat").space.n == 60
        assert bm.make_benchmark("cluster_expansion").space.n == 125
        assert bm.make_benchmark("contamination").space.n == 25
        pest = bm.make_benchmark("pest_control").space
        assert pest.n == 25 and pest.cardinalities[0] == 5
        sfu = bm.make_benchmark("sfu_ackley").space
        assert sfu.n == 20 and sfu.cardinalities[0] == 11

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(InvalidInputError):
            bm.make_benchmark("nonexistent")

    def test_maxsat_from_file(self, tmp_path):
        path = tmp_path / "instance.wcnf"
        path.write_text(bm.serialize_wcnf(bm.generate_synthetic_wcnf(12, 30, seed=2)))
        obj = bm.make_benchmark("maxsat", path=path)
        assert obj.space.n == 12
        assert bm.make_benchmark("maxsat", path=str(path)).space.n == 12

    def test_malformed_maxsat_file_is_rejected_input(self, tmp_path):
        path = tmp_path / "instance.wcnf"
        path.write_text("p wcnf 2 1\n3 5 0\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            bm.make_benchmark("maxsat", path=path)

    @pytest.mark.parametrize("num_variables, num_clauses", [(8, 0), (0, 8), (-1, 3)])
    def test_empty_synthetic_maxsat_rejected(self, num_variables, num_clauses):
        with pytest.raises(InvalidInputError, match="at least one variable and one clause"):
            bm.make_benchmark("maxsat", num_variables=num_variables, num_clauses=num_clauses)

    def test_synthetic_maxsat_with_two_variables(self):
        assert bm.make_benchmark("maxsat", num_variables=2, num_clauses=10).space.n == 2
        inst = bm.generate_synthetic_wcnf(2, 10, seed=0)
        assert {abs(lit) for clause in inst.clauses for lit in clause} <= {1, 2}

    @pytest.mark.parametrize("name, options", [
        ("labs", dict(m=3)),
        ("contamination", dict(n=25)),
        ("sfu_ackley", dict(n=5)),
        ("labs", dict(n=7.9)),
        ("labs", dict(n=7.0)),
        ("labs", dict(n=True)),
        ("labs", dict(n="abc")),
        ("sfu_levy", dict(grid=np.float64(11))),
        ("maxsat", dict(seed=False)),
        ("cluster_expansion", dict(path=3)),
    ])
    def test_unknown_or_mistyped_option_rejected(self, name, options):
        with pytest.raises(InvalidInputError):
            bm.make_benchmark(name, **options)

    def test_numpy_integer_is_an_integer(self):
        assert bm.make_benchmark("labs", n=np.int64(7)).space.n == 7

    def test_values_bitwise_those_of_the_evaluators(self):
        """Each benchmark, listed in this order, evaluates at its defaults and
        noise seed 3 exactly as the module-level function it names."""
        direct = {
            "labs": bm.labs_energy,
            "maxsat": lambda x: bm.maxsat_eval(bm.generate_synthetic_wcnf(60, 240, 0), x),
            "cluster_expansion": lambda x: bm.maxsat_eval(
                bm.generate_synthetic_wcnf(125, 500, 0), x
            ),
            "contamination": lambda x: bm.contamination_eval(x, 3),
            "pest_control": lambda x: bm.pest_control_eval(x, 3),
            **{f"sfu_{f}": lambda x, f=f: bm.sfu_eval(f, x, 11) for f in sorted(bm.SFU_FUNCTIONS)},
        }
        assert bm.list_benchmarks() == list(direct)
        rng = np.random.default_rng(5)
        for name in bm.list_benchmarks():
            obj = bm.make_benchmark(name, noise_seed=3)
            for x in obj.space.sample_points(3, rng):
                got, want = np.float64(obj.evaluate(x)), np.float64(direct[name](x))
                assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: bm.labs_energy([[0, 1]]), "sequence must be one-dimensional"),
        (lambda: bm.maxsat_eval(bm.generate_synthetic_wcnf(3, 5, seed=0), [2, 0, 0]),
         "assignment must be binary"),
        (lambda: bm.sfu_eval("ackley", [11, 0], grid=11), r"grid indices must lie in 0\.\.10"),
        (lambda: bm.option_types("bogus"), r"unknown benchmark 'bogus'; known: \[.*'labs'"),
        (lambda: bm.make_benchmark("pest_control", noise_seed=-1), "noise_seed must be >= 0"),
    ],
    ids=["labs-ndim", "maxsat-binary", "sfu-grid", "benchmark-name", "noise-seed"],
)
def test_rejected_input(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()
