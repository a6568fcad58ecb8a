import itertools
import operator
import re
import zlib
from functools import reduce
from math import frexp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatbo import gp
from heatbo import kernels as kn
from heatbo.space import (
    InvalidInputError,
    SearchSpace,
    sample_automorphism,
    sample_relocation,
)
from heatbo.spectral import combo_gram_numeric


def random_space(rng, max_n=5, max_g=6, min_n=1):
    n = int(rng.integers(min_n, max_n + 1))
    return SearchSpace(tuple(int(g) for g in rng.integers(2, max_g + 1, size=n)))


def spec_for(space, family, rng):
    """Random valid KernelSpec for PSD / invariance sweeps."""
    n = space.n
    if family in ("heat", "combo"):
        return kn.KernelSpec(family, {"betas": rng.uniform(0.05, 2.0, n), "sigma2": 1.0})
    if family == "casmopolitan":
        return kn.KernelSpec(
            family, {"lengthscales": rng.uniform(0.1, 4.0, n), "sigma2": 1.0}
        )
    if family == "rho":
        lo = np.array([-1.0 / (g - 1) for g in space.cardinalities])
        rhos = lo + (1.0 - lo) * rng.uniform(0.05, 0.95, n)
        return kn.KernelSpec(family, {"rhos": rhos, "sigma2": 1.0})
    if family == "hamming_rbf":
        return kn.KernelSpec(
            family, {"lengthscale": rng.uniform(0.5, 3.0), "sigma2": 1.0}, False
        )
    if family == "hamming_matern52":
        return kn.KernelSpec(
            family, {"lengthscale": rng.uniform(0.5, 3.0), "sigma2": 1.0}, False
        )
    if family == "hamming_rq":
        return kn.KernelSpec(
            family,
            {"lengthscale": rng.uniform(0.5, 3.0), "alpha": rng.uniform(0.3, 3.0),
             "sigma2": 1.0},
            False,
        )
    if family in ("additive_sum", "random_decomposition", "explainable_additive"):
        vs = rng.uniform(0.2, 1.5, n)
        lo = np.array([-1.0 / (g - 1) for g in space.cardinalities])
        cs = vs * (lo + (1.0 - lo) * rng.uniform(0.05, 0.95, n))
        params = {"vs": vs, "cs": cs}
        if family == "random_decomposition":
            params["decomposition"] = kn.sample_decomposition(space, int(rng.integers(1000)))
        if family == "explainable_additive":
            params["degree_weights"] = rng.uniform(0.0, 1.0, n)
        return kn.KernelSpec(family, params)
    raise ValueError(family)


class TestHeat:
    def test_diagonal_is_sigma2(self):
        sp = SearchSpace((3, 4))
        assert kn.heat_eval(sp, [0.5, 0.5], [1, 2], [1, 2], sigma2=2.5) == 2.5

    def test_beta_zero_gives_white_kernel(self):
        sp = SearchSpace((3, 3))
        assert kn.heat_eval(sp, [0.0, 0.0], [0, 0], [0, 1]) == 0.0

    def test_single_mismatch_correlation(self):
        sp = SearchSpace((3, 3))
        got = kn.heat_eval(sp, [0.5, 0.5], [0, 0], [0, 1])
        expected = (1 - np.exp(-1.5)) / (1 + 2 * np.exp(-1.5))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5372, abs=1e-4)

    def test_matches_numeric_oracle_up_to_scale(self):
        sp = SearchSpace((3, 3))
        rng = np.random.default_rng(0)
        pts = sp.enumerate_points()
        betas = [0.5, 0.5]
        heat = kn.gram(sp, kn.KernelSpec("heat", {"betas": betas, "sigma2": 1.0}), pts)
        numeric = combo_gram_numeric(sp, betas, pts)
        np.testing.assert_allclose(
            heat / heat[0, 0], numeric / numeric[0, 0], atol=1e-10
        )

    def test_negative_beta_rejected(self):
        sp = SearchSpace((3, 3))
        with pytest.raises(InvalidInputError):
            kn.heat_eval(sp, [-0.1, 0.5], [0, 0], [0, 1])

    def test_heat_rho_called_once_per_mismatching_dimension(self, monkeypatch):
        sp = SearchSpace((4, 4, 4, 4, 4, 4, 4))
        rng = np.random.default_rng(1)
        x, y = sp.sample_points(2, rng)
        calls = []
        real = kn.heat_rho
        monkeypatch.setattr(
            kn, "heat_rho", lambda beta, g: calls.append(g) or real(beta, g)
        )
        kn.heat_eval(sp, np.full(7, 0.3), x, y)
        assert len(calls) == np.count_nonzero(x != y) <= sp.n
        calls.clear()
        kn.heat_eval(sp, np.full(7, 0.3), x, x)
        assert calls == []

    def test_ard_consistency(self):
        sp = SearchSpace((3, 5, 2))
        rng = np.random.default_rng(2)
        pts = sp.sample_points(10, rng)
        shared = kn.gram(
            sp, kn.KernelSpec("heat", {"betas": [0.4], "sigma2": 1.0}, ard=False), pts
        )
        ard = kn.gram(
            sp, kn.KernelSpec("heat", {"betas": [0.4] * 3, "sigma2": 1.0}), pts
        )
        np.testing.assert_array_equal(shared, ard)


class TestCasmo:
    def test_diagonal_normalized(self):
        sp = SearchSpace((3, 3))
        assert kn.casmo_eval(sp, [1.0, 2.0], [0, 1], [0, 1], sigma2=3.0) == 3.0

    def test_gamma_mapping_reproduces_correlation(self):
        sp = SearchSpace((3,))
        beta = 0.8
        gamma = kn.beta_to_gamma(beta, 3)
        ell = sp.n * gamma
        ratio = kn.casmo_eval(sp, [ell], [0], [1]) / kn.casmo_eval(sp, [ell], [0], [0])
        assert ratio == pytest.approx(kn.heat_rho(beta, 3), abs=1e-12)

    def test_equals_one_hot_rbf_on_binary_space(self):
        # brute-force over all 2^4 pairs against an explicit one-hot RBF
        sp = SearchSpace((2, 2, 2, 2))
        ell = 1.7
        ell_rbf = np.sqrt(sp.n / ell)  # matched lengthscale
        pts = sp.enumerate_points()
        for x in pts:
            for y in pts:
                zx = np.concatenate([[xi == 0, xi == 1] for xi in x]).astype(float)
                zy = np.concatenate([[yi == 0, yi == 1] for yi in y]).astype(float)
                rbf = np.exp(-np.sum((zx - zy) ** 2) / (2 * ell_rbf**2))
                got = kn.casmo_eval(sp, [ell], x, y)
                assert got == pytest.approx(rbf, abs=1e-10)

    def test_nonpositive_lengthscale_rejected(self):
        sp = SearchSpace((3, 3))
        with pytest.raises(InvalidInputError):
            kn.casmo_eval(sp, [0.0, 1.0], [0, 0], [0, 1])


class TestBetaToGamma:
    def test_large_beta_gives_small_gamma(self):
        assert kn.beta_to_gamma(50.0, 3) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        assert kn.beta_to_gamma(np.log(3) / 2, 2) == pytest.approx(np.log(2), abs=1e-12)

    def test_strictly_decreasing(self):
        betas = np.linspace(0.01, 5.0, 50)
        gammas = [kn.beta_to_gamma(b, 4) for b in betas]
        assert np.all(np.diff(gammas) < 0)

    def test_beta_zero_is_range_error(self):
        with pytest.raises(InvalidInputError):
            kn.beta_to_gamma(0.0, 3)

    def test_round_trip_gram_proportionality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sp = random_space(rng)
            betas = rng.uniform(0.05, 2.0, sp.n)
            pts = sp.sample_points(12, rng)
            heat = kn.gram(sp, kn.KernelSpec("heat", {"betas": betas, "sigma2": 1.0}), pts)
            ells = kn.heat_betas_to_casmo_lengthscales(sp, betas)
            casmo = kn.gram(
                sp, kn.KernelSpec("casmopolitan", {"lengthscales": ells, "sigma2": 1.0}), pts
            )
            np.testing.assert_allclose(
                heat / heat[0, 0], casmo / casmo[0, 0], atol=1e-10
            )


class TestHammingFamilies:
    def test_diagonal_value(self):
        sp = SearchSpace((4, 4))
        for family, params in [
            ("rbf", {"lengthscale": 1.3}),
            ("matern52", {"lengthscale": 0.8}),
            ("rq", {"lengthscale": 1.1, "alpha": 0.7}),
        ]:
            assert kn.hamming_family_eval(sp, family, params, [1, 2], [1, 2], 2.0) == 2.0

    def test_rbf_unit_distance(self):
        sp = SearchSpace((4, 4))
        got = kn.hamming_family_eval(sp, "rbf", {"lengthscale": 1.0}, [0, 0], [0, 1])
        assert got == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_matern_formula(self):
        sp = SearchSpace((4, 4, 4))
        ell = 1.4
        d = np.sqrt(2.0)
        t = np.sqrt(5) * d / ell
        expected = (1 + t + t**2 / 3) * np.exp(-t)
        got = kn.hamming_family_eval(
            sp, "matern52", {"lengthscale": ell}, [0, 0, 0], [1, 1, 0]
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_rq_formula(self):
        sp = SearchSpace((4, 4, 4))
        got = kn.hamming_family_eval(
            sp, "rq", {"lengthscale": 2.0, "alpha": 1.5}, [0, 0, 0], [1, 1, 1]
        )
        expected = (1 + 3.0 / (2 * 1.5 * 4.0)) ** (-1.5)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_gram_psd_sweep(self):
        rng = np.random.default_rng(4)
        for family in ("hamming_rbf", "hamming_matern52", "hamming_rq"):
            for _ in range(10):
                sp = random_space(rng)
                pts = sp.sample_points(int(rng.integers(5, 30)), rng)
                gram = kn.gram(sp, spec_for(sp, family, rng), pts)
                eigs = np.linalg.eigvalsh(gram)
                assert eigs.min() >= -1e-8 * eigs.max()


class TestRho:
    def test_zero_correlations_give_white_kernel(self):
        sp = SearchSpace((3, 3))
        # open-interval constraint allows values arbitrarily close to zero
        assert kn.rho_eval(sp, [1e-300, 1e-300], [0, 1], [0, 1], 2.0) == 2.0
        assert kn.rho_eval(sp, [1e-300, 1e-300], [0, 1], [1, 1]) < 1e-299

    def test_negative_correlation_gram_is_psd(self):
        sp = SearchSpace((2, 2))
        pts = sp.enumerate_points()
        gram = kn.gram(sp, kn.KernelSpec("rho", {"rhos": [-0.9, -0.9], "sigma2": 1.0}), pts)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10 * eigs.max()

    def test_reproduces_heat(self):
        sp = SearchSpace((3, 5, 2))
        rng = np.random.default_rng(5)
        betas = rng.uniform(0.1, 1.0, 3)
        rhos = [kn.heat_rho(b, g) for b, g in zip(betas, sp.cardinalities)]
        x, y = sp.sample_points(2, rng)
        assert kn.rho_eval(sp, rhos, x, y) == pytest.approx(
            kn.heat_eval(sp, betas, x, y), abs=1e-15
        )

    def test_out_of_range_rejected(self):
        sp = SearchSpace((3, 3))
        with pytest.raises(InvalidInputError):
            kn.rho_eval(sp, [1.0, 0.5], [0, 0], [0, 1])
        with pytest.raises(InvalidInputError):
            kn.rho_eval(sp, [-0.6, 0.5], [0, 0], [0, 1])  # lo = -0.5 for g=3


class TestAdditiveFamilies:
    def test_sum_diagonal(self):
        sp = SearchSpace((3, 3))
        assert kn.additive_sum_eval(sp, [1.0, 2.0], [0.1, 0.2], [0, 1], [0, 1]) == 3.0

    def test_sum_single_mismatch(self):
        sp = SearchSpace((3, 3))
        assert kn.additive_sum_eval(sp, [1.0, 1.0], [0.0, 0.0], [0, 0], [0, 1]) == 1.0

    def test_sum_gram_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            sp = random_space(rng)
            pts = sp.sample_points(15, rng)
            gram = kn.gram(sp, spec_for(sp, "additive_sum", rng), pts)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-8 * max(eigs.max(), 1e-30)

    def test_decomposition_full_component_equals_product(self):
        sp = SearchSpace((3, 3, 3))
        rng = np.random.default_rng(7)
        vs = rng.uniform(0.5, 1.5, 3)
        cs = vs * 0.4
        decomp = kn.Decomposition(((0, 1, 2),))
        x, y = sp.sample_points(2, rng)
        got = kn.random_decomposition_eval(sp, decomp, vs, cs, x, y)
        base = np.where(np.asarray(x) == np.asarray(y), vs, cs)
        assert got == pytest.approx(float(np.prod(base)), abs=1e-14)

    def test_decomposition_singletons_equal_additive_sum(self):
        sp = SearchSpace((3, 3, 3))
        rng = np.random.default_rng(8)
        vs = rng.uniform(0.5, 1.5, 3)
        cs = vs * 0.4
        decomp = kn.Decomposition(((0,), (1,), (2,)))
        x, y = sp.sample_points(2, rng)
        assert kn.random_decomposition_eval(sp, decomp, vs, cs, x, y) == pytest.approx(
            kn.additive_sum_eval(sp, vs, cs, x, y), abs=1e-14
        )

    def test_decomposition_separates_components(self):
        # changing the dim-2 match only shifts the additive term by v2 - c2
        sp = SearchSpace((2, 2, 2))
        vs = np.array([1.0, 0.7, 1.3])
        cs = np.array([0.2, 0.1, 0.5])
        decomp = kn.Decomposition(((0, 1), (2,)))
        for x01 in itertools.product([0, 1], repeat=2):
            x = np.array([*x01, 0])
            y_match = np.array([0, 0, 0])
            y_mismatch = np.array([0, 0, 1])
            diff = kn.random_decomposition_eval(
                sp, decomp, vs, cs, x, y_match
            ) - kn.random_decomposition_eval(sp, decomp, vs, cs, x, y_mismatch)
            assert diff == pytest.approx(vs[2] - cs[2], abs=1e-14)

    def test_sampled_decomposition_covers_dimensions(self):
        sp = SearchSpace((3,) * 9)
        for seed in range(10):
            decomp = kn.sample_decomposition(sp, seed)
            assert decomp.covers(sp.n)
            assert all(len(c) <= 3 for c in decomp.components)

    def test_explainable_first_degree_is_sum(self):
        sp = SearchSpace((4, 4, 4))
        rng = np.random.default_rng(9)
        vs = rng.uniform(0.5, 1.5, 3)
        cs = vs * 0.3
        w = np.array([1.0, 0.0, 0.0])
        x, y = sp.sample_points(2, rng)
        assert kn.explainable_additive_eval(sp, w, vs, cs, x, y) == pytest.approx(
            kn.additive_sum_eval(sp, vs, cs, x, y), abs=1e-12
        )

    def test_explainable_top_degree_is_product(self):
        sp = SearchSpace((4, 4, 4))
        rng = np.random.default_rng(10)
        vs = rng.uniform(0.5, 1.5, 3)
        cs = vs * 0.3
        w = np.array([0.0, 0.0, 1.0])
        x, y = sp.sample_points(2, rng)
        base = np.where(np.asarray(x) == np.asarray(y), vs, cs)
        assert kn.explainable_additive_eval(sp, w, vs, cs, x, y) == pytest.approx(
            float(np.prod(base)), abs=1e-12
        )

    def test_newton_girard_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            vals = rng.uniform(-1.0, 1.0, n)
            es = kn.elementary_symmetric(vals)
            for d in range(n + 1):
                brute = sum(
                    np.prod([vals[i] for i in c])
                    for c in itertools.combinations(range(n), d)
                )
                assert es[d] == pytest.approx(float(brute), abs=1e-12)


class TestPadSort:
    def test_reference_example(self):
        sp = SearchSpace((5,) * 10)
        x = [0, 0, 0, 1, 1, 2, 3, 3, 4, 4]
        xp = [4, 4, 0, 1, 1, 2, 3, 3, 4, 4]
        assert kn.padded_hamming_distance(sp, x, xp) == 4
        assert int(np.count_nonzero(np.sort(x) != np.sort(xp))) == 7

    def test_padded_vector_structure(self):
        sp = SearchSpace((3,) * 4)
        pv = kn.pad_sort(sp, [2, 0, 0, 1])
        assert pv.symbols == (0, 0, -1, -1, 1, -1, -1, -1, 2, -1, -1, -1)

    def test_permutation_invariant_encoding(self):
        sp = SearchSpace((4,) * 6)
        rng = np.random.default_rng(12)
        x = sp.sample_points(1, rng)[0]
        for _ in range(10):
            perm = rng.permutation(6)
            assert kn.pad_sort(sp, x[perm]) == kn.pad_sort(sp, x)

    def test_padded_distance_matches_vector_hamming(self):
        sp = SearchSpace((3,) * 5)
        rng = np.random.default_rng(13)
        for _ in range(25):
            x, y = sp.sample_points(2, rng)
            a = np.array(kn.pad_sort(sp, x).symbols)
            b = np.array(kn.pad_sort(sp, y).symbols)
            assert kn.padded_hamming_distance(sp, x, y) == int(np.count_nonzero(a != b))

    def test_unequal_alphabets_rejected(self):
        with pytest.raises(InvalidInputError):
            kn.pad_sort(SearchSpace((2, 3)), [0, 0])


class TestInvariantWrappers:
    def test_projection_collapses_permutations(self):
        sp = SearchSpace((4,) * 5)
        inner = lambda a, b: kn.heat_eval(sp, np.full(5, 0.5), a, b, sigma2=1.7)
        rng = np.random.default_rng(14)
        x = sp.sample_points(1, rng)[0]
        perm = rng.permutation(5)
        got = kn.invariant_eval(sp, inner, "proj", x, x[perm])
        assert got == pytest.approx(1.7, abs=1e-12)

    def test_padded_projection_uses_count_distance(self):
        sp = SearchSpace((5,) * 10)
        x = [0, 0, 0, 1, 1, 2, 3, 3, 4, 4]
        xp = [4, 4, 0, 1, 1, 2, 3, 3, 4, 4]
        got = kn.invariant_eval(sp, ("rbf", {"lengthscale": 2.0}), "padded_proj", x, xp)
        assert got == pytest.approx(np.exp(-4.0 / 2.0**2), abs=1e-12)

    def test_sum_mode_exhaustive_invariance(self):
        sp = SearchSpace((2, 2, 2))
        inner = lambda a, b: kn.heat_eval(sp, np.full(3, 0.6), a, b)
        rng = np.random.default_rng(15)
        x, y = sp.sample_points(2, rng)
        ref = kn.invariant_eval(sp, inner, "sum", x, y, samples=None)
        for perm in itertools.permutations(range(3)):
            got = kn.invariant_eval(sp, inner, "sum", x[list(perm)], y, samples=None)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_sum_mode_seeded_sampling_is_deterministic(self):
        sp = SearchSpace((3,) * 4)
        inner = lambda a, b: kn.heat_eval(sp, np.full(4, 0.6), a, b)
        rng = np.random.default_rng(16)
        x, y = sp.sample_points(2, rng)
        a = kn.invariant_eval(sp, inner, "sum", x, y, samples=10, seed=3)
        b = kn.invariant_eval(sp, inner, "sum", x, y, samples=10, seed=3)
        assert a == b

    def test_prod_mode_runs(self):
        sp = SearchSpace((2, 2))
        inner = lambda a, b: kn.heat_eval(sp, np.full(2, 1.0), a, b) + 0.5
        x, y = np.array([0, 1]), np.array([1, 1])
        got = kn.invariant_eval(sp, inner, "prod", x, y, samples=None)
        terms = [
            inner(x[list(p)], y[list(q)])
            for p in itertools.permutations(range(2))
            for q in itertools.permutations(range(2))
        ]
        assert got == pytest.approx(float(np.prod(terms)), abs=1e-12)

    def test_zero_samples_rejected(self):
        sp = SearchSpace((2, 2))
        inner = lambda a, b: 1.0
        with pytest.raises(InvalidInputError):
            kn.invariant_eval(sp, inner, "sum", [0, 0], [1, 1], samples=0)


INVARIANT_MODES = ("sum", "proj", "padded_proj", "prod")


def bits(x):
    """The IEEE bit patterns: equal bits, not merely equal values (-0.0, NaN)."""
    return np.asarray(x, dtype=float).view(np.uint64)


def invariant_spec(space, mode, samples=3, seed=0):
    """An invariant spec around a distance profile, which every mode takes."""
    params = {"inner": kn.default_spec(space, "hamming_rbf"), "mode": mode,
              "samples": samples, "seed": seed}
    return kn.KernelSpec("invariant", params, False)


class TestInvariantValidation:
    @pytest.mark.parametrize("mode", INVARIANT_MODES)
    def test_unequal_cardinalities_rejected(self, mode):
        sp = SearchSpace((2, 3))
        spec = invariant_spec(sp, mode)
        with pytest.raises(InvalidInputError, match="alphabet"):
            kn.validate_spec(sp, spec)
        # a permuted row may or may not leave its range: rejected either way
        for pts in ([[0, 1], [1, 0]], [[0, 2], [1, 2]]):
            with pytest.raises(InvalidInputError, match="alphabet"):
                kn.gram(sp, spec, pts)

    @pytest.mark.parametrize("samples", [2.5, True, False, 0, -1, "3"])
    @pytest.mark.parametrize("mode", INVARIANT_MODES)
    def test_samples_must_be_none_or_a_positive_int(self, mode, samples):
        sp = SearchSpace((3, 3))
        with pytest.raises(InvalidInputError, match="samples"):
            kn.validate_spec(sp, invariant_spec(sp, mode, samples))

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
    @pytest.mark.parametrize("mode", INVARIANT_MODES)
    def test_seed_must_be_a_non_negative_int(self, mode, seed):
        sp = SearchSpace((3, 3))
        with pytest.raises(InvalidInputError, match="seed must be an int >= 0"):
            kn.validate_spec(sp, invariant_spec(sp, mode, seed=seed))

    @pytest.mark.parametrize("samples", [None, 1, np.int64(4)])
    @pytest.mark.parametrize("mode", INVARIANT_MODES)
    def test_valid_samples_accepted(self, mode, samples):
        sp = SearchSpace((3, 3))
        kn.gram(sp, invariant_spec(sp, mode, samples), [[0, 1], [2, 2]])


MATCH_BASED = (
    "heat", "combo", "casmopolitan", "rho",
    "hamming_rbf", "hamming_matern52", "hamming_rq",
    "additive_sum", "random_decomposition", "explainable_additive",
)


def scalar_oracle(space, spec, x, y):
    """The family's independent ``*_eval`` value for one pair."""
    p, family = spec.params, spec.family
    if family in ("heat", "combo"):
        return kn.heat_eval(space, p["betas"], x, y, spec.sigma2)
    if family == "casmopolitan":
        return kn.casmo_eval(space, p["lengthscales"], x, y, spec.sigma2)
    if family == "rho":
        return kn.rho_eval(space, p["rhos"], x, y, spec.sigma2)
    if family.startswith("hamming_"):
        profile = family[len("hamming_"):]
        return kn.hamming_family_eval(space, profile, p, x, y, spec.sigma2)
    if family == "additive_sum":
        return kn.additive_sum_eval(space, p["vs"], p["cs"], x, y)
    if family == "random_decomposition":
        return kn.random_decomposition_eval(
            space, p["decomposition"], p["vs"], p["cs"], x, y
        )
    if family == "invariant":
        inner = p["inner"]
        if p["mode"] == "padded_proj":
            profile = (inner.family[len("hamming_"):], dict(inner.params))
            return kn.invariant_eval(space, profile, "padded_proj", x, y)
        return kn.invariant_eval(
            space, lambda a, b: scalar_oracle(space, inner, a, b), p["mode"], x, y,
            samples=p["samples"], seed=p["seed"],
        )
    return kn.explainable_additive_eval(
        space, p["degree_weights"], p["vs"], p["cs"], x, y
    )


def assert_routes_match_oracle(space, spec, xs, ys):
    """cross_gram, gram and diag_values against the scalar oracle."""
    cross = kn.cross_gram(space, spec, xs, ys)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            want = scalar_oracle(space, spec, x, y)
            assert cross[a, b] == pytest.approx(want, rel=1e-12, abs=1e-14), spec.family
    own = [scalar_oracle(space, spec, x, x) for x in xs]
    np.testing.assert_allclose(kn.diag_values(space, spec, xs), own, rtol=1e-12)
    np.testing.assert_allclose(np.diag(kn.gram(space, spec, xs)), own, rtol=1e-12)


class TestGram:
    def test_single_point(self):
        sp = SearchSpace((3, 3))
        spec = kn.default_spec(sp, "heat", sigma2=1.5)
        gram = kn.gram(sp, spec, [[0, 1]])
        np.testing.assert_allclose(gram, [[1.5]])

    def test_cross_gram_matches_value(self):
        rng = np.random.default_rng(19)
        for family in MATCH_BASED:
            sp = random_space(rng, min_n=2)
            spec = spec_for(sp, family, rng)
            xs = sp.sample_points(4, rng)
            ys = sp.sample_points(3, rng)
            assert_routes_match_oracle(sp, spec, xs, ys)

    @pytest.mark.parametrize("mode", ["sum", "proj", "padded_proj", "prod"])
    def test_invariant_matches_oracle(self, mode):
        rng = np.random.default_rng(zlib.crc32(mode.encode()))
        sp = SearchSpace((4,) * 5)
        inner = spec_for(sp, "hamming_rq" if mode == "padded_proj" else "rho", rng)
        inner = inner.replace_params(sigma2=1.3)
        spec = kn.KernelSpec(
            "invariant", {"inner": inner, "mode": mode, "samples": 4, "seed": 2}, False
        )
        xs, ys = sp.sample_points(4, rng), sp.sample_points(3, rng)
        assert_routes_match_oracle(sp, spec, xs, ys)

    def test_zero_and_negative_correlations_match_oracle(self):
        sp = SearchSpace((2, 3, 4, 2))
        pts = sp.enumerate_points()
        heat = kn.KernelSpec("heat", {"betas": [0.0, 0.7, 0.0, 1.3], "sigma2": 1.7})
        rho = kn.KernelSpec("rho", {"rhos": [-0.9, -0.4, 0.5, -0.2], "sigma2": 0.8})
        for spec in (heat, rho):
            assert_routes_match_oracle(sp, spec, pts, pts)
        K = kn.gram(sp, heat, pts)
        assert np.any(K == 0.0) and np.all(K >= 0.0)
        assert np.any(kn.gram(sp, rho, pts) < 0.0)


class TestEquivalenceAndInvariance:
    def test_three_way_proportionality(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            sp = random_space(rng, max_n=6, max_g=6)
            betas = rng.uniform(0.05, 2.0, sp.n)
            pts = sp.sample_points(12, rng)
            heat = kn.gram(sp, kn.KernelSpec("heat", {"betas": betas, "sigma2": 1.0}), pts)
            ells = kn.heat_betas_to_casmo_lengthscales(sp, betas)
            casmo = kn.gram(
                sp,
                kn.KernelSpec("casmopolitan", {"lengthscales": ells, "sigma2": 1.0}),
                pts,
            )
            numeric = combo_gram_numeric(sp, betas, pts)
            ref = heat / heat[0, 0]
            assert np.max(np.abs(casmo / casmo[0, 0] - ref)) < 1e-8
            assert np.max(np.abs(numeric / numeric[0, 0] - ref)) < 1e-8

    def test_relocation_invariance_of_delta_families(self):
        rng = np.random.default_rng(21)
        families = [
            "heat", "combo", "casmopolitan", "rho",
            "hamming_rbf", "hamming_matern52", "hamming_rq",
            "additive_sum", "random_decomposition", "explainable_additive",
        ]
        for family in families:
            sp = random_space(rng, min_n=2)
            spec = spec_for(sp, family, rng)
            pts = sp.sample_points(10, rng)
            base = kn.gram(sp, spec, pts)
            for seed in range(5):
                reloc = sample_relocation(sp, seed)
                moved = kn.gram(sp, spec, reloc.apply_many(pts))
                assert np.max(np.abs(moved - base)) < 1e-12

    def test_isotropy_under_automorphisms(self):
        rng = np.random.default_rng(22)
        for family in ("heat", "hamming_rbf", "hamming_matern52", "hamming_rq"):
            sp = SearchSpace((3, 3, 3, 3))
            spec = spec_for(sp, family, rng)
            if family == "heat":
                # isotropy requires one shared diffusion time across dimensions
                spec = kn.KernelSpec("heat", {"betas": [0.5], "sigma2": 1.0}, ard=False)
            pts = sp.sample_points(12, rng)
            base = kn.gram(sp, spec, pts)
            for seed in range(5):
                auto = sample_automorphism(sp, seed)
                moved = kn.gram(sp, spec, auto.apply_many(pts))
                assert np.max(np.abs(moved - base)) < 1e-12

    def test_psd_across_families(self):
        rng = np.random.default_rng(23)
        for family in kn.FAMILY_NAMES:
            if family == "invariant":
                continue
            for _ in range(5):
                sp = random_space(rng, min_n=2)
                pts = sp.sample_points(int(rng.integers(8, 25)), rng)
                gram = kn.gram(sp, spec_for(sp, family, rng), pts)
                eigs = np.linalg.eigvalsh(gram)
                assert eigs.min() >= -1e-8 * max(eigs.max(), 1e-30)


class TestHeatProperties:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_gram_psd_for_any_valid_diffusion_times(self, data):
        cards = data.draw(
            st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4)
        )
        sp = SearchSpace(tuple(cards))
        betas = np.array(
            [
                data.draw(st.floats(min_value=1e-3, max_value=5.0))
                for _ in cards
            ]
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        pts = sp.sample_points(8, rng)
        gram = kn.gram(sp, kn.KernelSpec("heat", {"betas": betas, "sigma2": 1.0}), pts)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_value_bounded_by_diagonal(self, data):
        cards = data.draw(
            st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=5)
        )
        sp = SearchSpace(tuple(cards))
        betas = np.array(
            [data.draw(st.floats(min_value=0.0, max_value=5.0)) for _ in cards]
        )
        x = np.array([data.draw(st.integers(0, g - 1)) for g in cards])
        y = np.array([data.draw(st.integers(0, g - 1)) for g in cards])
        value = kn.heat_eval(sp, betas, x, y, sigma2=2.0)
        assert 0.0 <= value <= 2.0
        if np.array_equal(x, y):
            assert value == 2.0


def fit_terms_spec(space, family, rng, ard=True):
    """spec_for with a random sigma2, plus invariant wrappers in every mode."""
    if family in ("heat", "combo", "casmopolitan") and not ard:
        base = kn.default_spec(space, family, ard=False)
        theta = kn.pack_spec(space, base)
        return kn.unpack_spec(space, base, theta + rng.normal(size=theta.size))
    if family != "invariant":
        spec = spec_for(space, family, rng)
        if "sigma2" in spec.params:
            spec = spec.replace_params(sigma2=float(rng.uniform(0.5, 2.0)))
        return spec
    mode = str(rng.choice(["sum", "proj", "padded_proj", "prod"]))
    inner = fit_terms_spec(space, "hamming_rq" if mode == "padded_proj" else "rho", rng)
    params = {"inner": inner, "mode": mode, "samples": 3, "seed": int(rng.integers(9))}
    return kn.KernelSpec(family, params, False)


class TestFitTerms:
    @given(st.sampled_from(kn.FAMILY_NAMES), st.booleans(), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_gram_is_bitwise_the_public_gram(self, family, ard, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng, min_n=2)
        if family == "invariant":  # dimension permutations need one alphabet
            sp = SearchSpace((sp.cardinalities[0],) * sp.n)
        pts = sp.sample_points(int(rng.integers(2, 12)), rng)
        built_from = fit_terms_spec(sp, family, rng, ard)
        terms = kn.fit_terms(sp, built_from, pts)
        # any spec of the same structure (ARD flag, invariance mode, inner family)
        theta = kn.pack_spec(sp, built_from)
        spec = kn.unpack_spec(sp, built_from, theta + rng.normal(scale=0.3, size=theta.size))
        K = kn.gram(sp, spec, pts)
        np.testing.assert_array_equal(terms.gram(spec), K)
        # a gradient may leave more of the encoding cached (log-affine counts): same bits
        terms.grad(spec, K, np.ones_like(K))
        np.testing.assert_array_equal(terms.gram(spec), K)

    @given(st.sampled_from(kn.FAMILY_NAMES), st.booleans(), st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def test_cross_gram_follows_the_spec_not_the_batch(self, family, ard, seed):
        """The log-affine families keep the weighted training side of the last
        spec they were asked for.  Specs A, B, A in turn each get the bits of a
        fresh ``cross_gram``, and a row's bits do not depend on its batch."""
        rng = np.random.default_rng(seed)
        sp = random_space(rng, max_n=10, min_n=2)
        if family == "invariant":  # dimension permutations need one alphabet
            sp = SearchSpace((sp.cardinalities[0],) * min(sp.n, 5))
        pts = sp.sample_points(int(rng.integers(2, 40)), rng)
        A = fit_terms_spec(sp, family, rng, ard)
        theta = kn.pack_spec(sp, A)
        B = kn.unpack_spec(sp, A, theta + rng.normal(scale=0.3, size=theta.size))
        if family == "heat" and rng.random() < 0.3:  # rho = 0: floored log-weights
            betas = A.params["betas"]
            A = A.replace_params(betas=np.where(rng.random(betas.size) < 0.5, 0.0, betas))
        terms = kn.fit_terms(sp, A, pts)
        queries = sp.sample_points(int(rng.integers(1, 60)), rng)
        for spec in (A, B, A):
            K = terms.cross_gram(spec, queries)
            np.testing.assert_array_equal(K, kn.cross_gram(sp, spec, queries, pts))
        rows = rng.permutation(len(queries))[: int(rng.integers(1, len(queries) + 1))]
        np.testing.assert_array_equal(terms.cross_gram(A, queries[rows]), K[rows])


class TestExactKernels:
    """Every kernel's entries depend on their two rows alone, bit for bit."""

    @pytest.mark.parametrize(
        "family, mode",
        [(f, None) for f in kn.FAMILY_NAMES if f != "invariant"]
        + [("invariant", mode) for mode in INVARIANT_MODES],
    )
    @given(seed=st.integers(0, 2**31), ard=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_shared_by_fit_and_predict_and_batch_free(self, family, mode, seed, ard):
        rng = np.random.default_rng(seed)
        sp = random_space(rng, min_n=2)
        if family == "invariant":  # one alphabet; heat, rho, additive_sum or a profile inside
            sp = SearchSpace((sp.cardinalities[0],) * min(sp.n, 4))
            inner = "hamming_rq" if mode == "padded_proj" else str(
                rng.choice(["heat", "rho", "additive_sum", "hamming_rbf"])
            )
            params = {"inner": fit_terms_spec(sp, inner, rng, ard), "mode": mode,
                      "samples": int(rng.integers(1, 6)), "seed": int(rng.integers(9))}
            spec = kn.KernelSpec(family, params, False)
        else:
            spec = fit_terms_spec(sp, family, rng, ard)
        X = sp.sample_points(int(rng.integers(1, 16)), rng)
        K = kn.gram(sp, spec, X)
        np.testing.assert_array_equal(bits(K), bits(K.T))
        np.testing.assert_array_equal(bits(kn.cross_gram(sp, spec, X, X)), bits(K))
        np.testing.assert_array_equal(bits(kn.diag_values(sp, spec, X)), bits(np.diag(K)))
        # a noise that makes K + noise I diagonally dominant, so it factors
        log_noise = np.log(1.0 + len(X) * np.abs(K).max())
        y = rng.normal(size=len(X))
        fitted = gp._mll_parts(kn.fit_terms(sp, spec, X), spec, log_noise, y, (0.0,))[1]
        np.testing.assert_array_equal(bits(fitted), bits(K))
        queries = sp.sample_points(int(rng.integers(1, 20)), rng)
        rows = rng.permutation(len(queries))[: int(rng.integers(1, len(queries) + 1))]
        np.testing.assert_array_equal(
            bits(kn.cross_gram(sp, spec, queries[rows], X)),
            bits(kn.cross_gram(sp, spec, queries, X)[rows]),
        )


def two_call_invariant(space, spec, X1, X2):
    """Frozen copy of the invariant kernel: sum and prod ask the inner
    family, for each p, for T[p, q] with q >= p and then for T[q, p] with
    q > p, whether or not X2 is X1."""
    inner, mode = spec.params["inner"], spec.params["mode"]
    fam = kn._FAMILIES[inner.family]
    if mode == "padded_proj":
        C1, C2 = ([np.sum(X == c, axis=1) for c in range(space.cardinalities[0])]
                  for X in (X1, X2))
        h = sum(np.abs(c1[:, None] - c2[None, :]) for c1, c2 in zip(C1, C2))
        return fam.kernel(inner, h.astype(float))
    if mode == "proj":
        return fam.kernel(inner, fam.encode(space, inner, np.sort(X1, 1), np.sort(X2, 1)))
    op = np.add if mode == "sum" else np.multiply
    perms = kn._dimension_permutations(space.n, spec.params["samples"], spec.params["seed"])
    R1, R2 = (np.stack([X[:, p] for p in perms]) for X in (X1, X2))
    S, m1, m2 = len(perms), len(X1), len(X2)

    def inner_kernel(A, B):
        A, B = A.reshape(-1, space.n), B.reshape(-1, space.n)
        return fam.kernel(inner, fam.encode(space, inner, A, B))

    rows = []
    for p in range(S):
        T = inner_kernel(R1[p], R2[p:]).reshape(m1, S - p, m2).swapaxes(0, 1)
        T[1:] = op(T[1:], inner_kernel(R1[p + 1 :], R2[p]).reshape(T[1:].shape))
        rows.append(op.accumulate(T)[-1])
    total = op.accumulate(rows)[-1]
    return total / S**2 if mode == "sum" else total


INVARIANT_CASES = [
    (mode, inner, ard)
    for mode in ("sum", "prod", "proj")
    for inner, ard in [("heat", True), ("heat", False), ("rho", True),
                       ("hamming_rbf", False), ("additive_sum", True)]
] + [("padded_proj", inner, False)
     for inner in ("hamming_rbf", "hamming_matern52", "hamming_rq")]


class TestInvariantRoutes:
    @pytest.mark.parametrize("mode, inner, ard", INVARIANT_CASES)
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_the_bits_of_the_per_point_and_two_call_routes(self, mode, inner, ard, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        sp = SearchSpace((int(rng.integers(2, 5)),) * n)
        # a product of S^2 values soon overflows or underflows: prod takes few
        most = 6 if mode == "prod" else 40
        samples = None if n < 4 and rng.random() < 0.2 else int(rng.integers(1, most + 1))
        params = {"inner": fit_terms_spec(sp, inner, rng, ard), "mode": mode,
                  "samples": samples, "seed": int(rng.integers(9))}
        spec = kn.KernelSpec("invariant", params, False)
        X = sp.sample_points(int(rng.integers(1, 9)), rng)
        queries = sp.sample_points(int(rng.integers(1, 6)), rng)
        want = bits(two_call_invariant(sp, spec, X, X))
        np.testing.assert_array_equal(bits(kn.gram(sp, spec, X)), want)
        np.testing.assert_array_equal(bits(kn.fit_terms(sp, spec, X).gram(spec)), want)
        np.testing.assert_array_equal(
            bits(kn.cross_gram(sp, spec, queries, X)),
            bits(two_call_invariant(sp, spec, queries, X)),
        )
        per_point = [two_call_invariant(sp, spec, x[None], x[None])[0, 0] for x in queries]
        np.testing.assert_array_equal(bits(kn.diag_values(sp, spec, queries)), bits(per_point))

    @pytest.mark.parametrize("mode", ["sum", "prod", "proj", "padded_proj"])
    def test_negative_inner_beta_rejected(self, mode):
        sp = SearchSpace((3, 3, 3))
        inner = kn.KernelSpec("heat", {"betas": [-0.1], "sigma2": 1.0}, False)
        spec = kn.KernelSpec("invariant", {"inner": inner, "mode": mode, "samples": 4}, False)
        X = sp.sample_points(3, np.random.default_rng(0))
        for call in (kn.diag_values, kn.gram):
            with pytest.raises(InvalidInputError):
                call(sp, spec, X)


def matrix_route(space, spec, X1, X2):
    """Frozen copy of the one-hot route every log-affine Gram took before the
    one-group table: sigma2 * exp of the dyadic weights' one-hot product."""
    fam = kn._FAMILIES[spec.family]
    groups = np.arange(space.n) if spec.ard else fam.tied_groups(space)
    _, first, inverse, sizes = np.unique(
        groups, return_index=True, return_inverse=True, return_counts=True
    )
    w = kn._dyadic(fam.log_weights(space, spec, first)[0], sizes)
    Z1, Z2 = kn._one_hot(space, X1), kn._one_hot(space, X2)
    exponent = (Z1 * np.repeat(w[inverse], space.cardinalities)) @ (1.0 - Z2).T
    return spec.sigma2 * np.exp(exponent)


@st.composite
def one_group_problems(draw):
    """heat, combo or casmopolitan with one weight group: without ARD on an
    equal-cardinality space (any space for casmopolitan), or on one dimension;
    heat's beta may be 0 (a floored weight) and sigma2 up to 1e308."""
    family = draw(st.sampled_from(["heat", "combo", "casmopolitan"]))
    cards = draw(st.lists(st.integers(2, 5), min_size=1, max_size=12))
    if family != "casmopolitan":
        cards = [cards[0]] * len(cards)
    sp = SearchSpace(tuple(cards))
    ard = draw(st.booleans()) if sp.n == 1 else False
    value = draw(st.one_of(
        st.floats(0.01, 5.0), st.just(0.0) if family == "heat" else st.floats(0.01, 0.1)
    ))
    sigma2 = draw(st.one_of(st.floats(1e-3, 10.0), st.floats(1e300, 1e308), st.just(1e308)))
    spec = kn.default_spec(sp, family, ard=ard)
    param = "lengthscales" if family == "casmopolitan" else "betas"
    spec = spec.replace_params(**{param: np.array([value]), "sigma2": sigma2})
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return sp, spec, rng


class TestOneGroupTable:
    @given(one_group_problems())
    @settings(max_examples=200, deadline=None)
    def test_gram_and_cross_gram_keep_the_matrix_route_bits(self, problem):
        sp, spec, rng = problem
        X = sp.sample_points(int(rng.integers(1, 15)), rng)
        queries = sp.sample_points(int(rng.integers(1, 9)), rng)
        moved = sample_relocation(sp, int(rng.integers(2**31)))
        # K is finite up to sigma2 = 1e308: no entry exceeds sigma2
        want = matrix_route(sp, spec, X, X)
        for pts in (X, moved.apply_many(X)):
            for got in (kn.gram(sp, spec, pts), kn.fit_terms(sp, spec, pts).gram(spec)):
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(
            kn.cross_gram(sp, spec, queries, X).view(np.uint64),
            matrix_route(sp, spec, queries, X).view(np.uint64),
        )
        # relocating both sides keeps every distance, so every entry
        np.testing.assert_array_equal(
            kn.cross_gram(sp, spec, moved.apply_many(queries), moved.apply_many(X)),
            matrix_route(sp, spec, queries, X),
        )


def poisoned(spec, bad):
    """One spec per float hyperparameter, with that parameter's first entry
    set to ``bad``; for ``invariant`` the inner spec's parameters."""
    target = spec.params["inner"] if spec.family == "invariant" else spec
    out = []
    for key, value in target.params.items():
        values = np.array(value)
        if values.dtype.kind != "f":
            continue
        values.flat[0] = bad
        changed = target.replace_params(**{key: values if values.ndim else float(values)})
        out.append(spec.replace_params(inner=changed) if spec.family == "invariant" else changed)
    return out


class TestHyperparameterValidation:
    @pytest.mark.parametrize("ard", [None, "no", 0, np.bool_(True)])
    def test_ard_must_be_a_bool(self, ard):
        sp = SearchSpace((2,) * 4)
        with pytest.raises(InvalidInputError, match="ard"):
            kn.KernelSpec("heat", {"betas": [0.25] * 4, "sigma2": 1.0}, ard)
        with pytest.raises(InvalidInputError, match="ard"):
            kn.default_spec(sp, "heat", ard=ard)

    @pytest.mark.parametrize("family", kn.FAMILY_NAMES)
    def test_keys_are_those_of_the_default_spec(self, family):
        """A key the family does not take, or a missing one it reads, is an
        InvalidInputError before any kernel reads the spec; sigma2 and an
        invariant spec's samples and seed may be left out."""
        sp = SearchSpace((3, 3, 3))
        X = sp.sample_points(3, np.random.default_rng(0))
        default = kn.default_spec(sp, family)
        with pytest.raises(InvalidInputError, match=re.escape("unknown key(s) ['beta']")):
            kn.default_spec(sp, family, beta=0.3)
        for key in default.params:
            params = {k: v for k, v in default.params.items() if k != key}
            spec = kn.KernelSpec(family, params, default.ard)
            if key in ("sigma2", "samples", "seed"):
                assert np.array_equal(kn.gram(sp, spec, X), kn.gram(sp, default, X))
                continue
            for route in (kn.gram, kn.diag_values):
                with pytest.raises(InvalidInputError, match=re.escape(f"missing key(s) ['{key}']")):
                    route(sp, spec, X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", kn.FAMILY_NAMES)
    def test_non_finite_hyperparameters_rejected(self, family, bad):
        sp = SearchSpace((3, 3, 3))
        specs = poisoned(kn.default_spec(sp, family), bad)
        assert specs
        for spec in specs:
            with pytest.raises(InvalidInputError, match="finite"):
                kn.validate_spec(sp, spec)
            with pytest.raises(InvalidInputError):
                kn.gram(sp, spec, sp.sample_points(3, np.random.default_rng(0)))


SP3, X3, Y3 = SearchSpace((3, 3, 3)), [0, 1, 2], [1, 1, 0]
UNIT_BASE = ([1.0] * 3, [0.5] * 3)  # vs, cs of three base kernels
UNKNOWN_FAMILY = r"unknown family 'bogus'; known: \[.*'heat'"
# (a call on input its function rejects, a fragment of the message)
REJECTED_INPUTS = {
    "heat_rho-negative-beta": (lambda: kn.heat_rho(-0.1, 3), "beta must be >= 0"),
    "beta_to_gamma-one-category": (lambda: kn.beta_to_gamma(0.5, 1), "need g >= 2"),
    "spread-shape": (lambda: kn.heat_eval(SP3, [0.1, 0.2], X3, Y3), "need 1 or 3 values"),
    "rhos-shape": (lambda: kn.rho_eval(SP3, [0.1, 0.1], X3, Y3), "need 3 correlations"),
    "profile-lengthscale": (
        lambda: kn.hamming_family_eval(SP3, "rbf", {"lengthscale": 0.0}, X3, Y3),
        "lengthscale must be > 0"),
    "profile-rq-alpha": (
        lambda: kn.hamming_family_eval(SP3, "rq", {"lengthscale": 1.0, "alpha": 0.0}, X3, Y3),
        "rq shape alpha must be > 0"),
    "padded-profile-family": (
        lambda: kn.invariant_eval(SP3, ("bogus", {"lengthscale": 1.0}), "padded_proj", X3, Y3),
        "unknown profile family 'bogus'"),
    "hamming-family": (
        lambda: kn.hamming_family_eval(SP3, "bogus", {"lengthscale": 1.0}, X3, Y3),
        "family must be one of"),
    "base-shape": (lambda: kn.additive_sum_eval(SP3, [1.0] * 2, [0.5] * 2, X3, Y3),
                   "need 3 base-kernel"),
    "base-variance": (lambda: kn.additive_sum_eval(SP3, [0.0, 1, 1], [0.0, 0.5, 0.5], X3, Y3),
                      "base variances must be > 0"),
    "degree-weights": (
        lambda: kn.explainable_additive_eval(SP3, [-1.0, 0, 0], *UNIT_BASE, X3, Y3),
        "nonnegative degree weights"),
    "decomposition-empty": (lambda: kn.Decomposition(()), "nonempty components"),
    "padded-vector": (lambda: kn.PaddedVector((0, -1), 2), "non-padding symbol count"),
    "invariant_eval-mode": (lambda: kn.invariant_eval(SP3, lambda a, b: 1.0, "bogus", X3, Y3),
                            "unknown invariance mode"),
    "spec-family": (lambda: kn.KernelSpec("bogus", {}), UNKNOWN_FAMILY),
    "default_spec-family": (lambda: kn.default_spec(SP3, "bogus"), UNKNOWN_FAMILY),
    "ard-count": (
        lambda: kn.gram(SP3, kn.KernelSpec("heat", {"betas": [0.1], "sigma2": 1.0}, True),
                        [X3, Y3]),
        "betas count does not match the ard flag"),
    "profile-spec-lengthscale": (lambda: kn.default_spec(SP3, "hamming_rbf", lengthscale=0.0),
                                 "lengthscale must be > 0"),
    "decomposition-cover": (
        lambda: kn.default_spec(SP3, "random_decomposition",
                                decomposition=kn.Decomposition(((0,),))),
        "decomposition must cover every dimension"),
    "invariant-mode": (lambda: kn.default_spec(SP3, "invariant", mode="bogus"),
                       "unknown invariance mode"),
    "invariant-inner-type": (lambda: kn.default_spec(SP3, "invariant", inner="hamming_rbf"),
                             "inner kernel must be a KernelSpec"),
    "padded-inner-profile": (
        lambda: kn.default_spec(SP3, "invariant", inner=kn.default_spec(SP3, "heat")),
        "padded projection needs a distance-profile inner"),
}


@pytest.mark.parametrize("call, match", REJECTED_INPUTS.values(), ids=REJECTED_INPUTS)
def test_rejected_input(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()


def dyadic_reference(w, sizes):
    """``_dyadic`` with its total as a generator summed left to right, as
    Python's ``sum`` adds floats before 3.12; returns the total too."""
    terms = (abs(x) * k for x, k in zip(w.tolist(), sizes.tolist()) if x > -1e300)
    total = reduce(operator.add, terms, 0)
    C = 3.0 * 2.0 ** frexp(total)[1]
    return (w + C) - C, total


class TestDyadic:
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(-60.0, 0.0), st.floats(-1e3, 1e3), st.just(-1e300),
                    st.just(-np.inf), st.just(np.nan),
                ),
                st.integers(1, 12),
            ),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_same_grid_and_bits_as_generator_sum(self, pairs):
        w = np.array([x for x, _ in pairs])
        sizes = np.array([k for _, k in pairs])
        want, total = dyadic_reference(w, sizes)
        # equal bits, so the same grid exponent
        got_total = kn._grid_total(w, sizes)
        assert np.float64(got_total).view(np.uint64) == np.float64(total).view(np.uint64)
        np.testing.assert_array_equal(
            kn._dyadic(w, sizes).view(np.uint64), want.view(np.uint64)
        )


class TestSpecPacking:
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(24)
        for family in kn.FAMILY_NAMES:
            if family == "invariant":
                continue
            sp = random_space(rng, min_n=2)
            spec = spec_for(sp, family, rng)
            theta = kn.pack_spec(sp, spec)
            back = kn.unpack_spec(sp, spec, theta)
            np.testing.assert_allclose(
                kn.pack_spec(sp, back), theta, atol=1e-10
            )

    def test_default_specs_valid(self):
        rng = np.random.default_rng(25)
        sp = random_space(rng, min_n=2)
        assert not sp.equal_sized()
        for family in kn.FAMILY_NAMES:
            space = sp
            if family == "invariant":  # dimension permutations need one alphabet
                with pytest.raises(InvalidInputError, match="alphabet"):
                    kn.default_spec(sp, family)
                space = SearchSpace((sp.cardinalities[0],) * sp.n)
            kn.validate_spec(space, kn.default_spec(space, family))

    def test_analytic_gradients_match_finite_differences(self):
        rng = np.random.default_rng(26)
        w_rng = np.random.default_rng(126)
        cases = [
            (family, True) for family in (
                "heat", "combo", "casmopolitan", "rho",
                "hamming_rbf", "hamming_matern52", "hamming_rq",
            )
        ]
        cases += [("heat", False), ("combo", False), ("casmopolitan", False)]
        for family, ard in cases:
            sp = random_space(rng, min_n=2)
            if ard:
                spec = spec_for(sp, family, rng)
            else:
                base = kn.default_spec(sp, family, ard=False)
                theta = kn.pack_spec(sp, base)
                spec = kn.unpack_spec(sp, base, theta + rng.normal(size=theta.size))
            pts = sp.sample_points(8, rng)
            theta = kn.pack_spec(sp, spec)
            W = w_rng.normal(size=(8, 8))
            W = W + W.T
            terms = kn.fit_terms(sp, spec, pts)
            grads = terms.grad(spec, terms.gram(spec), W)  # 1/2 <W, dK/dtheta_j>
            assert len(grads) == theta.size
            for j in range(theta.size):
                step = 1e-6 * max(1.0, abs(theta[j]))
                tp = theta.copy(); tp[j] += step
                tm = theta.copy(); tm[j] -= step
                Kp = kn.gram(sp, kn.unpack_spec(sp, spec, tp), pts)
                Km = kn.gram(sp, kn.unpack_spec(sp, spec, tm), pts)
                fd = 0.5 * float(np.sum(W * (Kp - Km))) / (2 * step)
                scale = max(1.0, abs(fd))
                assert abs(grads[j] - fd) / scale < 1e-5, (family, j)
