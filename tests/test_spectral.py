import itertools
from math import comb

import numpy as np
import pytest

from heatbo import spectral
from heatbo.space import (
    InvalidInputError,
    SearchSpace,
    sample_automorphism,
)
from heatbo.spectral import (
    COUNTEREXAMPLE_PROFILE,
    PhiSpec,
    binomial_profile_system,
    bodi_not_hamming_check,
    combo_gram_numeric,
    complete_graph_laplacian,
    conversion_residual,
    counterexample_eigenvalues,
    counterexample_matrix,
    counterexample_space,
    factor_spectrum,
    hamming_profile_gram,
    hamming_to_phi,
    phi_gram,
    product_laplacian,
    product_spectrum,
)


def brute_force_pattern_coefficients(space, eigenvalues):
    """The conversion table as a loop over every (pattern, subset) pair: the
    subset's unit of Phi adds prod over its dimensions of g_i - 1 where the
    pattern matches and -1 where it differs, over the space's size."""
    cards = space.cardinalities
    patterns = list(itertools.product([0, 1], repeat=space.n))
    coeff = np.zeros((len(patterns), len(eigenvalues)))
    for subset in patterns:
        col = list(eigenvalues).index(sum(g for g, used in zip(cards, subset) if used))
        for t, pattern in enumerate(patterns):
            term = float(np.prod(1.0 / np.asarray(cards, dtype=float)))
            for g, used, differs in zip(cards, subset, pattern):
                if used:
                    term *= -1.0 if differs else g - 1.0
            coeff[t, col] += term
    return coeff


def closed_form_factor(g, beta, same):
    if same:
        return (1 + (g - 1) * np.exp(-beta * g)) / g
    return (1 - np.exp(-beta * g)) / g


def closed_form_gram(space, betas, pts):
    pts = np.asarray(pts)
    m = len(pts)
    gram = np.ones((m, m))
    for i, g in enumerate(space.cardinalities):
        same = pts[:, i][:, None] == pts[:, i][None, :]
        gram *= np.where(
            same,
            closed_form_factor(g, betas[i], True),
            closed_form_factor(g, betas[i], False),
        )
    return gram


class TestCompleteGraphLaplacian:
    def test_two_nodes(self):
        np.testing.assert_array_equal(
            complete_graph_laplacian(2), [[1, -1], [-1, 1]]
        )

    def test_eigenvalues_g3(self):
        eigs = np.sort(np.linalg.eigvalsh(complete_graph_laplacian(3)))
        np.testing.assert_allclose(eigs, [0, 3, 3], atol=1e-10)

    def test_row_sums_zero(self):
        for g in range(2, 9):
            np.testing.assert_allclose(
                complete_graph_laplacian(g).sum(axis=1), 0, atol=1e-12
            )

    def test_rejects_small_g(self):
        with pytest.raises(InvalidInputError):
            complete_graph_laplacian(1)


class TestFactorSpectrum:
    def test_g4_eigenvalues(self):
        np.testing.assert_allclose(factor_spectrum(4).eigenvalues, [0, 4, 4, 4])

    def test_g2_eigenvalues(self):
        np.testing.assert_allclose(factor_spectrum(2).eigenvalues, [0, 2])

    def test_reconstruction(self):
        for g in range(2, 9):
            fs = factor_spectrum(g)
            err = np.max(np.abs(fs.laplacian() - complete_graph_laplacian(g)))
            assert err < 1e-10

    def test_basis_orthonormal(self):
        for g in range(2, 9):
            basis = factor_spectrum(g).basis
            np.testing.assert_allclose(basis.T @ basis, np.eye(g), atol=1e-10)
            np.testing.assert_allclose(basis[:, 0], 1 / np.sqrt(g), atol=1e-12)

    def test_two_distinct_eigenvalues_with_multiplicity(self):
        for g in range(2, 8):
            vals, counts = np.unique(factor_spectrum(g).eigenvalues, return_counts=True)
            np.testing.assert_array_equal(vals, [0, g])
            np.testing.assert_array_equal(counts, [1, g - 1])


class TestProductSpectrum:
    def test_equal_sized_classes(self):
        spec = product_spectrum(SearchSpace((4, 4, 4)))
        np.testing.assert_array_equal(spec.eigenvalues, [0, 4, 8, 12])

    def test_multiplicities_sum_to_size(self):
        for cards in [(2, 2, 4), (3, 3), (5, 2, 3)]:
            sp = SearchSpace(cards)
            spec = product_spectrum(sp)
            assert int(spec.multiplicities.sum()) == sp.size

    def test_multiplicities_exact_beyond_int64(self):
        sp = SearchSpace((100,) * 12)
        spec = product_spectrum(sp)
        np.testing.assert_array_equal(spec.eigenvalues, 100.0 * np.arange(13))
        assert all(type(m) is int for m in spec.multiplicities)
        assert list(spec.multiplicities) == [comb(12, d) * 99**d for d in range(13)]
        assert sum(spec.multiplicities) == sp.size > np.iinfo(np.int64).max

    def test_matches_full_laplacian(self):
        sp = SearchSpace((2, 3, 4))
        spec = product_spectrum(sp)
        eigs = np.sort(np.linalg.eigvalsh(product_laplacian(sp)))
        rebuilt = np.repeat(spec.eigenvalues, spec.multiplicities)
        np.testing.assert_allclose(eigs, rebuilt, atol=1e-8)


class TestComboGramNumeric:
    def test_large_beta_constant_limit(self):
        sp = SearchSpace((3, 4, 2))
        pts = sp.enumerate_points()
        gram = combo_gram_numeric(sp, [50.0] * 3, pts)
        assert np.max(np.abs(gram - gram[0, 0])) < 1e-6

    def test_small_beta_identity_limit(self):
        sp = SearchSpace((3, 3))
        pts = sp.enumerate_points()
        gram = combo_gram_numeric(sp, [1e-8] * 2, pts)
        # diffusion-time zero: diagonal to 1, off-diagonal vanishes at O(beta)
        np.testing.assert_allclose(np.diag(gram), 1.0, rtol=1e-6)
        off = gram[~np.eye(len(pts), dtype=bool)]
        assert np.max(np.abs(off)) / gram[0, 0] < 1e-6

    def test_matches_per_factor_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            cards = tuple(int(g) for g in rng.integers(2, 7, size=n))
            sp = SearchSpace(cards)
            betas = rng.uniform(0.05, 2.0, size=n)
            pts = sp.sample_points(12, rng)
            numeric = combo_gram_numeric(sp, betas, pts)
            closed = closed_form_gram(sp, betas, pts)
            np.testing.assert_allclose(numeric, closed, atol=1e-10)

    def test_beta_validation(self):
        sp = SearchSpace((3, 3))
        with pytest.raises(InvalidInputError):
            combo_gram_numeric(sp, [0.5, -1.0], sp.enumerate_points())


class TestPhiGram:
    def test_constant_class_only(self):
        sp = SearchSpace((3, 2))
        spec = product_spectrum(sp)
        values = np.zeros(len(spec.eigenvalues))
        values[0] = 1.0
        gram = phi_gram(sp, PhiSpec(spec.eigenvalues, values), sp.enumerate_points())
        np.testing.assert_allclose(gram, 1.0 / sp.size, atol=1e-12)

    def test_exponential_weights_reproduce_numeric_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            cards = tuple(int(g) for g in rng.integers(2, 6, size=n))
            sp = SearchSpace(cards)
            beta = float(rng.uniform(0.1, 1.5))
            pts = sp.sample_points(10, rng)
            phi = PhiSpec.from_function(sp, lambda l: np.exp(-beta * l))
            np.testing.assert_allclose(
                phi_gram(sp, phi, pts),
                combo_gram_numeric(sp, [beta] * n, pts),
                atol=1e-10,
            )

    def test_inverse_polynomial_weights_give_psd_gram(self):
        sp = SearchSpace((3, 3, 3))
        phi = PhiSpec.from_function(sp, lambda l: 1.0 / (1.0 + l))
        gram = phi_gram(sp, phi, sp.enumerate_points())
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8 * eigs.max()

    def test_missing_eigenvalue_rejected(self):
        sp = SearchSpace((3, 3))
        bad = PhiSpec(np.array([0.0, 3.0]), np.array([1.0, 1.0]))  # missing class 6
        with pytest.raises(InvalidInputError):
            phi_gram(sp, bad, sp.enumerate_points())

    def test_negative_phi_rejected(self):
        with pytest.raises(InvalidInputError):
            PhiSpec(np.array([0.0, 2.0]), np.array([1.0, -0.5]))

    def test_isotropy_under_automorphisms(self):
        sp = SearchSpace((3, 3, 3))
        pts = sp.enumerate_points()
        phi = PhiSpec.from_function(sp, lambda l: 1.0 / (1.0 + l) ** 2)
        gram = phi_gram(sp, phi, pts)
        index = {tuple(p): i for i, p in enumerate(pts)}
        for seed in range(20):
            auto = sample_automorphism(sp, seed)
            mapped = [index[tuple(auto.apply(p))] for p in pts]
            np.testing.assert_allclose(
                gram[np.ix_(mapped, mapped)], gram, atol=1e-10
            )


class TestHammingToPhi:
    def test_heat_profile_round_trip(self):
        sp = SearchSpace((3, 3))
        beta = 0.7
        rho = (1 - np.exp(-beta * 3)) / (1 + 2 * np.exp(-beta * 3))
        diag = ((1 + 2 * np.exp(-beta * 3)) / 3) ** 2
        values = diag * rho ** np.arange(3)
        phi = hamming_to_phi(sp, values)
        assert phi is not None
        ratios = phi.values / np.exp(-beta * phi.eigenvalues)
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-6)

    def test_reconstructs_gram(self):
        assert conversion_residual(13) < 1e-8

    def test_residual_infinite_without_spectral_form(self, monkeypatch):
        monkeypatch.setattr(spectral, "hamming_to_phi", lambda space, values: None)
        assert conversion_residual(13) == np.inf

    def test_counterexample_profile_fails(self):
        assert hamming_to_phi(counterexample_space(), COUNTEREXAMPLE_PROFILE) is None

    def test_constant_profile(self):
        sp = SearchSpace((2, 3))
        phi = hamming_to_phi(sp, [2.5, 2.5, 2.5])
        assert phi is not None
        assert phi.lookup(0.0) == pytest.approx(2.5 * sp.size)
        assert np.allclose(phi.values[1:], 0.0)

    def test_binomial_system_agrees_with_generic_on_equal_spaces(self):
        for n, g in [(2, 3), (3, 2), (3, 4)]:
            sp = SearchSpace((g,) * n)
            rng = np.random.default_rng(n * 10 + g)
            values = rng.uniform(0.1, 1.0, size=n + 1)
            values[0] = values.max() + 1.0
            direct = np.linalg.solve(binomial_profile_system(n, g), values)
            phi = hamming_to_phi(sp, np.maximum(values, 0))
            if phi is not None and np.all(direct >= 0):
                np.testing.assert_allclose(phi.values, direct, atol=1e-8)

    @pytest.mark.parametrize(
        "cards", [(2,), (2, 3), (2, 2, 4), (3, 4, 5), (2, 5, 3, 2), (4, 4, 2, 3, 6)]
    )
    def test_pattern_table_matches_pairwise_loop(self, cards):
        # entries are at most 1 in magnitude; the per-dimension table adds
        # the same terms in another order, so they agree to a few ulps
        sp = SearchSpace(cards)
        spectrum = product_spectrum(sp)
        np.testing.assert_allclose(
            spectral._pattern_coefficients(sp, spectrum),
            brute_force_pattern_coefficients(sp, spectrum.eigenvalues),
            rtol=0, atol=1e-14,
        )

    def test_twelve_dimensions_agree_with_binomial_system(self):
        n, g = 12, 3
        values = np.exp(-np.arange(n + 1) / 1.5**2)
        phi = hamming_to_phi(SearchSpace((g,) * n), values)
        assert phi is not None
        np.testing.assert_array_equal(phi.eigenvalues, g * np.arange(n + 1))
        direct = np.linalg.solve(binomial_profile_system(n, g), values)
        # both solves fix each weight to about 1e-16 of the largest one
        np.testing.assert_allclose(phi.values, direct, rtol=1e-8, atol=1e-14 * direct.max())


class TestCounterexample:
    def test_distinct_eigenvalues(self):
        distinct, _ = counterexample_eigenvalues()
        np.testing.assert_allclose(distinct, [77, 15, 9, 5, 3, 1], atol=1e-6)

    def test_multiplicities(self):
        _, counts = counterexample_eigenvalues()
        np.testing.assert_array_equal(counts, [1, 2, 3, 1, 6, 3])

    def test_matrix_shape_and_diagonal(self):
        mat = counterexample_matrix()
        assert mat.shape == (16, 16)
        np.testing.assert_array_equal(np.diag(mat), 10.0)
        np.testing.assert_array_equal(mat, mat.T)


class TestBodiCheck:
    def test_counterexample_reproduced(self):
        report = bodi_not_hamming_check()
        assert report["reproduced"] is True

    def test_scenario_details(self):
        report = bodi_not_hamming_check()
        assert report["A"]["embedding_sq_distance"] == 1.0
        assert report["B"]["embedding_sq_distance"] == 0.0
        assert report["A"]["sqrt_hamming"] == 1.0
        assert report["B"]["sqrt_hamming"] == 1.0


class TestHammingKernelsCommuteWithLaplacian:
    def test_commutation_on_equal_sized_spaces(self):
        # matrix form of the distance-profile/spectral equivalence
        rng = np.random.default_rng(17)
        for n, g in [(2, 3), (3, 2), (2, 4), (4, 3)]:
            sp = SearchSpace((g,) * n)
            pts = sp.enumerate_points()
            lap = product_laplacian(sp)
            values = rng.uniform(0.0, 2.0, size=n + 1)
            gram = hamming_profile_gram(sp, values, pts)
            err = np.max(np.abs(gram @ lap - lap @ gram))
            assert err < 1e-8


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: factor_spectrum(1), "factor needs g >= 2"),
        (lambda: product_laplacian(SearchSpace((2,) * 13)), "restricted to small spaces"),
        (lambda: PhiSpec([0.0, 2.0], [1.0]), "1-D and aligned"),
        (lambda: phi_gram(SearchSpace((2,) * 21), PhiSpec([0.0], [1.0]), [[0] * 21]),
         "subset expansion limited"),
        (lambda: hamming_to_phi(SearchSpace((2, 2)), [1.0, 0.5]),
         r"need one kernel value per distance 0\.\.2"),
        (lambda: hamming_to_phi(SearchSpace((2,) * 15), np.ones(16)),
         "conversion limited to small dimension counts"),
        (lambda: hamming_profile_gram(SearchSpace((2, 2)), [1.0], [[0, 0]]),
         r"need one kernel value per distance 0\.\.2"),
    ],
    ids=["factor-g", "laplacian-size", "phi-aligned", "phi_gram-n", "profile-length",
         "conversion-n", "profile_gram-length"],
)
def test_rejected_input(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()
