import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatbo.kernels import _one_hot
from heatbo.space import (
    Automorphism,
    InvalidInputError,
    Relocation,
    SearchSpace,
    hamming_distance,
    hamming_matrix,
    identity_relocation,
    sample_automorphism,
    sample_relocation,
)


def random_space(rng, max_n=5, max_g=6):
    n = rng.integers(1, max_n + 1)
    return SearchSpace(tuple(int(g) for g in rng.integers(2, max_g + 1, size=n)))


class TestSearchSpace:
    def test_basic_properties(self):
        sp = SearchSpace((2, 3, 4))
        assert sp.n == 3
        assert sp.one_hot_width == 9
        assert sp.size == 24
        assert not sp.equal_sized()
        assert SearchSpace((3, 3)).equal_sized()

    def test_rejects_tiny_cardinalities(self):
        with pytest.raises(InvalidInputError):
            SearchSpace((2, 1))
        with pytest.raises(InvalidInputError):
            SearchSpace(())

    @pytest.mark.parametrize("cards", [(2.7, 3), ("3", 2), (3, np.nan), (3, np.inf), ((2, 3),), 3])
    def test_non_integral_cardinalities_rejected(self, cards):
        # the rule points follow: ints and bools as they are, floats only if
        # finite integers; one cardinality per dimension
        with pytest.raises(InvalidInputError):
            SearchSpace(cards)

    def test_integral_float_cardinalities_become_ints(self):
        sp = SearchSpace((2.0, np.int64(3)))
        assert sp.cardinalities == (2, 3)
        assert all(type(g) is int for g in sp.cardinalities)

    def test_point_validation(self):
        sp = SearchSpace((2, 3))
        sp.validate_point([1, 2])
        with pytest.raises(InvalidInputError):
            sp.validate_point([1, 3])
        with pytest.raises(InvalidInputError):
            sp.validate_point([1])

    def test_ragged_point_list_rejected(self):
        sp = SearchSpace((3, 3))
        for ragged in ([[0, 1], [2]], [[0, 1], [2, 0, 1]]):
            with pytest.raises(InvalidInputError, match="unequal lengths"):
                sp.validate_points(ragged)

    @pytest.mark.parametrize("shape", [(4, 3, 1), (1, 4, 3), (2, 2, 3)])
    def test_one_point_or_a_2d_array_only(self, shape):
        # (4, 3, 1) passes a broadcast range check on 3 dimensions
        sp = SearchSpace((2, 3, 4))
        with pytest.raises(InvalidInputError, match="2-D array"):
            sp.validate_points(np.zeros(shape, dtype=np.int64))

    def test_range_error_names_first_offending_point(self):
        sp = SearchSpace((3, 3))
        with pytest.raises(InvalidInputError, match=r"point \[0, 3\] out of category range"):
            sp.validate_points([[0, 1], [0, 3], [-1, 0]])
        with pytest.raises(InvalidInputError, match=r"point \[-1, 2\] out of category range"):
            sp.validate_point([-1, 2])

    @pytest.mark.parametrize(
        "point",
        [[0.5, 2.9], [0.0, 2.5], [np.nan, 1], [np.inf, 0], ["a", 1], ["1", "2"],
         [None, 1], [1 + 0j, 0]],
    )
    def test_non_integer_coordinates_rejected(self, point):
        sp = SearchSpace((3, 3))
        with pytest.raises(InvalidInputError):
            sp.validate_point(point)
        with pytest.raises(InvalidInputError):
            sp.validate_points([point, [0, 0]])

    def test_integral_floats_and_bools_accepted(self):
        sp = SearchSpace((3, 2))
        for point in ([1.0, 0.0], np.array([2, 1], dtype=np.uint8), [True, True]):
            got = sp.validate_point(point)
            assert got.dtype == np.int64 and got.tolist() == np.asarray(point).tolist()
            assert sp.validate_points([point]).tolist() == [got.tolist()]
        points = sp.sample_points(4, np.random.default_rng(0))
        assert sp.validate_points(points) is points  # no copy on the hot path

    def test_held_arrays_are_read_only_copies_of_the_cardinalities(self):
        sp = SearchSpace((2, 5, 3))
        assert sp.card_array.dtype == sp.one_hot_offsets.dtype == np.int64
        assert sp.card_array.tolist() == [2, 5, 3]
        assert sp.one_hot_offsets.tolist() == [0, 2, 7]
        with pytest.raises(ValueError):
            sp.card_array[0] = 4
        assert sp == SearchSpace([2, 5, 3]) and hash(sp) == hash(SearchSpace((2, 5, 3)))

    @pytest.mark.parametrize(
        "points, match",
        [
            ([[0, 4, 2], [-1, 0, 0]], r"point \[-1, 0, 0\] out of category range"),
            ([[0, 4, 2], [1, 5, 0]], r"point \[1, 5, 0\] out of category range"),
            ([[2, 0, 0], [0, 0, 3]], r"point \[2, 0, 0\] out of category range"),
            ([[0, 4, 2], [1, 1.5, 0]], "finite integers"),
            ([[0, 4, 2], [1, 1]], "unequal lengths"),
            ([[0, 4]], "2 dimensions, expected 3"),
        ],
        ids=["negative", "too-large", "too-large-binary", "non-integer", "ragged", "width"],
    )
    def test_batch_errors_on_mixed_cardinalities(self, points, match):
        with pytest.raises(InvalidInputError, match=match):
            SearchSpace((2, 5, 3)).validate_points(points)

    def test_enumerate_points(self):
        sp = SearchSpace((2, 3))
        pts = sp.enumerate_points()
        assert pts.shape == (6, 2)
        assert len({tuple(p) for p in pts}) == 6
        # last dimension varies fastest
        assert pts[0].tolist() == [0, 0] and pts[1].tolist() == [0, 1]


class TestHammingDistance:
    def test_identity_case(self):
        assert hamming_distance([0, 1, 2], [0, 1, 2]) == 0

    def test_single_substitution(self):
        assert hamming_distance([0, 1, 2], [0, 2, 2]) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            hamming_distance([0, 1], [0, 1, 2])

    def test_matches_half_squared_one_hot_distance(self):
        # brute-force one-hot oracle on 100 random pairs
        sp = SearchSpace((5, 5, 5, 5))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = sp.sample_points(2, rng)
            zx, zy = _one_hot(sp, np.array([x, y]))
            assert hamming_distance(x, y) * 2 == int(np.sum((zx - zy) ** 2))

    def test_metric_axioms_exhaustive(self):
        sp = SearchSpace((4, 4, 4))
        pts = sp.enumerate_points()
        h = hamming_matrix(pts)
        assert np.all(h >= 0)
        assert np.all((h == 0) == np.eye(len(pts), dtype=bool))
        assert np.array_equal(h, h.T)
        # triangle inequality via min-plus check
        assert np.all(h <= h[:, :, None] + h.T[None, :, :].transpose(0, 2, 1))

    def test_hamming_matrix_cross(self):
        xs = np.array([[0, 0], [1, 1]])
        ys = np.array([[0, 1]])
        assert hamming_matrix(xs, ys).tolist() == [[1], [1]]


class TestOneHot:
    def test_direct_construction(self):
        sp = SearchSpace((2, 3))
        assert _one_hot(sp, np.array([[1, 0]])).tolist() == [[0, 1, 1, 0, 0]]

    def test_binary_pair(self):
        sp = SearchSpace((2, 2))
        assert _one_hot(sp, np.array([[0, 0]])).tolist() == [[1, 0, 1, 0]]

    @given(
        st.lists(st.integers(2, 6), min_size=1, max_size=6),
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_row_by_row_construction(self, cards, count, seed):
        sp = SearchSpace(tuple(cards))
        X = sp.sample_points(count, np.random.default_rng(seed))
        want = np.zeros((count, sum(cards)))
        for r, row in enumerate(X.tolist()):
            start = 0
            for g, v in zip(cards, row):
                want[r, start + v] = 1.0
                start += g
        np.testing.assert_array_equal(_one_hot(sp, X), want)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_norm_is_dimension_count(self, data):
        cards = data.draw(
            st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=5)
        )
        sp = SearchSpace(tuple(cards))
        coords = [data.draw(st.integers(min_value=0, max_value=g - 1)) for g in cards]
        z = _one_hot(sp, np.array([coords]))
        assert int(np.sum(z**2)) == sp.n


class TestRelocation:
    def test_identity(self):
        sp = SearchSpace((3, 4))
        r = identity_relocation(sp)
        x = np.array([2, 3])
        assert np.array_equal(r.apply(x), x)
        assert r.is_identity()

    def test_all_flip_binary(self):
        sp = SearchSpace((2, 2, 2))
        r = Relocation(sp, ((1, 0), (1, 0), (1, 0)))
        assert r.apply([0, 1, 0]).tolist() == [1, 0, 1]

    def test_invertible(self):
        sp = SearchSpace((2, 5, 3))
        r = sample_relocation(sp, 7)
        rng = np.random.default_rng(1)
        xs = sp.sample_points(20, rng)
        back = r.inverse().apply_many(r.apply_many(xs))
        assert np.array_equal(back, xs)

    def test_preserves_hamming_distance(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            sp = random_space(rng)
            r = sample_relocation(sp, trial)
            x, y = sp.sample_points(2, rng)
            assert hamming_distance(x, y) == hamming_distance(
                r.apply(x), r.apply(y)
            )

    def test_bijection_on_small_space(self):
        sp = SearchSpace((3, 2, 4))
        r = sample_relocation(sp, 11)
        pts = sp.enumerate_points()
        imgs = {tuple(p) for p in r.apply_many(pts)}
        assert len(imgs) == sp.size

    def test_seed_determinism(self):
        sp = SearchSpace((2, 5, 3, 7))
        assert sample_relocation(sp, 42) == sample_relocation(sp, 42)
        assert sample_relocation(sp, 42) != sample_relocation(sp, 43)

    def test_seeded_draws_are_pinned(self):
        # seeded relocations and automorphisms stay bit-identical across versions
        assert sample_relocation(SearchSpace((2, 5, 3, 7)), 42).perms == (
            (0, 1), (2, 3, 4, 1, 0), (0, 1, 2), (5, 3, 1, 4, 6, 2, 0)
        )
        a = sample_automorphism(SearchSpace((3,) * 4), 7)
        assert a.dim_perm == (1, 2, 0, 3)
        assert a.perms == ((2, 1, 0), (2, 0, 1), (0, 2, 1), (0, 1, 2))

    def test_is_an_automorphism_keeping_dimensions_in_place(self):
        sp = SearchSpace((2, 5, 3))
        r = sample_relocation(sp, 7)
        assert isinstance(r, Automorphism) and r.dim_perm == (0, 1, 2)
        assert r == Relocation(sp, r.perms)  # equality compares maps
        assert r.inverse() == Automorphism(sp, (0, 1, 2), r.inverse().perms)

    def test_flip_frequency_near_half(self):
        sp = SearchSpace((2,))
        flips = sum(
            sample_relocation(sp, seed).perms[0] == (1, 0) for seed in range(10000)
        )
        assert 0.48 <= flips / 10000 <= 0.52

    def test_categorical_dim_gets_permutation(self):
        sp = SearchSpace((5,))
        r = sample_relocation(sp, 3)
        assert sorted(r.perms[0]) == [0, 1, 2, 3, 4]

    def test_rejects_non_permutation(self):
        sp = SearchSpace((3,))
        with pytest.raises(InvalidInputError):
            Relocation(sp, ((0, 0, 2),))


class TestAutomorphism:
    def test_seed_determinism(self):
        sp = SearchSpace((3, 3, 3))
        a1 = sample_automorphism(sp, 5)
        a2 = sample_automorphism(sp, 5)
        assert a1.dim_perm == a2.dim_perm and a1.perms == a2.perms

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(3)
        sp = SearchSpace((4, 4, 4, 4))
        a = sample_automorphism(sp, 9)
        inv = a.inverse()
        for _ in range(100):
            x = sp.sample_points(1, rng)[0]
            assert np.array_equal(inv.apply(a.apply(x)), x)

    def test_preserves_hamming_distance(self):
        rng = np.random.default_rng(4)
        sp = SearchSpace((3, 3, 3, 3, 3))
        for trial in range(100):
            a = sample_automorphism(sp, trial)
            x, y = sp.sample_points(2, rng)
            assert hamming_distance(x, y) == hamming_distance(a.apply(x), a.apply(y))

    def test_unequal_space_keeps_dimension_order(self):
        sp = SearchSpace((2, 3, 4))
        for seed in range(20):
            a = sample_automorphism(sp, seed)
            assert a.dim_perm == (0, 1, 2)

    def test_equal_space_mixes_dimensions(self):
        sp = SearchSpace((3,) * 6)
        assert any(
            sample_automorphism(sp, seed).dim_perm != tuple(range(6))
            for seed in range(20)
        )

    def test_rejects_mixing_unequal_dimensions(self):
        sp = SearchSpace((2, 3))
        with pytest.raises(InvalidInputError):
            Automorphism(sp, (1, 0), ((0, 1), (0, 1, 2)))

    def test_apply_many_matches_apply(self):
        sp = SearchSpace((4, 4, 4))
        a = sample_automorphism(sp, 13)
        rng = np.random.default_rng(5)
        xs = sp.sample_points(10, rng)
        batch = a.apply_many(xs)
        for row, x in zip(batch, xs):
            assert np.array_equal(row, a.apply(x))



@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: hamming_matrix([[0, 1]], [[0, 1, 0]]), "dimension mismatch between point sets"),
        (lambda: Automorphism(SearchSpace((2, 2)), (0, 0), ((0, 1), (0, 1))),
         "dim_perm is not a permutation"),
        (lambda: Automorphism(SearchSpace((2, 2)), (0, 1), ((0, 1),)),
         "one permutation per dimension"),
    ],
    ids=["hamming_matrix-dims", "automorphism-dim_perm", "automorphism-perm-count"],
)
def test_rejected_input(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()
