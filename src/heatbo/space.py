"""Categorical search spaces, points, distances and structure-preserving maps.

A search space is a product of finite unordered category sets, one per
dimension.  Points are integer category indices.  The module also provides
the randomized structure-preserving maps used throughout the toolkit:
automorphisms (a dimension permutation combined with per-dimension category
bijections) and relocations, the automorphisms that keep every dimension in
place, used to move benchmark optima.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SearchSpace",
    "Relocation",
    "Automorphism",
    "hamming_distance",
    "sample_relocation",
    "sample_automorphism",
]


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericFailure(RuntimeError):
    """A linear-algebra step failed beyond recoverable tolerance."""


def _coordinates(x, what: str = "coordinates") -> np.ndarray:
    """``x`` as an array of category indices, before the range check: integer
    and bool arrays as they are, float arrays only of finite integers."""
    try:
        x = np.asarray(x)
    except ValueError:  # numpy's "inhomogeneous shape": rows of unequal length
        raise InvalidInputError("points have unequal lengths") from None
    if x.dtype.kind in "biu":
        return x
    if x.dtype.kind != "f" or not np.isfinite(x).all() or (x != np.round(x)).any():
        raise InvalidInputError(f"{what} must be finite integers, got {x.dtype} values")
    return x


def _pinned_shuffle(items: list, rng: random.Random) -> None:
    """In-place Fisher-Yates shuffle driven only by ``rng.random()``.

    ``random.Random.random()`` is the one method with a cross-version
    reproducibility guarantee, so relocations seeded today stay bit-identical
    under future interpreter upgrades.
    """
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        if j > i:  # guard against the measure-zero rng.random() == 1.0
            j = i
        items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class SearchSpace:
    """Product of finite category sets; dimension ``i`` has ``cardinalities[i]`` categories.

    Categories are dense indices ``0 .. g_i - 1``.  ``card_array`` (the cardinalities) and
    ``one_hot_offsets`` (each dimension's first one-hot column) are read-only int64 arrays.
    """

    cardinalities: tuple[int, ...]

    def __post_init__(self):
        cards = _coordinates(self.cardinalities, "cardinalities")
        if cards.ndim != 1:
            raise InvalidInputError(f"need one cardinality per dimension, got {cards.shape}")
        cards = tuple(int(g) for g in cards.tolist())
        object.__setattr__(self, "cardinalities", cards)
        if len(cards) == 0:
            raise InvalidInputError("search space needs at least one dimension")
        for i, g in enumerate(cards):
            if g < 2:
                raise InvalidInputError(f"dimension {i} has {g} categories; need >= 2")
        offsets = np.cumsum((0,) + cards[:-1], dtype=np.int64)
        for name, array in (("card_array", np.array(cards, dtype=np.int64)),
                            ("one_hot_offsets", offsets)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return len(self.cardinalities)

    @property
    def one_hot_width(self) -> int:
        return int(sum(self.cardinalities))

    @property
    def size(self) -> int:
        """Total number of points; may be astronomically large."""
        out = 1
        for g in self.cardinalities:
            out *= g
        return out

    def equal_sized(self) -> bool:
        return len(set(self.cardinalities)) == 1

    def validate_point(self, x) -> np.ndarray:
        x = _coordinates(x)
        if x.shape != (self.n,):
            raise InvalidInputError(
                f"point has shape {x.shape}, expected ({self.n},)"
            )
        return self.validate_points(x[None])[0]

    def validate_points(self, xs) -> np.ndarray:
        xs = np.atleast_2d(_coordinates(xs))
        if xs.ndim != 2:
            raise InvalidInputError(f"need one point or a 2-D array of points, got {xs.shape}")
        if xs.shape[1] != self.n:
            raise InvalidInputError(
                f"points have {xs.shape[1]} dimensions, expected {self.n}"
            )
        outside = (xs < 0) | (xs >= self.card_array)
        if outside.any():
            first = xs[outside.any(axis=1)][0]
            raise InvalidInputError(f"point {first.tolist()} out of category range")
        return xs.astype(np.int64, copy=False)

    def enumerate_points(self) -> np.ndarray:
        """All points as an array of shape (size, n), last dimension fastest."""
        grids = np.meshgrid(*[np.arange(g) for g in self.cardinalities], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)

    def sample_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.card_array, size=(count, self.n), dtype=np.int64)


def hamming_distance(x, y) -> int:
    """Number of coordinates where two points differ."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise InvalidInputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return int(np.count_nonzero(x != y))


def hamming_matrix(xs, ys=None) -> np.ndarray:
    """Pairwise Hamming distances between rows of ``xs`` and ``ys``."""
    xs = np.atleast_2d(np.asarray(xs))
    ys = xs if ys is None else np.atleast_2d(np.asarray(ys))
    if xs.shape[1] != ys.shape[1]:
        raise InvalidInputError("dimension mismatch between point sets")
    return np.count_nonzero(xs[:, None, :] != ys[None, :, :], axis=2)


@dataclass(frozen=True)
class Automorphism:
    """Distance-preserving self-map: permute dimensions, then relabel categories.

    Maps x to y with ``y[i] = perms[i][x[dim_perm[i]]]``.  A non-identity
    dimension permutation is only valid when the dimensions it mixes have
    equal cardinality.
    """

    space: SearchSpace
    dim_perm: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.space.n
        if sorted(self.dim_perm) != list(range(n)):
            raise InvalidInputError("dim_perm is not a permutation of the dimensions")
        if len(self.perms) != n:
            raise InvalidInputError("one permutation per dimension required")
        cards = self.space.cardinalities
        for i, src in enumerate(self.dim_perm):
            if cards[src] != cards[i]:
                raise InvalidInputError(
                    "dimension permutation mixes dimensions of unequal cardinality"
                )
            if sorted(self.perms[i]) != list(range(cards[i])):
                raise InvalidInputError(f"perms[{i}] is not a category permutation")
        # y[i] = table[o_i + x[dim_perm[i]]]: perms[i] is the block at one_hot_offsets[i]
        object.__setattr__(self, "_source", np.array(self.dim_perm, dtype=np.intp))
        object.__setattr__(self, "_table", np.concatenate(self.perms).astype(np.int64))

    def apply(self, x) -> np.ndarray:
        return self.apply_unchecked(self.space.validate_point(x))

    def apply_many(self, xs) -> np.ndarray:
        return self.apply_unchecked(self.space.validate_points(xs))

    def apply_unchecked(self, xs: np.ndarray) -> np.ndarray:
        """The map on an already validated int array of one point or many rows."""
        return self._table[self.space.one_hot_offsets + xs[..., self._source]]

    def inverse(self) -> "Automorphism":
        """x[dim_perm[i]] = perms[i]^-1[y[i]]; argsort inverts a permutation."""
        inv_dim = np.argsort(self.dim_perm).tolist()
        inv_perms = (tuple(np.argsort(self.perms[i]).tolist()) for i in inv_dim)
        return Automorphism(self.space, tuple(inv_dim), tuple(inv_perms))

    def is_identity(self) -> bool:
        return all(
            i == src and p == tuple(range(len(p)))
            for i, (src, p) in enumerate(zip(self.dim_perm, self.perms))
        )


class Relocation(Automorphism):
    """Per-dimension category bijections: an automorphism that keeps every
    dimension in place.  Moves benchmark optima; preserves Hamming distances."""

    def __init__(self, space: SearchSpace, perms):
        super().__init__(space, tuple(range(space.n)), perms)


def identity_relocation(space: SearchSpace) -> Relocation:
    return Relocation(space, tuple(tuple(range(g)) for g in space.cardinalities))


def sample_relocation(space: SearchSpace, seed: int) -> Relocation:
    """Seeded random relocation.

    Binary dimensions are flipped independently with probability 0.5;
    dimensions with more than two categories get a uniformly random
    permutation.  Bit-exact reproducibility comes from the pinned
    Fisher-Yates shuffle in this module.
    """
    rng = random.Random(seed)
    perms = []
    for g in space.cardinalities:
        if g == 2:
            perms.append((1, 0) if rng.random() < 0.5 else (0, 1))
        else:
            p = list(range(g))
            _pinned_shuffle(p, rng)
            perms.append(tuple(p))
    return Relocation(space, tuple(perms))


def sample_automorphism(space: SearchSpace, seed: int) -> Automorphism:
    """Uniform element of the automorphism group of the space's Hamming graph.

    Equal-sized spaces admit arbitrary dimension permutations; otherwise the
    dimension permutation is the identity and only category relabelings are
    sampled.
    """
    rng = random.Random(seed ^ 0x5EED_A07)
    dim_perm = list(range(space.n))
    if space.equal_sized():
        _pinned_shuffle(dim_perm, rng)
    perms = []
    for g in space.cardinalities:
        p = list(range(g))
        _pinned_shuffle(p, rng)
        perms.append(tuple(p))
    return Automorphism(space, tuple(dim_perm), tuple(perms))
