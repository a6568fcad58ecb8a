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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SearchSpace",
    "Relocation",
    "Automorphism",
    "hamming_distance",
    "one_hot",
    "sample_relocation",
    "sample_automorphism",
    "parse_space_text",
    "load_space",
    "point_to_str",
    "point_from_str",
]


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericFailure(RuntimeError):
    """A linear-algebra step failed beyond recoverable tolerance."""


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

    Categories are dense indices ``0 .. g_i - 1``.  Optional human-readable
    names are interned at construction and play no role in any computation.
    """

    cardinalities: tuple[int, ...]
    category_names: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        cards = tuple(int(g) for g in self.cardinalities)
        object.__setattr__(self, "cardinalities", cards)
        if len(cards) == 0:
            raise InvalidInputError("search space needs at least one dimension")
        for i, g in enumerate(cards):
            if g < 2:
                raise InvalidInputError(f"dimension {i} has {g} categories; need >= 2")
        if self.category_names is not None:
            names = tuple(tuple(ns) for ns in self.category_names)
            if len(names) != len(cards) or any(
                len(ns) != g for ns, g in zip(names, cards)
            ):
                raise InvalidInputError("category name lists do not match cardinalities")
            object.__setattr__(self, "category_names", names)

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
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.n,):
            raise InvalidInputError(
                f"point has shape {x.shape}, expected ({self.n},)"
            )
        if np.any(x < 0) or np.any(x >= np.asarray(self.cardinalities)):
            raise InvalidInputError(f"point {x.tolist()} out of category range")
        return x

    def validate_points(self, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.int64))
        if xs.shape[1] != self.n:
            raise InvalidInputError(
                f"points have {xs.shape[1]} dimensions, expected {self.n}"
            )
        if np.any(xs < 0) or np.any(xs >= np.asarray(self.cardinalities)):
            raise InvalidInputError("some point is out of category range")
        return xs

    def enumerate_points(self) -> np.ndarray:
        """All points as an array of shape (size, n), last dimension fastest."""
        grids = np.meshgrid(*[np.arange(g) for g in self.cardinalities], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)

    def sample_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        cards = np.asarray(self.cardinalities)
        return rng.integers(0, cards, size=(count, self.n), dtype=np.int64)

    def index_of_category(self, dim: int, name: str) -> int:
        if self.category_names is None:
            raise InvalidInputError("space carries no category names")
        try:
            return self.category_names[dim].index(name)
        except ValueError:
            raise InvalidInputError(f"unknown category {name!r} in dimension {dim}")


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


def one_hot(space: SearchSpace, x) -> np.ndarray:
    """Binary encoding with one block per dimension; block i is g_i wide."""
    x = space.validate_point(x)
    z = np.zeros(space.one_hot_width, dtype=np.int64)
    offset = 0
    for xi, g in zip(x, space.cardinalities):
        z[offset + xi] = 1
        offset += g
    return z


@dataclass(frozen=True)
class Automorphism:
    """Distance-preserving self-map: permute dimensions, then relabel categories.

    Maps x to y with ``y[i] = perms[i][x[dim_perm[i]]]``.  A non-identity
    dimension permutation is only valid when the dimensions it mixes have
    equal cardinality.  ``seed`` records the draw; equality compares maps.
    """

    space: SearchSpace
    dim_perm: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]
    seed: int | None = field(default=None, compare=False)

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
        # y[i] = table[starts[i] + x[dim_perm[i]]]: perms[i] is the block at starts[i]
        object.__setattr__(self, "_source", np.array(self.dim_perm, dtype=np.intp))
        object.__setattr__(self, "_starts", np.cumsum((0,) + cards[:-1]))
        object.__setattr__(self, "_table", np.concatenate(self.perms).astype(np.int64))

    def apply(self, x) -> np.ndarray:
        return self.apply_unchecked(self.space.validate_point(x))

    def apply_many(self, xs) -> np.ndarray:
        return self.apply_unchecked(self.space.validate_points(xs))

    def apply_unchecked(self, xs: np.ndarray) -> np.ndarray:
        """The map on an already validated int array of one point or many rows."""
        return self._table[self._starts + xs[..., self._source]]

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

    def __init__(self, space: SearchSpace, perms, seed: int | None = None):
        super().__init__(space, tuple(range(space.n)), perms, seed)


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
    return Relocation(space, tuple(perms), seed=seed)


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
    return Automorphism(space, tuple(dim_perm), tuple(perms), seed=seed)


# ---------------------------------------------------------------------------
# Plain-text space descriptions and point serialization.
#
# Format: first non-comment line is a comma-separated cardinality list;
# optional following lines "i: name0,name1,..." attach category names.
# ---------------------------------------------------------------------------


def parse_space_text(text: str) -> SearchSpace:
    cards: list[int] | None = None
    names: dict[int, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if cards is None:
            try:
                cards = [int(tok) for tok in line.split(",")]
            except ValueError:
                raise InvalidInputError(f"line {lineno}: bad cardinality list {line!r}")
        else:
            dim_str, _, name_str = line.partition(":")
            try:
                dim = int(dim_str)
            except ValueError:
                raise InvalidInputError(f"line {lineno}: bad dimension index {dim_str!r}")
            names[dim] = tuple(tok.strip() for tok in name_str.split(","))
    if cards is None:
        raise InvalidInputError("no cardinality list found")
    name_tuple = None
    if names:
        name_tuple = tuple(
            names.get(i, tuple(str(c) for c in range(g))) for i, g in enumerate(cards)
        )
    return SearchSpace(tuple(cards), name_tuple)


def load_space(path) -> SearchSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_space_text(fh.read())


def point_to_str(x) -> str:
    return ",".join(str(int(v)) for v in np.asarray(x).ravel())


def point_from_str(text: str) -> np.ndarray:
    return np.array([int(tok) for tok in text.split(",")], dtype=np.int64)
