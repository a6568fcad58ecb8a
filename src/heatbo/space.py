"""Categorical search spaces, points, distances and structure-preserving maps.

A search space is a product of finite unordered category sets, one per
dimension.  Points are integer category indices.  The module also provides
the two randomized transforms used throughout the toolkit: relocations
(per-dimension category bijections, used to move benchmark optima) and
automorphisms (relocations combined with a dimension permutation).
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
    "apply_relocation",
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
class Relocation:
    """Per-dimension category bijections; preserves all Hamming distances."""

    space: SearchSpace
    perms: tuple[tuple[int, ...], ...]
    seed: int | None = None

    def __post_init__(self):
        if len(self.perms) != self.space.n:
            raise InvalidInputError("one permutation per dimension required")
        for i, (p, g) in enumerate(zip(self.perms, self.space.cardinalities)):
            if sorted(p) != list(range(g)):
                raise InvalidInputError(f"perms[{i}] is not a permutation of 0..{g-1}")

    def inverse(self) -> "Relocation":
        inv_perms = []
        for p in self.perms:
            inv = [0] * len(p)
            for src, dst in enumerate(p):
                inv[dst] = src
            inv_perms.append(tuple(inv))
        return Relocation(self.space, tuple(inv_perms), seed=self.seed)

    def is_identity(self) -> bool:
        return all(p == tuple(range(len(p))) for p in self.perms)


def identity_relocation(space: SearchSpace) -> Relocation:
    return Relocation(space, tuple(tuple(range(g)) for g in space.cardinalities))


def apply_relocation(r: Relocation, x) -> np.ndarray:
    x = r.space.validate_point(x)
    return np.array([r.perms[i][xi] for i, xi in enumerate(x)], dtype=np.int64)


def apply_relocation_many(r: Relocation, xs) -> np.ndarray:
    xs = r.space.validate_points(xs)
    out = np.empty_like(xs)
    for i, p in enumerate(r.perms):
        out[:, i] = np.asarray(p)[xs[:, i]]
    return out


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
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.space.n
        if sorted(self.dim_perm) != list(range(n)):
            raise InvalidInputError("dim_perm is not a permutation of the dimensions")
        cards = self.space.cardinalities
        for i, src in enumerate(self.dim_perm):
            if cards[src] != cards[i]:
                raise InvalidInputError(
                    "dimension permutation mixes dimensions of unequal cardinality"
                )
            if sorted(self.perms[i]) != list(range(cards[i])):
                raise InvalidInputError(f"perms[{i}] is not a category permutation")

    def apply(self, x) -> np.ndarray:
        x = self.space.validate_point(x)
        return np.array(
            [self.perms[i][x[self.dim_perm[i]]] for i in range(self.space.n)],
            dtype=np.int64,
        )

    def apply_many(self, xs) -> np.ndarray:
        xs = self.space.validate_points(xs)
        shuffled = xs[:, list(self.dim_perm)]
        out = np.empty_like(shuffled)
        for i, p in enumerate(self.perms):
            out[:, i] = np.asarray(p)[shuffled[:, i]]
        return out

    def inverse(self) -> "Automorphism":
        n = self.space.n
        inv_dim = [0] * n
        for i, src in enumerate(self.dim_perm):
            inv_dim[src] = i
        inv_perms: list[tuple[int, ...]] = [()] * n
        for j in range(n):
            i = inv_dim[j]  # position that reads from j in the forward map
            p = self.perms[i]
            inv = [0] * len(p)
            for src, dst in enumerate(p):
                inv[dst] = src
            inv_perms[j] = tuple(inv)
        return Automorphism(self.space, tuple(inv_dim), tuple(inv_perms))


def sample_automorphism(space: SearchSpace, seed: int) -> Automorphism:
    """Uniform element of the automorphism group of the space's Hamming graph.

    Equal-sized spaces admit arbitrary dimension permutations; otherwise the
    dimension permutation is the identity and only category relabelings are
    sampled.
    """
    rng = random.Random(seed ^ 0x5EED_A07)
    n = space.n
    if space.equal_sized():
        dim_perm = list(range(n))
        _pinned_shuffle(dim_perm, rng)
    else:
        dim_perm = list(range(n))
    perms = []
    for i in range(n):
        g = space.cardinalities[i]
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
