import hashlib
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from heatbo import benchmarks, bo, gp, kernels
from heatbo.space import (
    InvalidInputError,
    Relocation,
    SearchSpace,
    hamming_distance,
    sample_relocation,
)


def masked_expected_improvement(mean, variance, best_so_far):
    """Expected improvement as two nested masks computed it, frozen as the
    reference for ``bo.expected_improvement``'s bits: z = 0 and EI =
    max(improve, 0) where the variance is 0."""
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    sigma = np.sqrt(variance)
    improve = best_so_far - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
        z = np.clip(z, -38.0, 38.0)
        ei = np.where(
            sigma > 0,
            improve * ndtr(z) + sigma * np.exp(-0.5 * z**2) / sqrt(2.0 * np.pi),
            np.maximum(improve, 0.0),
        )
    return np.maximum(ei, 0.0) if ei.ndim else float(max(ei, 0.0))


# zero, subnormal and tiny variances put |improve| / sigma past the +-38 clip
VARIANCES = st.one_of(
    st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e-8), st.floats(0.0, 1e4)
)
MEANS = st.floats(-1e4, 1e4)


class TestExpectedImprovement:
    @given(
        pairs=st.lists(st.tuples(MEANS, VARIANCES), min_size=1, max_size=30),
        best=MEANS,
        scalar=st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    @example(pairs=[(1.0, 0.0), (-1.0, 0.0), (0.5, 0.0), (0.0, 1e-300)], best=0.5, scalar=False)
    @example(pairs=[(-0.0, 0.0)], best=0.0, scalar=True)
    @example(pairs=[(0.0, 0.0)], best=-0.0, scalar=True)  # improve = -0.0 clamps to +0.0
    @example(pairs=[(1.602, 0.057)], best=0.5, scalar=True)  # z**2 and z * z give other EI bits
    def test_bits_match_the_masked_formula(self, pairs, best, scalar):
        mean, variance = (list(column) for column in zip(*pairs))
        if scalar:
            mean, variance = mean[0], variance[0]
        got = bo.expected_improvement(mean, variance, best)
        want = masked_expected_improvement(mean, variance, best)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize(
        "mean, variance, best",
        [(0.0, np.nan, 0.5), ([0.0, 1.0], [1.0, np.nan], 0.5), (np.nan, 1.0, 0.0),
         ([0.0, np.inf], [1.0, 1.0], 0.0), (-np.inf, 0.0, 0.0), (0.0, 1.0, np.nan),
         (0.0, 1.0, np.inf), (0.0, 1.0, -np.inf)],
        ids=["nan-var", "nan-var-in-batch", "nan-mean", "inf-mean-in-batch", "-inf-mean",
             "nan-best", "inf-best", "-inf-best"],
    )
    def test_nan_variance_and_non_finite_mean_or_best_rejected(self, mean, variance, best):
        with pytest.raises(InvalidInputError):
            bo.expected_improvement(mean, variance, best)

    def test_at_the_incumbent_mean(self):
        got = bo.expected_improvement(0.0, 1.0, 0.0)
        assert got == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_deterministic_improvement(self):
        assert bo.expected_improvement(-2.0, 0.0, 0.0) == 2.0

    def test_zero_variance_no_improvement(self):
        assert bo.expected_improvement(1.0, 0.0, 0.0) == 0.0

    def test_monotone_in_sigma(self):
        sigmas = np.linspace(0.01, 5.0, 100)
        # mean above the incumbent: only uncertainty creates value
        values = bo.expected_improvement(
            np.full_like(sigmas, 1.0), sigmas**2, 0.0
        )
        assert np.all(np.diff(values) > 0)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(0)
        means = rng.normal(size=200)
        variances = rng.uniform(0, 4, size=200)
        assert np.all(bo.expected_improvement(means, variances, 0.3) >= 0)

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidInputError):
            bo.expected_improvement(0.0, -1.0, 0.0)

    @given(
        mean=st.floats(min_value=-100, max_value=100),
        variance=st.floats(min_value=0.0, max_value=100),
        best=st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_zero_without_upside(self, mean, variance, best):
        value = bo.expected_improvement(mean, variance, best)
        assert value >= 0.0
        if variance == 0.0 and mean >= best:
            assert value == 0.0
        # expected improvement dominates the certain improvement
        if mean < best:
            assert value >= (best - mean) - 1e-9 * max(1.0, best - mean)


class TestTrustRegionUpdate:
    def make_tr(self, radius=4, n=16):
        return bo.TrustRegionState(center=(0,) * n, radius=radius, config=bo.TrustRegionConfig())

    def test_three_successes_double_radius(self):
        tr = self.make_tr(radius=4)
        for _ in range(2):
            tr, restart = bo.tr_update(tr, True)
            assert not restart
        tr, restart = bo.tr_update(tr, True)
        assert tr.radius == 8 and not restart
        assert tr.success_streak == 0

    def test_radius_capped_at_max(self):
        tr = self.make_tr(radius=12, n=16)
        for _ in range(3):
            tr, _ = bo.tr_update(tr, True)
        assert tr.radius == 16

    def test_failures_halve_radius(self):
        tr = self.make_tr(radius=8)
        for _ in range(10):
            tr, restart = bo.tr_update(tr, False)
        assert tr.radius == 4 and not restart

    def test_restart_at_minimum_radius(self):
        tr = self.make_tr(radius=1)
        restart = False
        for _ in range(10):
            tr, restart = bo.tr_update(tr, False)
        assert restart
        assert tr.radius == 1

    def test_alternating_keeps_radius(self):
        tr = self.make_tr(radius=4)
        for _ in range(20):
            tr, _ = bo.tr_update(tr, True)
            tr, _ = bo.tr_update(tr, False)
        assert tr.radius == 4

    @pytest.mark.parametrize(
        "n, radii", [(1, [1, 1, 1, 1]), (4, [1, 1, 1, 1]), (5, [1, 2, 1, 2]), (16, [2, 1, 4, 2])]
    )
    def test_region_starts_and_restarts_at_a_quarter_of_the_dimensions(self, n, radii):
        """ceil(n / 4) at the start and after each restart; each failure
        (tolerance 1) halves the radius, or restarts the region at radius 1."""
        sp = SearchSpace((2,) * n)
        config = bo.TrustRegionConfig(failure_tolerance=1)
        run = bo.new_run(sp, kernels.default_spec(sp, "heat"), 0, config)
        bo.observe(run, (0,) * n, 1.0)
        assert run.tr.radius == -(-n // 4)
        seen = []
        for value in (2.0, 3.0, 4.0, 5.0):
            bo.observe(run, (0,) * n, value)
            seen.append(run.tr.radius)
        assert seen == radii

    def test_radius_stays_within_bounds(self):
        rng = np.random.default_rng(1)
        tr = self.make_tr(radius=4)
        for _ in range(200):
            tr, restart = bo.tr_update(tr, bool(rng.random() < 0.4))
            if restart:
                tr = self.make_tr(radius=bo._initial_radius(16))
            assert 1 <= tr.radius <= 16


class TestBallGeometry:
    def test_ball_size_matches_enumeration(self):
        sp = SearchSpace((3, 4, 2))
        center = np.array([0, 1, 1])
        for radius in range(4):
            ball = bo.enumerate_ball(sp, center, radius)
            assert len(ball) == bo.ball_size(sp, radius)
            assert len({tuple(p) for p in ball}) == len(ball)
            assert all(hamming_distance(p, center) <= radius for p in ball)


class TestGaOptimize:
    @pytest.mark.parametrize("bad", [dict(success_tolerance=0), dict(failure_tolerance=0)])
    def test_zero_tolerances_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            bo.TrustRegionConfig(**bad)

    def test_beats_95_percent_of_exhaustive_optimum(self):
        # exhaustive-enumeration oracle over the trust region
        sp = SearchSpace((4, 4, 4, 4))  # 256 points
        target = np.array([1, 2, 3, 0])
        bumps = np.array([3, 3, 3, 3])

        def acq(points):
            d1 = np.count_nonzero(points != target, axis=1).astype(float)
            d2 = np.count_nonzero(points != bumps, axis=1).astype(float)
            return np.exp(-d1) + 0.4 * np.exp(-1.3 * d2)

        cfg = bo.TrustRegionConfig()
        tr = bo.TrustRegionState(center=(1, 2, 0, 0), radius=3, config=cfg)
        ball = bo.enumerate_ball(sp, np.array(tr.center), tr.radius)
        exact = float(np.max(acq(ball)))
        hits = 0
        for seed in range(100):
            best = bo.ga_optimize(acq, sp, tr, bo.GaConfig(), seed)
            if float(acq(best[None])[0]) >= 0.95 * exact:
                hits += 1
        assert hits >= 95

    def test_candidates_respect_radius(self):
        sp = SearchSpace((5,) * 6)
        cfg = bo.TrustRegionConfig()
        center = (0, 1, 2, 3, 4, 0)
        tr = bo.TrustRegionState(center=center, radius=2, config=cfg)
        seen = []

        def acq(points):
            seen.extend(tuple(int(v) for v in p) for p in points)
            return np.zeros(len(points))

        bo.ga_optimize(acq, sp, tr, bo.GaConfig(), 3)
        assert seen
        for p in seen:
            assert hamming_distance(p, center) <= 2

    def test_deterministic_given_seed(self):
        sp = SearchSpace((3,) * 5)
        cfg = bo.TrustRegionConfig()
        tr = bo.TrustRegionState(center=(0,) * 5, radius=2, config=cfg)
        rng = np.random.default_rng(4)
        w = rng.normal(size=5)
        acq = lambda P: P @ w
        a = bo.ga_optimize(acq, sp, tr, bo.GaConfig(), 11)
        b = bo.ga_optimize(acq, sp, tr, bo.GaConfig(), 11)
        assert np.array_equal(a, b)

    def test_avoids_observed_points(self):
        sp = SearchSpace((2, 2, 2))
        cfg = bo.TrustRegionConfig()
        tr = bo.TrustRegionState(center=(0, 0, 0), radius=3, config=cfg)
        best = np.array([0, 0, 0])

        def acq(points):
            return -np.count_nonzero(points != best, axis=1).astype(float)

        observed = frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 0)})
        got = bo.ga_optimize(acq, sp, tr, bo.GaConfig(), 5, exclude=observed)
        assert tuple(got) not in observed

    def test_exhaustion_signal(self):
        sp = SearchSpace((2, 2))
        cfg = bo.TrustRegionConfig()
        tr = bo.TrustRegionState(center=(0, 0), radius=2, config=cfg)
        everything = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
        with pytest.raises(bo.TrustRegionExhausted):
            bo.ga_optimize(
                lambda P: np.zeros(len(P)), sp, tr, bo.GaConfig(), 6,
                exclude=everything,
            )


@st.composite
def ball_problems(draw, max_card=5):
    """A space of 2..max_card categories per dimension, a center, a radius in
    1..n, a row count and a generator seed."""
    cards = tuple(draw(st.lists(st.integers(2, max_card), min_size=1, max_size=8)))
    sp = SearchSpace(cards)
    center = np.array(draw(st.tuples(*(st.integers(0, g - 1) for g in cards))))
    radius = draw(st.integers(1, sp.n))
    return sp, center, radius, draw(st.integers(1, 30)), draw(st.integers(0, 2**32 - 1))


def draw_rows(sp, count, seed):
    """Rows anywhere in the space, mostly far from any center."""
    return sp.sample_points(count, np.random.default_rng([seed, 1]))


class TestArrayDraws:
    @given(ball_problems())
    @settings(max_examples=200, deadline=None)
    def test_drawn_rows_lie_in_the_ball(self, problem):
        sp, center, radius, count, seed = problem
        cards = np.asarray(sp.cardinalities)
        rows = bo._draw_in_ball(center, radius, count, cards, np.random.default_rng(seed))
        assert rows.shape == (count, sp.n)
        assert np.all((rows >= 0) & (rows < cards))
        changed = np.count_nonzero(rows != center, axis=1)
        assert np.all((changed >= 1) & (changed <= radius))

    @given(ball_problems())
    @settings(max_examples=200, deadline=None)
    def test_repair_reverts_only_mismatches_of_rows_outside(self, problem):
        sp, center, radius, count, seed = problem
        cards = np.asarray(sp.cardinalities)
        inside = bo._draw_in_ball(center, radius, count, cards, np.random.default_rng(seed))
        rows = np.vstack([inside, draw_rows(sp, count, seed)])
        repaired = bo._repair_into_ball(rows.copy(), center, radius, np.random.default_rng(seed))
        before = np.count_nonzero(rows != center, axis=1)
        after = np.count_nonzero(repaired != center, axis=1)
        outside = before > radius
        np.testing.assert_array_equal(repaired[~outside], rows[~outside])
        assert np.all(after[outside] == radius)
        kept = repaired == rows
        assert np.all(kept | ((repaired == center) & (rows != center)))

    @given(ball_problems(max_card=2), st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_binary_draws_commute_with_relocation(self, problem, reloc_seed):
        sp, center, radius, count, seed = problem
        cards = np.asarray(sp.cardinalities)
        reloc = sample_relocation(sp, reloc_seed)
        moved = reloc.apply(center)
        rng = lambda: np.random.default_rng(seed)
        drawn = bo._draw_in_ball(center, radius, count, cards, rng())
        np.testing.assert_array_equal(
            reloc.apply_many(drawn), bo._draw_in_ball(moved, radius, count, cards, rng())
        )
        rows = draw_rows(sp, count, seed)
        repaired = bo._repair_into_ball(rows.copy(), center, radius, rng())
        np.testing.assert_array_equal(
            reloc.apply_many(repaired),
            bo._repair_into_ball(reloc.apply_many(rows), moved, radius, rng()),
        )

    def test_changed_dimension_count_is_uniform(self):
        # 6,000 draws at radius 6: each count 1..6 expects 1,000 with a standard
        # deviation of about 29; allow 10% (about 3.5 deviations) either way
        sp = SearchSpace((2, 3, 4, 5) * 3)
        cards = np.asarray(sp.cardinalities)
        center = np.array([1, 0, 3, 2] * 3)
        rows = bo._draw_in_ball(center, 6, 6000, cards, np.random.default_rng(2024))
        counts = np.bincount(np.count_nonzero(rows != center, axis=1), minlength=7)
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] - 1000) <= 100), counts


def reference_shift(points, entries, cards, rng):
    """Offset the listed (row, column) entries, in that order, by one
    ``rng.integers(1, g)`` call: the draw ``bo._shift`` makes."""
    highs = np.array([cards[c] for _, c in entries], dtype=np.int64)
    for (r, c), u in zip(entries, rng.integers(1, highs).tolist()):
        points[r][c] = (points[r][c] + u) % cards[c]


def reference_lowest(keys, candidates, count):
    """The ``count`` columns among ``candidates`` with the smallest keys."""
    return set(sorted(candidates, key=lambda c: keys[c])[:count])


def reference_ga_optimize(acq, space, tr, config, seed, exclude=frozenset()):
    """``bo.ga_optimize`` row by row: each random draw is the same call on the
    generator, in the same order, and each row's changes, mutations and
    reverts are chosen one row at a time from those draws.  The bookkeeping
    is one tuple and one strict comparison per evaluated row."""
    center = np.asarray(tr.center)
    radius = int(tr.radius)
    rng = np.random.default_rng(seed)
    pm = 1.0 / space.n
    cards = space.cardinalities
    n = space.n

    def in_ball(count):
        changes = rng.integers(1, radius + 1, size=count)
        keys = rng.random((count, n))
        rows = [center.tolist() for _ in range(count)]
        entries = [
            (r, c)
            for r in range(count)
            for c in sorted(reference_lowest(keys[r], range(n), changes[r]))
        ]
        reference_shift(rows, entries, cards, rng)
        return np.array(rows, dtype=np.int64).reshape(count, n)

    population = np.vstack([center, in_ball(config.population_size - 1)])
    best_unobserved = None

    def digest(pop, values):
        nonlocal best_unobserved
        for p, v in zip(pop, values):
            if tuple(int(c) for c in p) not in exclude:
                if best_unobserved is None or v > best_unobserved[0]:
                    best_unobserved = (v, p.copy())

    values = np.asarray(acq(population), dtype=float)
    digest(population, values)
    n_children = config.population_size - config.elite_count
    for _ in range(config.generations):
        order = np.argsort(values)[::-1]
        elites = population[order[: config.elite_count]]
        idx = rng.integers(0, len(population), size=(n_children, 2, config.tournament_size))
        winner_slot = np.argmax(values[idx], axis=2)
        winners = np.take_along_axis(idx, winner_slot[..., None], axis=2)[..., 0]
        p1 = population[winners[:, 0]]
        p2 = population[winners[:, 1]]
        do_cross = rng.random(n_children) < config.crossover_prob
        mask = rng.random((n_children, n)) < 0.5
        children = np.where(do_cross[:, None] & mask, p2, p1).tolist()
        mutate = rng.random((n_children, n)) < pm
        entries = [(r, c) for r in range(n_children) for c in range(n) if mutate[r, c]]
        reference_shift(children, entries, cards, rng)
        over = []
        for row in children:
            mismatched = [c for c in range(n) if row[c] != center[c]]
            if len(mismatched) > radius:
                over.append((row, mismatched))
        keys = rng.random((len(over), n))
        for (row, mismatched), row_keys in zip(over, keys):
            for c in reference_lowest(row_keys, mismatched, len(mismatched) - radius):
                row[c] = int(center[c])
        children = np.array(children, dtype=np.int64).reshape(n_children, n)
        population = np.vstack([elites, children])
        values = np.asarray(acq(population), dtype=float)
        digest(population, values)

    if best_unobserved is not None:
        return best_unobserved[1]
    if bo.ball_size(space, radius) <= bo._ENUMERATION_CAP:
        ball = bo.enumerate_ball(space, center, radius)
        fresh = np.array([tuple(int(c) for c in p) not in exclude for p in ball])
        if not np.any(fresh):
            raise bo.TrustRegionExhausted(
                f"all {len(ball)} points within radius {radius} observed"
            )
        candidates = ball[fresh]
        vals = np.asarray(acq(candidates), dtype=float)
        return candidates[int(np.argmax(vals))]
    drawn = 0
    while drawn < 10000:
        count = min(config.population_size, 10000 - drawn)
        for p in in_ball(count):
            if tuple(int(c) for c in p) not in exclude:
                return p
        drawn += count
    raise bo.TrustRegionExhausted("could not sample an unobserved point")


@st.composite
def ga_problems(draw):
    """A trust region, a GA configuration, a heavily tied acquisition and an
    observed set.  Every set but ``none`` and ``random`` holds every row the
    GA evaluates, so those draws reach a fallback: enumeration on small
    balls, random draws on balls of more than ``bo._ENUMERATION_CAP`` points.
    ``most`` adds 90% of the space, so a fallback draw is mostly observed, and
    ``ball`` the whole ball where it can be enumerated: exhaustion."""
    cards = tuple(draw(st.one_of(
        st.lists(st.integers(2, 4), min_size=1, max_size=6),
        st.just([4] * 7),  # a 16,384-point ball at radius 7: the random-draw fallback
    )))
    sp = SearchSpace(cards)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    radius = draw(st.integers(1, sp.n))
    center = tuple(int(v) for v in sp.sample_points(1, rng)[0])
    cfg = bo.TrustRegionConfig()
    tr = bo.TrustRegionState(center=center, radius=radius, config=cfg)
    population = draw(st.integers(2, 12))
    ga = bo.GaConfig(
        population_size=population,
        generations=draw(st.integers(0, 4)),
        elite_count=draw(st.integers(0, population - 1)),
    )
    seed = draw(st.integers(0, 2**31))
    hidden = sp.sample_points(1, rng)[0]
    weights = rng.integers(-2, 3, size=sp.n)
    acq = draw(st.sampled_from([
        lambda P: np.zeros(len(P)),
        lambda P: (P @ weights % 3).astype(float),
        lambda P: -np.count_nonzero(P != hidden, axis=1).astype(float),
    ]))
    kind = draw(st.sampled_from(["none", "random", "evaluated", "most", "ball"]))
    exclude = set()
    if kind == "random":
        exclude = {tuple(int(v) for v in p) for p in sp.sample_points(20, rng)}
    elif kind != "none":
        seen = []

        def recording(P):
            seen.extend(map(tuple, P.tolist()))
            return acq(P)

        reference_ga_optimize(recording, sp, tr, ga, seed)
        exclude = set(seen)
        if kind == "most":
            points = sp.enumerate_points()
            exclude |= set(map(tuple, points[rng.random(len(points)) < 0.9].tolist()))
        elif kind == "ball" and bo.ball_size(sp, radius) <= bo._ENUMERATION_CAP:
            exclude |= set(map(tuple, bo.enumerate_ball(sp, np.array(center), radius).tolist()))
    return sp, tr, ga, seed, acq, frozenset(exclude)


def run_ga(optimize, problem):
    sp, tr, ga, seed, acq, exclude = problem
    try:
        return optimize(acq, sp, tr, ga, seed, exclude=exclude)
    except bo.TrustRegionExhausted as exc:
        return exc


class RecordingGenerator:
    """Forwards ``integers`` and ``random`` to a generator and records every
    draw as (method, number of values, shape of an array ``high``).  A draw of
    no values must leave the stream where it was; it is not recorded."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def _draw(self, method, *args, **kwargs):
        before = self.rng.bit_generator.state
        out = getattr(self.rng, method)(*args, **kwargs)
        if np.size(out) == 0:
            assert self.rng.bit_generator.state == before
        else:
            high = args[1] if method == "integers" and len(args) > 1 else None
            self.calls.append((method, np.size(out), np.shape(high)))
        return out

    def integers(self, *args, **kwargs):
        return self._draw("integers", *args, **kwargs)

    def random(self, *args, **kwargs):
        return self._draw("random", *args, **kwargs)


def recorded_draws(optimize, problem):
    """Every draw from the generators that ``run_ga`` makes."""
    calls, make = [], np.random.default_rng
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bo.np.random, "default_rng", lambda s: RecordingGenerator(make(s), calls))
        run_ga(optimize, problem)
    return calls


class TestGaBookkeeping:
    @given(ga_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_row_reference(self, problem):
        got = run_ga(bo.ga_optimize, problem)
        want = run_ga(reference_ga_optimize, problem)
        assert type(got) is type(want)
        if isinstance(want, Exception):
            assert str(got) == str(want)
        else:
            np.testing.assert_array_equal(got, want)

    @given(ga_problems())
    @settings(max_examples=300, deadline=None)
    def test_draws_match_per_row_reference(self, problem):
        # an added, dropped or reordered draw fails even where the results agree
        want = recorded_draws(reference_ga_optimize, problem)
        assert recorded_draws(bo.ga_optimize, problem) == want

    @given(ga_problems())
    @settings(max_examples=300, deadline=None)
    def test_result_in_ball_and_unobserved(self, problem):
        sp, tr, _, _, _, exclude = problem
        got = run_ga(bo.ga_optimize, problem)
        if isinstance(got, Exception):
            # raised only once the whole (enumerable) ball is observed
            assert bo.ball_size(sp, tr.radius) <= bo._ENUMERATION_CAP
            ball = bo.enumerate_ball(sp, np.array(tr.center), tr.radius)
            assert set(map(tuple, ball.tolist())) <= exclude
            return
        assert hamming_distance(got, tr.center) <= tr.radius
        assert tuple(got.tolist()) not in exclude


@st.composite
def relocation_problems(draw):
    """4-8 dimensions of 2-5 categories, a hidden point, a positive integer
    weight and a cyclic shift per dimension."""
    cards = tuple(draw(st.lists(st.integers(2, 5), min_size=4, max_size=8)))
    hidden = tuple(draw(st.integers(0, g - 1)) for g in cards)
    weights = tuple(draw(st.integers(1, 15)) for _ in cards)
    shifts = tuple(draw(st.integers(0, g - 1)) for g in cards)
    return cards, hidden, weights, shifts


# ten bits, the first five weighing 1.3 times the rest, flipped as
# sample_relocation's seed 99 flips them
TEN_BIT_CASE = dict(
    problem=(
        (2,) * 10, (1, 0, 1, 1, 0, 0, 1, 0, 1, 1), (13,) * 5 + (10,) * 5,
        tuple(p[0] for p in sample_relocation(SearchSpace((2,) * 10), 99).perms),
    ),
    family="heat", ard=True, restart=False,
)


def quadratic_objective(hidden):
    def f(x):
        return float(np.count_nonzero(np.asarray(x) != hidden))
    return f


class TestAskTell:
    def make_run(self, sp=None):
        sp = sp or SearchSpace((2,) * 6)
        spec = kernels.default_spec(sp, "heat")
        return bo.new_run(sp, spec, seed=0)

    def test_first_observation_sets_incumbent(self):
        run = self.make_run()
        bo.observe(run, [0, 0, 0, 0, 0, 0], 3.0)
        assert run.incumbent_value == 3.0
        assert run.tr.center == (0, 0, 0, 0, 0, 0)

    def test_worse_value_keeps_incumbent_and_counts_failure(self):
        run = self.make_run()
        bo.observe(run, [0] * 6, 3.0)
        bo.observe(run, [1] * 6, 5.0)
        assert run.incumbent_value == 3.0
        assert run.tr.failure_streak == 1

    def test_better_value_moves_center(self):
        run = self.make_run()
        bo.observe(run, [0] * 6, 3.0)
        bo.observe(run, [1] * 6, 1.0)
        assert run.incumbent_value == 1.0
        assert run.tr.center == (1,) * 6

    def test_tie_keeps_earliest_incumbent(self):
        run = self.make_run()
        bo.observe(run, [0] * 6, 3.0)
        bo.observe(run, [1] * 6, 3.0)
        assert run.incumbent_point == (0,) * 6

    def test_non_finite_value_rejected(self):
        run = self.make_run()
        with pytest.raises(InvalidInputError):
            bo.observe(run, [0] * 6, float("inf"))

    def test_suggest_stays_in_region_and_is_deterministic(self):
        sp = SearchSpace((2,) * 6)
        hidden = np.zeros(6, dtype=int)
        f = quadratic_objective(hidden)
        runs = []
        for _ in range(2):
            run = self.make_run(sp)
            rng = np.random.default_rng(7)
            for p in sp.sample_points(6, rng):
                bo.observe(run, p, f(p), update_region=False)
            runs.append((run, bo.suggest(run)))
        (run1, s1), (run2, s2) = runs
        assert np.array_equal(s1, s2)
        assert hamming_distance(s1, np.array(run1.tr.center)) <= run1.tr.radius

    def test_suggest_on_degenerate_history(self):
        # all-equal targets: posterior is flat, suggestion must still work
        sp = SearchSpace((2,) * 5)
        run = self.make_run(sp)
        rng = np.random.default_rng(8)
        for p in sp.sample_points(5, rng):
            bo.observe(run, p, 1.0, update_region=False)
        got = bo.suggest(run)
        assert tuple(int(v) for v in got) not in run.observed_set()

    def test_acquisition_validates_the_spec_once_and_every_batch(self, monkeypatch):
        # the fit validates the spec as it likes; after it, the posterior does
        # once, and each GA batch validates its own rows and nothing else
        sp = SearchSpace((3,) * 5)
        run = self.make_run(sp)
        f = quadratic_objective(np.zeros(5, dtype=int))
        for p in sp.sample_points(6, np.random.default_rng(9)):
            bo.observe(run, p, f(p), update_region=False)
        specs, rows, events = [], [], []
        validate_spec, validate_points = kernels.validate_spec, SearchSpace.validate_points
        fit, optimize = gp.fit, bo.ga_optimize
        monkeypatch.setattr(
            kernels, "validate_spec", lambda *a: specs.append(a) or validate_spec(*a)
        )
        monkeypatch.setattr(
            SearchSpace, "validate_points",
            lambda space, points: rows.append(len(points)) or validate_points(space, points),
        )

        def counted_fit(*args, **kwargs):
            state = fit(*args, **kwargs)
            events.append(len(specs))
            return state

        def counted_acq(acq):
            def scored(points):
                rows.clear()
                values = acq(points)
                events.append((len(specs), rows.copy(), len(points)))
                return values
            return scored

        monkeypatch.setattr(gp, "fit", counted_fit)
        monkeypatch.setattr(bo, "ga_optimize", lambda acq, *a: optimize(counted_acq(acq), *a))
        bo.suggest(run)
        fitted, *batches = events
        assert len(batches) == bo.GaConfig().generations + 1
        assert batches == [(fitted + 1, [count], count) for _, _, count in batches]

    def test_exhausted_region_restarts_then_full_space_raises(self):
        sp = SearchSpace((2, 2, 2))
        run = self.make_run(sp)
        ball = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for p in ball:  # radius ceil(3 / 4) = 1: the whole ball around the incumbent
            bo.observe(run, p, float(sum(p)), update_region=False)
        assert run.tr.center == (0, 0, 0) and run.tr.radius == 1
        got = tuple(int(v) for v in bo.suggest(run))
        assert run.restart_count == 1 and run.tr.center != (0, 0, 0)
        assert got not in run.observed_set()
        assert hamming_distance(got, run.tr.center) <= run.tr.radius == 1
        for p in sp.enumerate_points():
            if tuple(p) not in run.observed_set():
                bo.observe(run, p, 3.0, update_region=False)
        assert len(run.points) == 8
        with pytest.raises(bo.TrustRegionExhausted, match="all 4 points within radius 1"):
            bo.suggest(run)

    def test_suggest_picks_last_unobserved_point_in_tiny_space(self):
        sp = SearchSpace((4,))
        spec = kernels.default_spec(sp, "heat")
        run = bo.new_run(sp, spec, seed=0)
        for coord, val in [(0, 2.0), (1, 1.5), (2, 1.0)]:
            bo.observe(run, [coord], val, update_region=False)
        # radius 1 already spans the whole 1-D space
        got = bo.suggest(run)
        assert tuple(got) == (3,)


class TestRunBo:
    def test_budget_zero_gives_init_only(self):
        sp = SearchSpace((2,) * 5)
        spec = kernels.default_spec(sp, "heat")
        trace = bo.run_bo(quadratic_objective(np.zeros(5)), sp, spec, 0, 4, seed=1)
        assert len(trace) == 4

    def test_one_initial_point_only_without_budget(self):
        sp = SearchSpace((2,) * 5)
        spec = kernels.default_spec(sp, "heat")
        f = quadratic_objective(np.zeros(5))
        assert len(bo.run_bo(f, sp, spec, 0, 1, seed=1)) == 1
        with pytest.raises(InvalidInputError):
            bo.run_bo(f, sp, spec, 1, 1, seed=1)

    @pytest.mark.parametrize(
        "budget, init_count, seed, match",
        [(-1, 2, 1, "budget >= 0"), (6, 3, 0, "exceeds the space's 8 points"),
         (1, 2, -1, "seed must be >= 0")],
    )
    def test_run_shape_rejected_before_any_evaluation(self, budget, init_count, seed, match):
        sp = SearchSpace((2,) * 3)
        evaluated = []
        with pytest.raises(InvalidInputError, match=match):
            bo.run_bo(evaluated.append, sp, kernels.default_spec(sp, "heat"), budget,
                      init_count, seed=seed)
        assert not evaluated

    @pytest.mark.parametrize("seed", range(6))
    def test_a_run_of_every_point_of_the_space_finishes(self, seed):
        """init_count + budget = space.size: each suggestion finds an unobserved point."""
        sp = SearchSpace((2,) * 3)
        trace = bo.run_bo(benchmarks.labs_energy, sp, kernels.default_spec(sp, "heat"), 5, 3,
                          seed=seed, optimizer_config=gp.OptimizerConfig(steps=10),
                          measure_time=False)
        assert len(trace) == 8

    def test_random_search_draws_past_the_space_size(self):
        sp = SearchSpace((2,) * 3)
        trace = bo.run_bo(benchmarks.labs_energy, sp, kernels.default_spec(sp, "heat"), 0, 20,
                          seed=0, measure_time=False)
        assert len(trace) == 20 and len({r.point for r in trace}) <= sp.size

    def test_incumbent_monotone_non_increasing(self):
        sp = SearchSpace((2,) * 6)
        spec = kernels.default_spec(sp, "heat")
        trace = bo.run_bo(quadratic_objective(np.ones(6, dtype=int)), sp, spec, 8, 4, seed=2)
        incs = [r.incumbent for r in trace]
        assert all(a >= b for a, b in zip(incs, incs[1:]))

    def test_full_run_determinism(self):
        sp = SearchSpace((3,) * 4)
        spec = kernels.default_spec(sp, "heat")
        f = quadratic_objective(np.array([1, 2, 0, 1]))
        t1 = bo.run_bo(f, sp, spec, 6, 4, seed=3, measure_time=False)
        t2 = bo.run_bo(f, sp, spec, 6, 4, seed=3, measure_time=False)
        assert [(r.point, r.raw_value, r.incumbent, r.tr_radius) for r in t1] == [
            (r.point, r.raw_value, r.incumbent, r.tr_radius) for r in t2
        ]

    def test_suggested_points_lie_in_trust_region(self):
        sp = SearchSpace((2,) * 8)
        spec = kernels.default_spec(sp, "heat")
        seen = []
        hidden = np.zeros(8, dtype=int)

        base = quadratic_objective(hidden)
        def spy(x):
            seen.append(np.asarray(x).copy())
            return base(x)

        bo.run_bo(spy, sp, spec, 6, 4, seed=4)
        assert len(seen) == 10

    @given(
        problem=relocation_problems(),
        family=st.sampled_from(["heat", "combo", "casmopolitan"]),
        ard=st.booleans(),
        restart=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(**TEN_BIT_CASE, seed=0)
    @example(**TEN_BIT_CASE, seed=1)
    @example(**TEN_BIT_CASE, seed=2)
    @settings(max_examples=6, deadline=None)
    def test_relocation_equivariance_pipeline(self, problem, family, ard, restart, seed):
        """Cyclic shifts c -> c + s mod g relocate the whole trace exactly; on
        binary dimensions they are sample_relocation's bit flips.  With
        ``restart``, tolerances of 1 force trust-region restarts."""
        cards, hidden, weights, shifts = problem
        sp = SearchSpace(cards)
        f = lambda x: float(np.array(weights) @ (np.asarray(x) != hidden))
        reloc = Relocation(sp, [tuple((np.arange(g) + s) % g) for g, s in zip(cards, shifts)])
        inv = reloc.inverse()
        f_moved = lambda x: f(inv.apply(x))
        spec = kernels.default_spec(sp, family, ard=ard)
        tr_config = (
            bo.TrustRegionConfig(success_tolerance=1, failure_tolerance=1) if restart else None
        )
        init = sp.sample_points(8, np.random.default_rng([seed, 0]))
        t1 = bo.run_bo(f, sp, spec, 8, 8, seed=seed, tr_config=tr_config,
                       initial_points=init, measure_time=False)
        t2 = bo.run_bo(
            f_moved, sp, spec, 8, 8, seed=seed, tr_config=tr_config,
            initial_points=reloc.apply_many(init), measure_time=False,
        )
        assert [a.raw_value for a in t1] == [b.raw_value for b in t2]
        assert [tuple(reloc.apply(a.point)) for a in t1] == [b.point for b in t2]

    def test_beats_random_search_on_structured_objective(self):
        sp = SearchSpace((2,) * 12)
        hidden = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1])
        f = quadratic_objective(hidden)
        spec = kernels.default_spec(sp, "heat")
        bo_final, rs_final = [], []
        for seed in range(5):
            t = bo.run_bo(f, sp, spec, 15, 5, seed=seed, measure_time=False)
            bo_final.append(t[-1].incumbent)
            r = bo.run_bo(f, sp, spec, budget=0, init_count=20, seed=seed + 1000,
                          measure_time=False)
            rs_final.append(r[-1].incumbent)
        assert np.median(bo_final) < np.median(rs_final)


def trace_digest(*traces) -> str:
    """The first 16 hex digits of the SHA-256 of each trace's points, in order."""
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(np.array([r.point for r in trace], dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


class TestTracePin:
    """Two short seeded runs whose point sequences are pinned by hash: one
    LABS run on non-ARD heat (L-BFGS fits) and one on five categories per
    dimension with ARD heat (Adam fits).  Any change to the bits of a fit,
    a prediction or the GA's draws that moves one suggestion moves the
    hash.  Recorded with numpy 2.4 on OpenBLAS 0.3.31, with one and with two
    BLAS threads."""

    def test_seeded_point_sequences(self):
        labs = SearchSpace((2,) * 12)
        labs_trace = bo.run_bo(
            benchmarks.labs_energy, labs, kernels.default_spec(labs, "heat", ard=False),
            budget=10, init_count=8, seed=5, measure_time=False,
        )
        five = SearchSpace((5,) * 5)
        hidden, weights = np.array([1, 4, 0, 2, 3]), np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        five_trace = bo.run_bo(
            lambda x: float(weights @ ((np.asarray(x) - hidden) % 5)),
            five, kernels.default_spec(five, "heat", ard=True),
            budget=6, init_count=6, seed=3, measure_time=False,
        )
        assert trace_digest(labs_trace, five_trace) == "693ea642d4e252e2"


SP3 = SearchSpace((2,) * 3)
HEAT3 = kernels.default_spec(SP3, "heat")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: bo.TrustRegionState((0, 0, 0), 0, bo.TrustRegionConfig()),
         r"radius 0 outside \[1, 3\]"),
        (lambda: bo.suggest(bo.new_run(SP3, HEAT3, 0)), "need at least 2 observations"),
        (lambda: bo.run_bo(benchmarks.labs_energy, SP3, HEAT3, 1, 3, seed=0,
                           initial_points=[[0, 0, 0], [1, 1, 1]]),
         "initial point count mismatch"),
    ],
    ids=["radius", "suggest-history", "initial-points"],
)
def test_rejected_input(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()
