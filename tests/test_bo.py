import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatbo import bo, kernels
from heatbo.space import (
    InvalidInputError,
    SearchSpace,
    hamming_distance,
    sample_relocation,
)


class TestExpectedImprovement:
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
    def make_tr(self, radius=4, n=16, **overrides):
        sp = SearchSpace((2,) * n)
        cfg = bo.TrustRegionConfig.for_space(sp, **overrides)
        return bo.TrustRegionState(center=(0,) * n, radius=radius, config=cfg)

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

    def test_zero_l_max_means_dimension_count(self):
        sp = SearchSpace((2,) * 6)
        spec = kernels.default_spec(sp, "heat")
        cfg = bo.TrustRegionConfig(l_init=2)  # l_max left at its 0 default
        assert bo.new_run(sp, spec, 0, cfg).tr.config.l_max == 6
        f = quadratic_objective(np.zeros(6, dtype=int))
        trace = bo.run_bo(f, sp, spec, 3, 3, 0, tr_config=cfg, measure_time=False)
        assert len(trace) == 6 and all(1 <= r.tr_radius <= 6 for r in trace)

    def test_radius_stays_within_bounds(self):
        rng = np.random.default_rng(1)
        tr = self.make_tr(radius=4)
        for _ in range(200):
            tr, restart = bo.tr_update(tr, bool(rng.random() < 0.4))
            if restart:
                tr = self.make_tr(radius=tr.config.l_init)
            assert tr.config.l_min <= tr.radius <= tr.config.l_max


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
    @pytest.mark.parametrize(
        "bad", [dict(l_min=0), dict(success_tolerance=0), dict(failure_tolerance=0)]
    )
    def test_radius_zero_and_zero_tolerances_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            bo.TrustRegionConfig.for_space(SearchSpace((3, 3, 3)), **bad)

    def test_beats_95_percent_of_exhaustive_optimum(self):
        # exhaustive-enumeration oracle over the trust region
        sp = SearchSpace((4, 4, 4, 4))  # 256 points
        target = np.array([1, 2, 3, 0])
        bumps = np.array([3, 3, 3, 3])

        def acq(points):
            d1 = np.count_nonzero(points != target, axis=1).astype(float)
            d2 = np.count_nonzero(points != bumps, axis=1).astype(float)
            return np.exp(-d1) + 0.4 * np.exp(-1.3 * d2)

        cfg = bo.TrustRegionConfig.for_space(sp, l_init=3)
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
        cfg = bo.TrustRegionConfig.for_space(sp, l_init=2)
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
        cfg = bo.TrustRegionConfig.for_space(sp)
        tr = bo.TrustRegionState(center=(0,) * 5, radius=2, config=cfg)
        rng = np.random.default_rng(4)
        w = rng.normal(size=5)
        acq = lambda P: P @ w
        a = bo.ga_optimize(acq, sp, tr, bo.GaConfig(), 11)
        b = bo.ga_optimize(acq, sp, tr, bo.GaConfig(), 11)
        assert np.array_equal(a, b)

    def test_avoids_observed_points(self):
        sp = SearchSpace((2, 2, 2))
        cfg = bo.TrustRegionConfig.for_space(sp, l_init=3)
        tr = bo.TrustRegionState(center=(0, 0, 0), radius=3, config=cfg)
        best = np.array([0, 0, 0])

        def acq(points):
            return -np.count_nonzero(points != best, axis=1).astype(float)

        observed = frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 0)})
        got = bo.ga_optimize(acq, sp, tr, bo.GaConfig(), 5, exclude=observed)
        assert tuple(got) not in observed

    def test_exhaustion_signal(self):
        sp = SearchSpace((2, 2))
        cfg = bo.TrustRegionConfig.for_space(sp, l_init=2)
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
    pm = config.mutation_prob if config.mutation_prob is not None else 1.0 / space.n
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
    cfg = bo.TrustRegionConfig.for_space(sp, l_init=radius)
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
def weighted_binary_problems(draw):
    """A hidden point of 4-10 bits and positive integer weights per bit."""
    n = draw(st.integers(4, 10))
    hidden = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 15), min_size=n, max_size=n))
    return tuple(hidden), tuple(weights)


# ten bits, the first five weighing 1.3 times the rest
TEN_BIT_CASE = dict(
    problem=((1, 0, 1, 1, 0, 0, 1, 0, 1, 1), (13,) * 5 + (10,) * 5),
    ard=True, reloc_seed=99,
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
        problem=weighted_binary_problems(),
        ard=st.booleans(),
        reloc_seed=st.integers(0, 2**31 - 1),
        seed=st.integers(0, 2**16),
    )
    @example(**TEN_BIT_CASE, seed=0)
    @example(**TEN_BIT_CASE, seed=1)
    @example(**TEN_BIT_CASE, seed=2)
    @settings(max_examples=4, deadline=None)
    def test_relocation_equivariance_binary_pipeline(self, problem, ard, reloc_seed, seed):
        hidden, weights = (np.array(v) for v in problem)
        sp = SearchSpace((2,) * len(hidden))
        f = lambda x: float(weights @ (np.asarray(x) != hidden))
        reloc = sample_relocation(sp, reloc_seed)
        inv = reloc.inverse()
        f_moved = lambda x: f(inv.apply(x))
        spec = kernels.default_spec(sp, "heat", ard=ard)
        init = sp.sample_points(8, np.random.default_rng([seed, 0]))
        t1 = bo.run_bo(f, sp, spec, 8, 8, seed=seed, initial_points=init, measure_time=False)
        t2 = bo.run_bo(
            f_moved, sp, spec, 8, 8, seed=seed,
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
            r = bo.random_search(f, sp, 20, seed=seed + 1000)
            rs_final.append(r[-1].incumbent)
        assert np.median(bo_final) < np.median(rs_final)
