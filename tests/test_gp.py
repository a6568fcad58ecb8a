import warnings
import zlib
from math import log, nan, pi

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotri

from heatbo import benchmarks, bo, gp, kernels
from heatbo.space import (
    InvalidInputError,
    SearchSpace,
    sample_relocation,
)
from test_kernels import INVARIANT_MODES


def sample_unique(space, rng, m):
    """Distinct points keep the covariance well-conditioned in oracle tests."""
    all_pts = space.enumerate_points()
    idx = rng.choice(len(all_pts), size=m, replace=False)
    return all_pts[idx]


def make_train(space, rng, m=10, fn=None):
    pts = sample_unique(space, rng, m)
    if fn is None:
        values = rng.normal(size=m)
    else:
        values = np.array([fn(p) for p in pts])
    return gp.TrainingSet.from_observations(space, pts, values)


def mll_and_grad(terms, spec, log_noise, y, ladder):
    """The MLL and its gradient array at one point: ``gp.fit``'s evaluation,
    ``_mll_parts`` and then ``_mll_grad`` on its result."""
    parts = gp._mll_parts(terms, spec, log_noise, y, ladder)
    return parts[0], gp._mll_grad(terms, spec, parts)


def dense_mll(K, noise, y):
    """Independent oracle: dense inverse and slogdet, no Cholesky."""
    m = len(y)
    C = K + noise * np.eye(m)
    _, logdet = np.linalg.slogdet(C)
    return float(
        -0.5 * y @ np.linalg.inv(C) @ y - 0.5 * logdet - 0.5 * m * np.log(2 * np.pi)
    )


class TestTrainingSet:
    def test_standardization_stats(self):
        sp = SearchSpace((4, 4))
        rng = np.random.default_rng(0)
        train = make_train(sp, rng, m=15)
        y = train.standardized()
        assert abs(np.mean(y)) < 1e-10
        assert abs(np.std(y) - 1.0) < 1e-10

    def test_destandardize_round_trip(self):
        sp = SearchSpace((4, 4))
        rng = np.random.default_rng(1)
        train = make_train(sp, rng, m=8)
        back = train.destandardize_mean(train.standardized())
        np.testing.assert_allclose(back, train.raw_targets, atol=1e-12)

    def test_single_point_uses_raw_targets(self):
        sp = SearchSpace((4, 4))
        train = gp.TrainingSet.from_observations(sp, [[0, 1]], [3.5])
        assert train.mean == 0.0 and train.std == 1.0
        assert train.standardized()[0] == 3.5

    def test_constant_targets_centered_only(self):
        sp = SearchSpace((4, 4))
        train = gp.TrainingSet.from_observations(sp, [[0, 1], [1, 2]], [2.0, 2.0])
        np.testing.assert_allclose(train.standardized(), 0.0)

    def test_rejects_non_finite(self):
        sp = SearchSpace((4, 4))
        with pytest.raises(InvalidInputError):
            gp.TrainingSet.from_observations(sp, [[0, 1]], [np.nan])


class TestMll:
    def test_single_point_unit_variance(self):
        # k(x,x) + noise = 1 and raw target 0: standard normal log-density at 0
        sp = SearchSpace((4, 4))
        train = gp.TrainingSet.from_observations(sp, [[0, 0]], [0.0])
        spec = kernels.default_spec(sp, "heat", sigma2=1.0 - 1e-8)
        state = gp.make_state(sp, train, spec, noise_variance=1e-8)
        assert state.mll_value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-6)

    def test_invariant_to_training_order(self):
        sp = SearchSpace((3, 3, 3))
        rng = np.random.default_rng(2)
        pts = sample_unique(sp, rng, 9)
        values = rng.normal(size=9)
        spec = kernels.default_spec(sp, "heat")
        t1 = gp.TrainingSet.from_observations(sp, pts, values)
        perm = rng.permutation(9)
        t2 = gp.TrainingSet.from_observations(sp, pts[perm], values[perm])
        s1 = gp.make_state(sp, t1, spec, 1e-3)
        s2 = gp.make_state(sp, t2, spec, 1e-3)
        assert s1.mll_value == pytest.approx(s2.mll_value, abs=1e-10)

    def test_factor_reconstructs_covariance(self):
        sp = SearchSpace((3, 4, 5))
        rng = np.random.default_rng(21)
        train = make_train(sp, rng, m=14)
        spec = kernels.default_spec(sp, "heat")
        state = gp.make_state(sp, train, spec, 1e-3)
        K = kernels.gram(sp, spec, train.points) + 1e-3 * np.eye(14)
        rebuilt = state.chol_lower @ state.chol_lower.T
        assert np.max(np.abs(rebuilt - K)) / np.max(np.abs(K)) < 1e-8

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(3)
        for m in (3, 8, 20):
            sp = SearchSpace((4, 5, 3))
            train = make_train(sp, rng, m=m)
            spec = kernels.default_spec(sp, "heat", betas=rng.uniform(0.1, 1.0, 3))
            noise = 10 ** rng.uniform(-4, -1)
            state = gp.make_state(sp, train, spec, noise)
            K = kernels.gram(sp, spec, train.points)
            assert state.mll_value == pytest.approx(
                dense_mll(K, noise, train.standardized()), abs=1e-10
            )


# every family, and invariant in every mode: a family without a gradient fails here
GRADIENT_CASES = [(family, None) for family in kernels.FAMILY_NAMES if family != "invariant"]
GRADIENT_CASES += [("invariant", mode) for mode in INVARIANT_MODES]


class TestGradients:
    @pytest.mark.parametrize(
        "family, mode", GRADIENT_CASES,
        ids=[family if mode is None else f"{family}-{mode}" for family, mode in GRADIENT_CASES],
    )
    def test_mll_gradient_matches_finite_differences(self, family, mode):
        rng = np.random.default_rng(zlib.crc32(family.encode()))
        # dimension permutations and the padded projection need one alphabet
        sp = SearchSpace((3, 3, 3, 3) if family == "invariant" else (3, 4, 2, 5))
        train = make_train(sp, rng, m=12)
        y = train.standardized()
        base = kernels.default_spec(sp, family)
        if mode in ("sum", "proj"):  # an ARD heat inner over 3 sampled permutations
            inner = kernels.default_spec(sp, "heat")
            base = kernels.default_spec(sp, family, inner=inner, mode=mode, samples=3)
        terms = kernels.fit_terms(sp, base, train.points)
        for _ in range(10):
            theta = kernels.pack_spec(sp, base) + rng.normal(
                scale=0.5, size=kernels.pack_spec(sp, base).size
            )
            spec = kernels.unpack_spec(sp, base, theta)
            log_noise = float(rng.uniform(-6, -2))
            value, grad = mll_and_grad(terms, spec, log_noise, y, gp.JITTER_LADDER)
            full = np.concatenate([theta, [log_noise]])
            for j in range(full.size):
                step = 1e-3 * max(1.0, abs(full[j]))

                def mll_at(k):
                    t = full.copy(); t[j] += k * step
                    return gp._mll_parts(
                        terms, kernels.unpack_spec(sp, base, t[:-1]), t[-1],
                        y, gp.JITTER_LADDER,
                    )[0]

                # fourth-order central difference: on ill-conditioned draws the
                # two-point rule's rounding error alone exceeds 1e-4 relative
                fd = (mll_at(-2) - 8 * mll_at(-1) + 8 * mll_at(1) - mll_at(2)) / (12 * step)
                denom = max(abs(fd), abs(grad[j]), 1e-8)
                assert abs(grad[j] - fd) / denom <= 1e-4, (family, j)


def explicit_mll_and_grad(space, spec, log_noise, X, y):
    """Oracle: dense inverse, and each dK/dtheta formed as K o mismatch_i * c_i."""
    m = len(y)
    K = kernels.gram(space, spec, X)
    noise = np.exp(log_noise)
    C_inv = np.linalg.inv(K + noise * np.eye(m))
    alpha = C_inv @ y
    W = np.outer(alpha, alpha) - C_inv
    if spec.family == "casmopolitan":
        c = -kernels._spread(space, spec.params["lengthscales"]) / space.n
    else:  # d log rho / d log beta for the heat and combo families
        betas = kernels._spread(space, spec.params["betas"])
        g = np.array(space.cardinalities, dtype=float)
        e = np.exp(-betas * g)
        c = betas * g * g * e / ((1.0 - e) * (1.0 + (g - 1.0) * e))
    per_dim = [
        0.5 * np.sum(W * K * (X[:, i][:, None] != X[:, i][None, :]) * c[i])
        for i in range(space.n)
    ]
    kernel_grad = per_dim if spec.ard else [sum(per_dim)]
    grad = [*kernel_grad, 0.5 * np.sum(W * K), 0.5 * np.trace(W) * noise]
    return dense_mll(K, noise, y), np.array(grad)


@st.composite
def log_affine_problems(draw):
    """Random mixed-cardinality space, log-affine spec and training set."""
    cards = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=5)))
    family = draw(st.sampled_from(["heat", "combo", "casmopolitan"]))
    ard = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sp = SearchSpace(cards)
    m = min(12, int(np.prod(cards)))
    train = make_train(sp, rng, m=max(m, 2))
    base = kernels.default_spec(sp, family, ard=ard)
    theta = kernels.pack_spec(sp, base)
    spec = kernels.unpack_spec(sp, base, theta + rng.normal(scale=0.5, size=theta.size))
    return sp, spec, train, float(rng.uniform(-6.0, -2.0)), rng


@st.composite
def exact_problems(draw, families=(
    "heat", "combo", "casmopolitan", "hamming_rbf", "hamming_matern52", "hamming_rq",
)):
    """Log-affine (ARD or not) and distance-profile problems by default, up to
    30 points and a one-hot width of 48: wide enough for a BLAS product's
    summation order to depend on the column positions that relocation
    permutes.  ``invariant`` gets one alphabet: its padded projection pools
    the dimensions."""
    cards = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=8)))
    family = draw(st.sampled_from(families))
    if family == "invariant":
        cards = (cards[0],) * len(cards)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sp = SearchSpace(cards)
    m = draw(st.integers(2, 30))
    train = gp.TrainingSet.from_observations(sp, sp.sample_points(m, rng), rng.normal(size=m))
    base = kernels.default_spec(sp, family, ard=draw(st.booleans()))
    theta = kernels.pack_spec(sp, base)
    spec = kernels.unpack_spec(sp, base, theta + rng.normal(scale=0.5, size=theta.size))
    return sp, spec, train, float(rng.uniform(-6.0, -2.0)), rng


class TestFusedRoute:
    """The log-affine fit route, and the exact arithmetic fit and predict share."""

    @given(log_affine_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_explicit_gradient_oracle(self, problem):
        sp, spec, train, log_noise, _ = problem
        y = train.standardized()
        terms = kernels.fit_terms(sp, spec, train.points)
        value, grad = mll_and_grad(terms, spec, log_noise, y, gp.JITTER_LADDER)
        want_value, want_grad = explicit_mll_and_grad(
            sp, spec, log_noise, train.points, y
        )
        assert value == pytest.approx(want_value, rel=1e-9)
        scale = np.max(np.abs(want_grad))
        assert np.max(np.abs(grad - want_grad)) <= 1e-9 * scale

    @given(exact_problems())
    @settings(max_examples=200, deadline=None)
    def test_relocation_leaves_value_and_gradient_bitwise_equal(self, problem):
        sp, spec, train, log_noise, rng = problem
        y = train.standardized()
        moved = sample_relocation(sp, int(rng.integers(2**31))).apply_many(train.points)
        results = [
            mll_and_grad(
                kernels.fit_terms(sp, spec, pts), spec, log_noise, y, gp.JITTER_LADDER
            )
            for pts in (train.points, moved)
        ]
        (v0, g0), (v1, g1) = results
        assert v0 == v1
        np.testing.assert_array_equal(g0, g1)

    @given(exact_problems())
    @settings(max_examples=60, deadline=None)
    def test_fit_gram_agrees_with_cross_gram(self, problem):
        # The log-affine exponent is exact (dyadic weights times exact counts,
        # in any summation order, ARD included) and the profiles see the exact
        # Hamming matrix, so fit and predict share every bit.
        sp, spec, train, log_noise, _ = problem
        y = train.standardized()
        _, K, *_ = gp._mll_parts(
            kernels.fit_terms(sp, spec, train.points), spec, log_noise, y,
            gp.JITTER_LADDER,
        )
        np.testing.assert_array_equal(
            K, kernels.cross_gram(sp, spec, train.points, train.points)
        )

    @given(exact_problems())
    @settings(max_examples=100, deadline=None)
    def test_relocation_leaves_predictions_bitwise_equal(self, problem):
        sp, spec, train, log_noise, rng = problem
        reloc = sample_relocation(sp, int(rng.integers(2**31)))
        queries = sp.sample_points(7, rng)
        moved = gp.TrainingSet.from_observations(
            sp, reloc.apply_many(train.points), train.raw_targets
        )
        moved_queries = reloc.apply_many(queries)
        np.testing.assert_array_equal(
            kernels.cross_gram(sp, spec, queries, train.points),
            kernels.cross_gram(sp, spec, moved_queries, moved.points),
        )
        noise = float(np.exp(log_noise))
        m0, v0 = gp.predict_batch(gp.make_state(sp, train, spec, noise), queries)
        m1, v1 = gp.predict_batch(gp.make_state(sp, moved, spec, noise), moved_queries)
        np.testing.assert_array_equal(m0, m1)
        np.testing.assert_array_equal(v0, v1)

    def test_fit_terms_group_counts_by_cardinality(self):
        sp = SearchSpace((3, 4, 2))
        X = make_train(sp, np.random.default_rng(15), m=10).points
        counts = kernels.mismatch_counts(sp, X, X, sp.cardinalities)
        assert counts.shape == (3, 10, 10)  # one group per cardinality, not per dimension
        hamming = (X[:, None, :] != X[None, :, :]).sum(axis=2)
        np.testing.assert_array_equal(counts.sum(axis=0), hamming)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mismatch_counts_match_brute_force(self, data):
        # (130, 130, 130, 130, 3) has a one-hot width of 523, above 512
        cards = data.draw(st.one_of(
            st.lists(st.integers(2, 6), min_size=1, max_size=6).map(tuple),
            st.just((130, 130, 130, 130, 3)),
        ))
        sp = SearchSpace(cards)
        groups = data.draw(st.lists(st.integers(0, 2), min_size=sp.n, max_size=sp.n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        X1 = sp.sample_points(data.draw(st.integers(1, 9)), rng)
        X2 = sp.sample_points(data.draw(st.integers(1, 9)), rng)
        differ = X1[:, None, :] != X2[None, :, :]
        want = [differ[:, :, np.equal(groups, g)].sum(axis=2) for g in np.unique(groups)]
        np.testing.assert_array_equal(kernels.mismatch_counts(sp, X1, X2, groups), want)


class TestFit:
    def test_constant_targets_degenerate_case(self):
        sp = SearchSpace((3, 3, 3))
        rng = np.random.default_rng(4)
        pts = sp.sample_points(8, rng)
        train = gp.TrainingSet.from_observations(sp, pts, np.full(8, 4.2))
        spec = kernels.default_spec(sp, "heat")
        state = gp.fit(sp, train, spec)
        assert state.spec.sigma2 < 1.0  # signal shrinks on constant data
        means, _ = gp.predict_batch(state, pts)
        np.testing.assert_allclose(means, 4.2, atol=1e-3)

    def test_final_mll_at_least_initial(self):
        sp = SearchSpace((2,))
        train = gp.TrainingSet.from_observations(sp, [[0], [1]], [0.0, 1.0])
        spec = kernels.default_spec(sp, "heat")
        initial = gp.make_state(sp, train, spec, gp.OptimizerConfig().initial_noise)
        fitted = gp.fit(sp, train, spec)
        assert fitted.mll_value >= initial.mll_value - 1e-12

    def test_fit_improves_over_start_on_structured_data(self):
        sp = SearchSpace((4, 4, 4, 4))
        rng = np.random.default_rng(5)
        fn = lambda p: float(np.sum(p == 0))
        train = make_train(sp, rng, m=25, fn=fn)
        spec = kernels.default_spec(sp, "heat")
        start = gp.make_state(sp, train, spec, gp.OptimizerConfig().initial_noise)
        fitted = gp.fit(sp, train, spec)
        assert fitted.mll_value > start.mll_value

    def test_deterministic(self):
        sp = SearchSpace((3, 3, 3))
        rng = np.random.default_rng(6)
        train = make_train(sp, rng, m=10)
        spec = kernels.default_spec(sp, "heat")
        s1 = gp.fit(sp, train, spec)
        s2 = gp.fit(sp, train, spec)
        np.testing.assert_array_equal(
            np.asarray(s1.spec.params["betas"]), np.asarray(s2.spec.params["betas"])
        )
        assert s1.noise_variance == s2.noise_variance

    def test_warm_start_can_only_help(self):
        sp = SearchSpace((3, 3, 3))
        rng = np.random.default_rng(7)
        train = make_train(sp, rng, m=12)
        spec = kernels.default_spec(sp, "heat")
        cold = gp.fit(sp, train, spec)
        warm = gp.fit(sp, train, spec, warm_start=cold.spec, warm_noise=cold.noise_variance)
        assert warm.mll_value >= cold.mll_value - 1e-9

    @given(exact_problems(kernels.FAMILY_NAMES))
    @settings(max_examples=40, deadline=None)
    def test_fit_never_ends_below_its_warm_start(self, problem):
        # L-BFGS (non-ARD) accepts only rising trials inside its box; Adam
        # (ARD) keeps its best iterate, the warm start among them
        sp, spec, train, log_noise, _ = problem
        noise = float(np.exp(log_noise))
        try:
            start = gp.make_state(sp, train, spec, noise)
        except gp.NumericFailure:
            assume(False)
        # a first step long enough to overshoot, so that the line search acts
        config = gp.OptimizerConfig(steps=15, learning_rate=2.0)
        fitted = gp.fit(sp, train, spec, config, warm_start=spec, warm_noise=noise)
        assert fitted.mll_value >= start.mll_value - 1e-9 * max(1.0, abs(start.mll_value))
        if not spec.ard:
            theta = np.array(packed_point(sp, fitted.spec, log(fitted.noise_variance)))
            theta0 = np.array(packed_point(sp, spec, log_noise))
            k = theta.size - 1
            lower = np.minimum(theta0, [gp.KERNEL_BOX[0]] * k + [gp.NOISE_BOX[0]])
            upper = np.maximum(theta0, [gp.KERNEL_BOX[1]] * k + [gp.NOISE_BOX[1]])
            assert np.all(theta >= lower - 1e-9) and np.all(theta <= upper + 1e-9)

    def test_fit_requires_two_points(self):
        sp = SearchSpace((3, 3))
        train = gp.TrainingSet.from_observations(sp, [[0, 0]], [1.0])
        with pytest.raises(InvalidInputError):
            gp.fit(sp, train, kernels.default_spec(sp, "heat"))

    def test_fd_fallback_families_fit(self):
        sp = SearchSpace((3, 3, 3))
        rng = np.random.default_rng(8)
        train = make_train(sp, rng, m=8)
        spec = kernels.default_spec(sp, "additive_sum")
        config = gp.OptimizerConfig(steps=10)
        state = gp.fit(sp, train, spec, config)
        assert np.isfinite(state.mll_value)


def reference_adam(objective, theta0, config):
    """Adam as first written, frozen here: it evaluates the start twice.  A
    ``NumericFailure`` after the first evaluation ends it with its best
    iterate so far."""
    b1, b2, eps = gp.ADAM_BETA1, gp.ADAM_BETA2, gp.ADAM_EPSILON
    theta = theta0.copy()
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    best_value, _ = objective(theta, need_grad=False)
    best_theta = theta.copy()
    try:
        for t in range(1, config.steps + 1):
            value, grad = objective(theta, need_grad=True)
            if value > best_value:
                best_value, best_theta = value, theta.copy()
            m1 = b1 * m1 + (1 - b1) * grad
            m2 = b2 * m2 + (1 - b2) * grad**2
            m1_hat = m1 / (1 - b1**t)
            m2_hat = m2 / (1 - b2**t)
            theta = theta + config.learning_rate * m1_hat / (np.sqrt(m2_hat) + eps)
        value, _ = objective(theta, need_grad=False)
    except gp.NumericFailure:
        return best_theta, best_value
    if value > best_value:
        best_value, best_theta = value, theta.copy()
    return best_theta, best_value


def reference_unpack(space, spec, theta):
    """``kernels.unpack_spec``, the log-affine families through ``replace_params``."""
    family = kernels._FAMILIES[spec.family]
    if not isinstance(family, kernels._LogAffineFamily):
        return kernels.unpack_spec(space, spec, theta)
    k = theta.size - 1
    return spec.replace_params(
        **{family.param: np.exp(theta[:k])}, sigma2=float(np.exp(theta[-1]))
    )


def per_start_fit(space, train, spec, config, starts, ascent):
    """The route before one terms object: one ``fit_terms`` per start, each
    start unpacked through its own spec and evaluated by ``reference_step``,
    ``ascent(objective, theta0)`` on each, then ``make_state`` on the best.
    A start that cannot be evaluated is skipped; with none left,
    ``NumericFailure``."""
    y = train.standardized()
    best = None
    for start_spec, start_noise in starts:
        terms = kernels.fit_terms(space, start_spec, train.points)

        def objective(theta, need_grad=True, terms=terms, start_spec=start_spec):
            cur = reference_unpack(space, start_spec, theta[:-1])
            value, grad, *_ = reference_step(terms, cur, theta[-1], y, config.jitter_ladder)
            return value, grad if need_grad else None

        theta0 = np.concatenate([kernels.pack_spec(space, start_spec), [log(start_noise)]])
        try:
            theta, value = ascent(objective, theta0)
        except gp.NumericFailure:
            continue
        if best is None or value > best[2]:
            best = (start_spec, theta, value)
    if best is None:
        raise gp.NumericFailure("no start could be evaluated")
    start_spec, theta, _ = best
    fitted = reference_unpack(space, start_spec, theta[:-1])
    return gp.make_state(space, train, fitted, float(np.exp(theta[-1])), config.jitter_ladder)


def reference_fit(space, train, spec, config, warm_start=None, warm_noise=None):
    """The schedule every spec had before the non-ARD one, and ARD specs
    still have: the frozen numpy Adam from the cold start and, when given,
    the warm start, ``config.steps`` steps each, on the per-start route."""
    starts = [(spec, config.initial_noise)]
    if warm_start is not None:
        starts.append((warm_start, warm_noise if warm_noise else config.initial_noise))
    return per_start_fit(
        space, train, spec, config, starts,
        lambda objective, theta0: reference_adam(objective, theta0, config),
    )


def reference_lbfgs_fit(space, train, spec, config, warm_start=None, warm_noise=None):
    """``gp.fit``'s non-ARD schedule on the per-start route: ``gp._lbfgs_ascent``
    from the warm start alone when given, else from ``spec``."""
    if warm_start is None:
        starts = [(spec, config.initial_noise)]
    else:
        starts = [(warm_start, warm_noise if warm_noise else config.initial_noise)]
    stall_nats = gp.STALL_NATS_PER_POINT * train.count

    def ascent(objective, theta0):
        def evaluate(x):
            value, grad = objective(x)
            return value, lambda: grad

        return gp._lbfgs_ascent(evaluate, theta0, config, stall_nats)

    return per_start_fit(space, train, spec, config, starts, ascent)


def fit_schedule_reference(space, train, spec, config, **kwargs):
    """The per-start route under ``gp.fit``'s schedule for ``spec``."""
    route = reference_fit if spec.ard else reference_lbfgs_fit
    return route(space, train, spec, config, **kwargs)


def assert_same_spec(a, b):
    """Same family, flag and parameters, numbers compared bit for bit."""
    assert (a.family, a.ard, list(a.params)) == (b.family, b.ard, list(b.params))
    for key, value in a.params.items():
        if isinstance(value, kernels.KernelSpec):
            assert_same_spec(value, b.params[key])
        elif np.asarray(value).dtype.kind in "biuf":
            np.testing.assert_array_equal(bits(value), bits(b.params[key]))
        else:
            assert value == b.params[key]


def assert_same_state(got, expected):
    assert_same_spec(got.spec, expected.spec)
    assert bits(got.noise_variance) == bits(expected.noise_variance)
    assert bits(got.mll_value) == bits(expected.mll_value)
    np.testing.assert_array_equal(bits(got.chol_lower), bits(expected.chol_lower))
    np.testing.assert_array_equal(bits(got.weights), bits(expected.weights))


def packed_point(space, spec, log_noise):
    return [*kernels.pack_spec(space, spec), float(log_noise)]


class TestOneTermsObject:
    """``fit`` encodes the training set once; its starts and the returned
    state share that encoding and give the bits of the per-start route
    under the same schedule."""

    @given(exact_problems(kernels.FAMILY_NAMES), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_fit_bitwise_equal_to_per_start_route(self, problem, warm):
        sp, spec, train, log_noise, rng = problem
        config = gp.OptimizerConfig(steps=3)
        base = kernels.default_spec(sp, spec.family, ard=spec.ard)
        kwargs = {}
        if warm:  # a previous fit of the same template, as suggest passes it
            theta = kernels.pack_spec(sp, spec)
            theta = theta + rng.normal(scale=0.3, size=theta.size)
            warm_spec = kernels.unpack_spec(sp, spec, theta)
            kwargs = dict(warm_start=warm_spec, warm_noise=float(np.exp(log_noise)))
        try:
            expected = fit_schedule_reference(sp, train, base, config, **kwargs)
        except gp.NumericFailure:
            with pytest.raises(gp.NumericFailure):
                gp.fit(sp, train, base, config, **kwargs)
            return
        assert_same_state(gp.fit(sp, train, base, config, **kwargs), expected)

    @pytest.mark.parametrize(
        "family, ard", [("heat", True), ("heat", False), ("casmopolitan", True), ("rho", True)]
    )
    def test_default_fit_bitwise_equal_to_frozen_reference(self, family, ard):
        # ARD: 100 Adam steps from each start, against the frozen Adam that
        # evaluates each start twice.  Non-ARD: L-BFGS to its stop on both
        # routes
        sp = SearchSpace((2, 3, 4, 2, 5, 3))
        train = make_train(sp, np.random.default_rng(23), m=20)
        base = kernels.default_spec(sp, family, ard=ard)
        config = gp.OptimizerConfig()
        head = gp.TrainingSet.from_observations(sp, train.points[:12], train.raw_targets[:12])
        previous = gp.fit(sp, head, base, config)
        for kwargs in ({}, dict(warm_start=previous.spec, warm_noise=previous.noise_variance)):
            expected = fit_schedule_reference(sp, train, base, config, **kwargs)
            assert_same_state(gp.fit(sp, train, base, config, **kwargs), expected)

    def test_one_encoding_per_fit_and_none_per_prediction(self, monkeypatch):
        sp = SearchSpace((3, 4, 2))
        train = make_train(sp, np.random.default_rng(18), m=8)
        spec = kernels.default_spec(sp, "heat")
        config = gp.OptimizerConfig(steps=3)
        calls = []
        build = kernels.fit_terms

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(kernels, "fit_terms", counting)
        cold = gp.fit(sp, train, spec, config)
        state = gp.fit(
            sp, train, spec, config, warm_start=cold.spec, warm_noise=cold.noise_variance
        )
        assert len(calls) == 2
        gp.predict_batch(state, train.points)
        gp.predict_batch(state, [train.points[0]])
        state.prior_variance()
        assert len(calls) == 2

    @pytest.mark.parametrize("steps", [0, 1, 7])
    def test_an_adam_start_takes_a_gradient_per_step(self, monkeypatch, steps):
        # a cold ARD fit is one Adam start: a factorization and a gradient at
        # each step, one more factorization and no gradient at the last
        # iterate; the returned state factors once more
        sp = SearchSpace((3, 4, 2))
        train = make_train(sp, np.random.default_rng(20), m=8)
        spec = kernels.default_spec(sp, "heat", ard=True)
        factorizations, gradients = [], []
        factor, grad = gp._chol_with_jitter, gp._mll_grad
        monkeypatch.setattr(
            gp, "_chol_with_jitter", lambda *a: factorizations.append(a) or factor(*a)
        )
        monkeypatch.setattr(gp, "_mll_grad", lambda *a: gradients.append(a) or grad(*a))
        gp.fit(sp, train, spec, gp.OptimizerConfig(steps=steps))
        assert len(gradients) == steps
        assert len(factorizations) == (steps + 1) + 1

    @pytest.mark.parametrize("ard", [True, False])
    def test_one_factorization_per_iterate(self, monkeypatch, ard):
        # every evaluation factors K once, the returned state once more.  A
        # warm ARD fit runs Adam from two starts: one evaluation per step
        # and one at the last iterate.  A warm non-ARD fit runs L-BFGS from
        # the warm start: the start and at most ``steps`` trials
        sp = SearchSpace((3, 4, 2))
        train = make_train(sp, np.random.default_rng(20), m=8)
        spec = kernels.default_spec(sp, "heat", ard=ard)
        config = gp.OptimizerConfig(steps=5)
        cold = gp.fit(sp, train, spec, config)
        factorizations, evaluations = [], []
        factor, parts = gp._chol_with_jitter, gp._mll_parts
        monkeypatch.setattr(
            gp, "_chol_with_jitter", lambda *a: factorizations.append(a) or factor(*a)
        )
        monkeypatch.setattr(gp, "_mll_parts", lambda *a: evaluations.append(a) or parts(*a))
        gp.fit(sp, train, spec, config, warm_start=cold.spec, warm_noise=cold.noise_variance)
        assert len(factorizations) == len(evaluations)
        if ard:
            assert len(evaluations) == 2 * (config.steps + 1) + 1
        else:
            assert 2 < len(evaluations) <= config.steps + 2

    @pytest.mark.parametrize(
        "ard, rise, evaluations",
        [(False, 0.0, 1), (False, 0.5, 1 + gp.STALL_ITERATIONS), (False, 2.0, 51),
         (True, 0.0, 51)],
    )
    def test_stalled_mll_stops_a_non_ard_start(self, monkeypatch, ard, rise, evaluations):
        # an MLL linear in log noise, whose gradient never changes: L-BFGS
        # learns no curvature and takes gradient steps of max-norm
        # ``learning_rate``, each gaining ``rise`` times the stall tolerance.
        # A non-ARD start stops STALL_ITERATIONS steps after its start when
        # that is at most the tolerance, at once when the MLL is flat, and
        # runs to the cap otherwise; Adam (ARD) runs to the cap
        sp = SearchSpace((3, 4, 2))
        train = make_train(sp, np.random.default_rng(20), m=8)
        spec = kernels.default_spec(sp, "heat", ard=ard)
        config = gp.OptimizerConfig(steps=50)
        slope = rise * gp.STALL_NATS_PER_POINT * train.count / config.learning_rate
        size = kernels.pack_spec(sp, spec).size
        calls = []

        def linear(terms, spec, log_noise, y, ladder):
            calls.append(log_noise)
            return slope * log_noise, None, None, None, None

        monkeypatch.setattr(gp, "_mll_parts", linear)
        monkeypatch.setattr(gp, "_mll_grad", lambda *a: np.append(np.zeros(size), slope))
        gp.fit(sp, train, spec, config)
        assert len(calls) == evaluations + 1  # and once for the returned state
        if not ard and evaluations > 1:
            np.testing.assert_allclose(np.diff(calls[:-1]), config.learning_rate)

    def test_lbfgs_stops_at_the_corner_of_its_box(self, monkeypatch):
        # an MLL rising without bound in every packed coordinate: the
        # iterates stay in the box, and the start ends at its upper corner
        sp = SearchSpace((3, 4, 2))
        train = make_train(sp, np.random.default_rng(20), m=8)
        spec = kernels.default_spec(sp, "heat", ard=False)
        points = []

        def unbounded(terms, spec, log_noise, y, ladder):
            points.append(packed_point(sp, spec, log_noise))
            return sum(points[-1]), None, None, None, None

        monkeypatch.setattr(gp, "_mll_parts", unbounded)
        monkeypatch.setattr(gp, "_mll_grad", lambda *a: np.ones(len(points[-1])))
        config = gp.OptimizerConfig(steps=50, learning_rate=3.0)
        state = gp.fit(sp, train, spec, config)
        corner = [gp.KERNEL_BOX[1]] * 2 + [gp.NOISE_BOX[1]]
        assert np.all(np.array(points) <= np.array(corner) + 1e-12)
        np.testing.assert_allclose(points[-1], corner, rtol=0, atol=1e-12)
        assert len(points) < config.steps + 2
        assert state.noise_variance == pytest.approx(10.0)

    @pytest.mark.parametrize("mismatch", ["family", "ard", "length"])
    def test_mismatched_warm_start_rejected(self, mismatch):
        sp = SearchSpace((3, 4, 2))
        train = make_train(sp, np.random.default_rng(19), m=8)
        spec = kernels.default_spec(sp, "heat")
        warm = {
            "family": kernels.default_spec(sp, "casmopolitan"),
            "ard": kernels.default_spec(sp, "heat", ard=False),
            "length": spec.replace_params(betas=np.full(2, 0.5)),
        }[mismatch]
        with pytest.raises(InvalidInputError):
            gp.fit(sp, train, spec, gp.OptimizerConfig(steps=1), warm_start=warm)


def failing_factorizations(monkeypatch, fail_on):
    """``gp._chol_with_jitter`` raising ``NumericFailure`` on the calls
    numbered in ``fail_on`` (from 1), and the MLL value of every successful
    evaluation, in order.  Returns (calls, values)."""
    calls, values = [], []
    factor, parts = gp._chol_with_jitter, gp._mll_parts

    def failing(*args):
        calls.append(args)
        if len(calls) in fail_on:
            raise gp.NumericFailure("injected")
        return factor(*args)

    def recording(*args):
        result = parts(*args)
        values.append(result[0])
        return result

    monkeypatch.setattr(gp, "_chol_with_jitter", failing)
    monkeypatch.setattr(gp, "_mll_parts", recording)
    return calls, values


class TestNumericFailureContainment:
    """A failed factorization ends one Adam start, which keeps its best
    iterate, and halves an L-BFGS step; when no start evaluated anything the
    fit fails."""

    def problem(self, ard):
        sp = SearchSpace((3, 4, 2))
        train = make_train(sp, np.random.default_rng(21), m=8)
        spec = kernels.default_spec(sp, "heat", ard=ard)
        config = gp.OptimizerConfig(steps=6)
        cold = gp.fit(sp, train, spec, config)
        warm = dict(warm_start=cold.spec, warm_noise=cold.noise_variance)
        return sp, train, spec, config, warm

    @pytest.mark.parametrize(
        "fail_on, evaluated",
        [
            ({1}, 7),  # the cold start's first evaluation
            ({3, 9}, 2 + 5),  # a step of each start
        ],
    )
    def test_failed_step_keeps_the_best_iterate(self, monkeypatch, fail_on, evaluated):
        sp, train, spec, config, warm_kwargs = self.problem(ard=True)
        calls, values = failing_factorizations(monkeypatch, fail_on)
        state = gp.fit(sp, train, spec, config, **warm_kwargs)
        assert len(values) == evaluated + 1  # and once for the returned state
        assert len(calls) == evaluated + len(fail_on) + 1
        assert bits(state.mll_value) == bits(max(values[:-1]))

    @pytest.mark.parametrize("failure", ["factorization", "nan value", "nan gradient"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_failed_trial_halves_the_step(self, monkeypatch, failure, warm):
        # a non-ARD start: evaluation 1 is the start, 2 its first step, 3 the
        # second step's first trial, which fails; trial 4 is half its step
        sp, train, spec, config, warm_kwargs = self.problem(ard=False)
        points, values, gradients = [], [], []
        parts, grad = gp._mll_parts, gp._mll_grad

        def failing_parts(terms, cur, log_noise, y, ladder):
            points.append(packed_point(sp, cur, log_noise))
            if len(points) == 3 and failure == "factorization":
                raise gp.NumericFailure("injected")
            result = parts(terms, cur, log_noise, y, ladder)
            if len(points) == 3 and failure == "nan value":
                return (nan, *result[1:])
            if len(points) != 3:
                values.append(result[0])
            return result

        def failing_grad(terms, cur, result):
            gradients.append(len(points))
            g = grad(terms, cur, result)
            return np.full_like(g, nan) if len(points) == 3 else g

        monkeypatch.setattr(gp, "_mll_parts", failing_parts)
        monkeypatch.setattr(gp, "_mll_grad", failing_grad)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = gp.fit(sp, train, spec, config, **(warm_kwargs if warm else {}))
        start, first, failed, halved = np.array(points[:4])
        assert gradients[:2] == [1, 2]  # the first step was taken
        assert (3 in gradients) == (failure == "nan gradient")
        np.testing.assert_allclose(halved - first, (failed - first) / 2, rtol=0, atol=1e-12)
        assert 4 <= len(points) <= config.steps + 2
        assert bits(state.mll_value) == bits(max(values))

    @pytest.mark.parametrize(
        "ard, warm, fail_on",
        [(False, False, {1}), (False, True, {1}), (True, True, {1, 2}), (True, False, {1})],
    )
    def test_no_start_evaluated_is_numeric_failure(self, monkeypatch, ard, warm, fail_on):
        sp, train, spec, config, warm_kwargs = self.problem(ard)
        calls, values = failing_factorizations(monkeypatch, fail_on)
        with pytest.raises(gp.NumericFailure):
            gp.fit(sp, train, spec, config, **(warm_kwargs if warm else {}))
        assert len(calls) == len(fail_on) and not values

    def test_zero_steps_fails_with_its_only_evaluation(self, monkeypatch):
        sp, train, spec, _, _ = self.problem(False)
        failing_factorizations(monkeypatch, {1})
        with pytest.raises(gp.NumericFailure):
            gp.fit(sp, train, spec, gp.OptimizerConfig(steps=0))


def run_bo_corpus(name, options, ard, seed, suggests):
    """The training sets of a seeded ``run_bo`` history with heat: the 20
    initial points, then each longer history that a suggest fitted."""
    objective = benchmarks.make_benchmark(name, **options)
    sp = objective.space
    spec = kernels.default_spec(sp, "heat", ard=ard)
    trace = bo.run_bo(
        objective, sp, spec, budget=suggests, init_count=20, seed=seed, measure_time=False
    )
    X = np.array([r.point for r in trace])
    y = np.array([r.raw_value for r in trace])
    sets = [gp.TrainingSet.from_observations(sp, X[:m], y[:m]) for m in range(20, len(y) + 1)]
    return sp, spec, sets


def labs50_late_sets(seed):
    """LABS n=50 training sets of 100, 150 and 200 points: 20 uniform points,
    then points one to four flips from the running best, like a trust
    region late in a run."""
    objective = benchmarks.make_benchmark("labs", n=50)
    sp = objective.space
    rng = np.random.default_rng([seed, 50])
    points = [tuple(p) for p in sp.sample_points(20, rng).tolist()]
    values = [objective(p) for p in points]
    seen = set(points)
    while len(points) < 200:
        center = np.array(points[int(np.argmin(values))])
        flips = rng.choice(sp.n, size=int(rng.integers(1, 5)), replace=False)
        center[flips] = 1 - center[flips]
        key = tuple(center.tolist())
        if key not in seen:
            seen.add(key)
            points.append(key)
            values.append(objective(key))
    X, y = np.array(points), np.array(values)
    sets = [gp.TrainingSet.from_observations(sp, X[:m], y[:m]) for m in (100, 150, 200)]
    return sp, kernels.default_spec(sp, "heat", ard=False), sets


class TestFitCorpus:
    """``gp.fit`` against the full Adam schedule (``reference_fit``: cold
    and warm start, every step) on training sets from seeded ``run_bo``
    histories, each fit warm-started from the reference's fit of the set
    before, as ``suggest`` does, and on cold LABS-50 sets.  ARD fits keep
    that schedule bit for bit; non-ARD fits (L-BFGS) may lose at most
    0.01 nats against it, with fewer factorizations."""

    def assert_fit_keeps_the_mll(self, monkeypatch, sp, spec, train, previous=None):
        config = gp.OptimizerConfig()
        kwargs = {}
        if previous is not None:
            kwargs = dict(warm_start=previous.spec, warm_noise=previous.noise_variance)
        expected = reference_fit(sp, train, spec, config, **kwargs)
        calls, factor = [], gp._chol_with_jitter
        with monkeypatch.context() as patch:
            patch.setattr(gp, "_chol_with_jitter", lambda *a: calls.append(a) or factor(*a))
            got = gp.fit(sp, train, spec, config, **kwargs)
        if spec.ard:  # the schedule is unchanged
            assert_same_state(got, expected)
        else:
            assert got.mll_value >= expected.mll_value - 0.01
            assert len(calls) < (2 if kwargs else 1) * (config.steps + 1) + 1
        return expected

    @pytest.mark.parametrize(
        "name, options, ard, seed, suggests",
        [
            ("labs", {"n": 20}, False, 0, 15),
            ("labs", {"n": 20}, False, 1, 15),
            ("pest_control", {}, True, 0, 6),
            ("labs", {"n": 20}, True, 0, 8),
        ],
    )
    def test_fit_keeps_the_mll_of_the_full_schedule(
        self, monkeypatch, name, options, ard, seed, suggests
    ):
        sp, spec, sets = run_bo_corpus(name, options, ard, seed, suggests)
        previous = None
        for train in sets:
            previous = self.assert_fit_keeps_the_mll(monkeypatch, sp, spec, train, previous)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cold_labs50_fits_keep_the_mll_of_the_full_schedule(self, monkeypatch, seed):
        sp, spec, sets = labs50_late_sets(seed)
        for train in sets:
            self.assert_fit_keeps_the_mll(monkeypatch, sp, spec, train)


class TestTrainingResidual:
    """At the training points the posterior mean leaves a standardized
    residual y - mean = noise (K + noise I)^-1 y, of 2-norm at most
    noise / (noise + max(lambda_min(K), 0)) ||y||."""

    @pytest.mark.parametrize("family", kernels.FAMILY_NAMES)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_residual_shrinks_by_noise_share(self, family, data):
        sp, spec, train, log_noise, _ = data.draw(exact_problems((family,)))
        noise = float(np.exp(log_noise))
        K = kernels.gram(sp, spec, train.points)
        _, jitter = gp._chol_with_jitter(K, gp.JITTER_LADDER, noise)
        assume(jitter == 0.0)  # a jitter would add to the noise in the bound
        state = gp.make_state(sp, train, spec, noise)
        y = train.standardized()
        residual = y - state.terms.cross_gram(spec, train.points) @ state.weights
        lam_min = max(float(np.linalg.eigvalsh(K)[0]), 0.0)
        # rounding: a Cholesky solve's backward error, at most m eps ||K + noise I||
        # relative, times ||weights||, plus the final subtraction
        eps = np.finfo(float).eps
        m = train.count
        tol = 4 * m * eps * (np.linalg.norm(K, 2) + noise) * np.linalg.norm(state.weights)
        tol += 4 * eps * np.linalg.norm(y)
        bound = noise / (noise + lam_min) * np.linalg.norm(y)
        assert np.linalg.norm(residual) <= bound + tol


class TestPredict:
    def test_interpolates_training_points_with_tiny_noise(self):
        sp = SearchSpace((4, 4, 4))
        rng = np.random.default_rng(9)
        train = make_train(sp, rng, m=10)
        spec = kernels.default_spec(sp, "heat", betas=np.full(3, 0.5))
        state = gp.make_state(sp, train, spec, noise_variance=1e-10)
        for p, target in zip(train.points, train.raw_targets):
            [mean], [var] = gp.predict_batch(state, [p])
            assert mean == pytest.approx(target, abs=1e-4)
            assert var <= 1e-6 * state.prior_variance()

    def test_prior_reversion_far_from_data(self):
        # near-zero diffusion time: no correlation, posterior reverts to prior
        sp = SearchSpace((5, 5, 5, 5))
        rng = np.random.default_rng(10)
        pts = np.zeros((6, 4), dtype=int)
        pts[:, 0] = np.arange(6) % 5
        values = rng.normal(loc=3.0, size=6)
        train = gp.TrainingSet.from_observations(sp, pts, values)
        spec = kernels.default_spec(sp, "heat", betas=np.full(4, 1e-10))
        state = gp.make_state(sp, train, spec, noise_variance=1e-6)
        far = [4, 4, 4, 4]
        [mean], [var] = gp.predict_batch(state, [far])
        assert mean == pytest.approx(train.mean, abs=1e-6)
        assert var == pytest.approx(state.prior_variance(), rel=1e-5)

    def test_points_of_more_than_two_dimensions_rejected(self):
        sp = SearchSpace((3, 4, 5))
        train = make_train(sp, np.random.default_rng(11), m=6)
        state = gp.make_state(sp, train, kernels.default_spec(sp, "heat"), 1e-3)
        with pytest.raises(InvalidInputError):
            gp.predict_batch(state, np.zeros((4, 3, 1), dtype=np.int64))

    def test_batch_equals_pointwise(self):
        sp = SearchSpace((3, 4, 5))
        rng = np.random.default_rng(11)
        train = make_train(sp, rng, m=12)
        spec = kernels.default_spec(sp, "heat")
        state = gp.make_state(sp, train, spec, 1e-3)
        queries = sp.sample_points(20, rng)
        means, variances = gp.predict_batch(state, queries)
        for q, mean, var in zip(queries, means, variances):
            [m1], [v1] = gp.predict_batch(state, [q])
            assert abs(m1 - mean) <= 1e-12
            assert abs(v1 - var) <= 1e-12

    def test_posterior_variance_bounded_by_prior(self):
        sp = SearchSpace((3, 3, 3))
        rng = np.random.default_rng(12)
        train = make_train(sp, rng, m=15)
        spec = kernels.default_spec(sp, "heat", betas=np.full(3, 0.4))
        state = gp.make_state(sp, train, spec, 1e-3)
        _, variances = gp.predict_batch(state, sp.enumerate_points())
        assert np.all(variances <= state.prior_variance() + 1e-8)

    def test_variance_nonnegative_with_clamp_counter(self):
        sp = SearchSpace((3, 3))
        rng = np.random.default_rng(13)
        train = make_train(sp, rng, m=9)
        spec = kernels.default_spec(sp, "heat", betas=np.full(2, 2.0))
        state = gp.make_state(sp, train, spec, 1e-12)
        _, variances = gp.predict_batch(state, sp.enumerate_points())
        assert np.all(variances >= 0.0)

    def test_relocation_invariance_of_predictions(self):
        sp = SearchSpace((3, 4, 2, 5))
        rng = np.random.default_rng(14)
        train = make_train(sp, rng, m=12)
        spec = kernels.default_spec(sp, "heat", betas=rng.uniform(0.2, 1.0, 4))
        state = gp.make_state(sp, train, spec, 1e-4)
        queries = sp.sample_points(10, rng)
        base_mean, base_var = gp.predict_batch(state, queries)
        for seed in range(5):
            reloc = sample_relocation(sp, seed)
            moved_train = gp.TrainingSet.from_observations(
                sp, reloc.apply_many(train.points), train.raw_targets
            )
            moved_state = gp.make_state(sp, moved_train, spec, 1e-4)
            mean, var = gp.predict_batch(
                moved_state, reloc.apply_many(queries)
            )
            np.testing.assert_allclose(mean, base_mean, atol=1e-10)
            np.testing.assert_allclose(var, base_var, atol=1e-10)


class TestPredictionCache:
    """The state keeps the training set's terms, whose cross-kernel encodes
    only the query rows; each ``predict_batch`` call must still see
    ``kernels.cross_gram`` bit for bit."""

    @given(exact_problems(kernels.FAMILY_NAMES), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_state_cross_kernel_is_cross_gram(self, problem, count):
        sp, spec, train, log_noise, rng = problem
        state = gp.make_state(sp, train, spec, float(np.exp(log_noise)))
        queries = sp.sample_points(count, rng)
        k_star = kernels.cross_gram(sp, spec, queries, train.points)
        np.testing.assert_array_equal(state.terms.cross_gram(spec, queries), k_star)
        # predict_batch's arithmetic, taken through cross_gram
        v = solve_triangular(state.chol_lower, k_star.T, lower=True)
        prior = kernels.diag_values(sp, spec, queries)
        means, variances = gp.predict_batch(state, queries)
        np.testing.assert_array_equal(means, train.destandardize_mean(k_star @ state.weights))
        np.testing.assert_array_equal(
            variances,
            train.destandardize_variance(np.maximum(prior - np.sum(v**2, axis=0), 0.0)),
        )

    def test_spec_validated_on_every_call(self):
        sp = SearchSpace((3, 4))
        train = make_train(sp, np.random.default_rng(16), m=6)
        state = gp.make_state(sp, train, kernels.default_spec(sp, "heat"), 1e-3)
        state.spec.params["sigma2"] = -1.0
        with pytest.raises(InvalidInputError):
            gp.predict_batch(state, train.points)

    @pytest.mark.parametrize("family", kernels.FAMILY_NAMES)
    def test_query_rows_validated_once(self, family, monkeypatch):
        sp = SearchSpace((3, 3, 3) if family == "invariant" else (3, 4, 2))
        train = make_train(sp, np.random.default_rng(17), m=8)
        spec = kernels.default_spec(sp, family)
        if family == "invariant":  # its permuted rows are not validated again
            spec = spec.replace_params(mode="sum", samples=3)
        state = gp.make_state(sp, train, spec, 1e-3)
        calls = []
        validate = SearchSpace.validate_points

        def counting(self, points):
            calls.append(len(points))
            return validate(self, points)

        monkeypatch.setattr(SearchSpace, "validate_points", counting)
        gp.predict_batch(state, train.points[:5])
        assert calls == [5]


def reference_step(terms, spec, log_noise, y, ladder):
    """The formulation the lean step replaced: scipy.linalg's wrappers, two
    scaled identity matrices and a tril mirror of potri's output.  Returns
    the value, the gradient, L and the jitter."""
    m = y.shape[0]
    K = terms.gram(spec)
    noise = float(np.exp(log_noise))
    C = K + noise * np.eye(m)
    mean_diag = float(np.mean(np.diag(C)))
    for level in ladder:
        try:
            jitter = level * mean_diag
            L = scipy.linalg.cholesky(C + jitter * np.eye(m), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise gp.NumericFailure("not factorizable")
    alpha = scipy.linalg.cho_solve((L, True), y)
    value = (
        -0.5 * float(y @ alpha) - float(np.sum(np.log(np.diag(L)))) - 0.5 * m * log(2.0 * pi)
    )
    K_inv, _ = dpotri(L, lower=1)
    K_inv += np.tril(K_inv, -1).T
    W = np.outer(alpha, alpha) - K_inv
    grad = np.append(terms.grad(spec, K, W), 0.5 * float(np.trace(W)) * noise)
    return value, grad, L, jitter


def bits(x):
    """The IEEE bit patterns: equal bits, not merely equal values (-0.0, NaN)."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


@st.composite
def lean_step_problems(draw):
    """Every family, ARD or not, up to 16 points; some draws repeat a row and
    take noise near 1e-300, so that only a jitter level above 0 factors."""
    family = draw(st.sampled_from(kernels.FAMILY_NAMES))
    cards = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    if family == "invariant":
        cards = (cards[0],) * len(cards)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sp = SearchSpace(cards)
    m = draw(st.integers(2, 16))
    X = sp.sample_points(m, rng)
    near_singular = draw(st.booleans())
    if near_singular:
        X[-1] = X[0]
    log_noise = log(1e-300) + rng.uniform(-2, 2) if near_singular else rng.uniform(-6, -2)
    train = gp.TrainingSet.from_observations(sp, X, rng.normal(size=m))
    base = kernels.default_spec(sp, family, ard=draw(st.booleans()))
    theta = kernels.pack_spec(sp, base)
    spec = kernels.unpack_spec(sp, base, theta + rng.normal(scale=0.5, size=theta.size))
    return kernels.fit_terms(sp, spec, train.points), spec, float(log_noise), train


class TestLeanStep:
    """Direct LAPACK, one copy of K and a one-pass mirror give the bits of
    the scipy.linalg formulation."""

    def assert_same_step(self, terms, spec, log_noise, y, ladder=gp.JITTER_LADDER):
        value, grad, L, jitter = reference_step(terms, spec, log_noise, y, ladder)
        got_value, got_grad = mll_and_grad(terms, spec, log_noise, y, ladder)
        got_L, got_jitter = gp._chol_with_jitter(
            terms.gram(spec), ladder, float(np.exp(log_noise))
        )
        assert bits(got_value) == bits(value)
        np.testing.assert_array_equal(bits(got_grad), bits(grad))
        np.testing.assert_array_equal(bits(got_L), bits(L))
        assert bits(got_jitter) == bits(jitter)
        return jitter

    @given(lean_step_problems())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_scipy_formulation(self, problem):
        terms, spec, log_noise, train = problem
        self.assert_same_step(terms, spec, log_noise, train.standardized())

    def test_jitter_levels_above_zero_bitwise_equal(self):
        sp = SearchSpace((3, 3))
        train = gp.TrainingSet.from_observations(
            sp, [[0, 0], [0, 0], [1, 1], [2, 1]], [1.0, 1.2, 2.0, 0.5]
        )
        spec = kernels.default_spec(sp, "heat", betas=np.full(2, 0.5))
        terms = kernels.fit_terms(sp, spec, train.points)
        jitter = self.assert_same_step(terms, spec, log(1e-300), train.standardized())
        assert jitter > 0
        # a ladder whose first level already jitters
        self.assert_same_step(terms, spec, -3.0, train.standardized(), (1e-6, 1e-4))

    def test_negative_zero_off_the_diagonal_factors_as_the_old_copy(self):
        # dpotrf keeps the sign of a zero; the copy's + 0.0 makes -0.0 into
        # +0.0, as adding a scaled identity does
        K = np.array([[2.0, -0.0, 0.5], [-0.0, 2.0, -0.0], [0.5, -0.0, 2.0]])
        L, jitter = gp._chol_with_jitter(K, gp.JITTER_LADDER, 1e-3)
        old = np.add(K, 0.0, order="F")
        gp._diagonal(old)[:] += 1e-3
        np.testing.assert_array_equal(bits(L), bits(gp.cholesky(old)))
        assert jitter == 0.0 and bits(L[1, 0]) == bits(0.0)

    def test_non_finite_covariance_is_numeric_failure(self):
        K = np.eye(3)
        K[2, 1] = K[1, 2] = np.nan
        with pytest.raises(gp.NumericFailure):
            gp._chol_with_jitter(K, gp.JITTER_LADDER, 1e-3)

    @pytest.mark.parametrize(
        "cards, ard", [((3, 4, 2), True), ((3, 3, 3), False)], ids=["ard", "one-group"]
    )
    def test_largest_sigma2_gives_a_finite_gram_and_mll(self, cards, ard):
        # a log-affine K never exceeds sigma2, so its Gram stays finite
        sp = SearchSpace(cards)
        train = make_train(sp, np.random.default_rng(18), m=6)
        spec = kernels.default_spec(sp, "heat", ard=ard, sigma2=1e308)
        K = kernels.fit_terms(sp, spec, train.points).gram(spec)
        assert np.isfinite(K).all() and K.max() == 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = gp.make_state(sp, train, spec, 1e-3)
        assert np.isfinite(state.mll_value)


class TestJitter:
    def test_factorization_recovers_with_jitter(self):
        # duplicated points with zero noise make the covariance singular
        sp = SearchSpace((3, 3))
        pts = [[0, 0], [0, 0], [1, 1]]
        train = gp.TrainingSet.from_observations(sp, pts, [1.0, 1.0, 2.0])
        spec = kernels.default_spec(sp, "heat", betas=np.full(2, 0.5))
        state = gp.make_state(sp, train, spec, noise_variance=1e-300)
        assert np.isfinite(state.mll_value)

    @pytest.mark.parametrize("ladder", [(), (nan,), (-1.0,), (0.0, np.inf)])
    def test_invalid_ladder_rejected(self, ladder):
        # an empty ladder factors nothing, a negative level can break a
        # factorization that level 0 makes, and NaN gives a NaN MLL
        sp = SearchSpace((3, 3))
        train = make_train(sp, np.random.default_rng(4), m=5)
        spec = kernels.default_spec(sp, "heat")
        with pytest.raises(InvalidInputError):
            gp.make_state(sp, train, spec, 1e-3, ladder)

    def test_chol_failure_raises_numeric_failure(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(gp.NumericFailure):
            gp._chol_with_jitter(bad, (0.0, 1e-8))


SP2 = SearchSpace((2, 3))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: gp.TrainingSet.from_observations(SP2, [[0, 0]], [1.0, 2.0]),
         "one target per point required"),
        (lambda: gp.make_state(SP2, make_train(SP2, np.random.default_rng(0), m=3),
                               kernels.default_spec(SP2, "heat"), 0.0),
         "noise variance must be > 0"),
    ],
    ids=["targets-per-point", "noise-variance"],
)
def test_rejected_input(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()
