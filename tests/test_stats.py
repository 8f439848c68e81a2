import numpy as np
import pytest

from povmcal.errors import BootstrapError, NumericalValidityError
from povmcal.quorum import pauli_quorum
from povmcal.sampler import sample_finite
from povmcal.states import maximally_entangled
from povmcal.stats import bootstrap

from oracles import compare_mse, projective_povm


def p_hat_estimator(data, n_outcomes):
    def estimate(rng):
        indices = rng.integers(0, len(data), len(data))
        return np.bincount(data.outcome_n[indices], minlength=n_outcomes) / len(indices)

    return estimate


def make_data(n_records=50_000, seed=0):
    state = maximally_entangled(2)
    povm = projective_povm(np.eye(2))
    return sample_finite(state, povm, pauli_quorum(), n_records, seed=seed), povm, state


class TestBootstrap:
    def test_constant_estimator_zero_spread(self):
        report = bootstrap(lambda rng: np.array([1.5, -2.0]), n_reps=10, seed=0)
        np.testing.assert_array_equal(report.stdev, [0.0, 0.0])
        np.testing.assert_array_equal(report.mean, [1.5, -2.0])

    def test_matches_binomial_stderr(self):
        n_records = 50_000
        data, povm, state = make_data(n_records, seed=1)
        report = bootstrap(p_hat_estimator(data, 2), n_reps=60, seed=1)
        p = data.counts_by_n / n_records
        binomial = np.sqrt(p * (1 - p) / n_records)
        for b, s in zip(report.stdev, binomial):
            assert abs(b - s) / s < 0.30

    @pytest.mark.properties
    def test_deterministic_per_seed(self):
        data, *_ = make_data(5_000, seed=2)
        a = bootstrap(p_hat_estimator(data, 2), n_reps=15, seed=3)
        b = bootstrap(p_hat_estimator(data, 2), n_reps=15, seed=3)
        np.testing.assert_array_equal(a.stdev, b.stdev)
        np.testing.assert_array_equal(a.mean, b.mean)
        c = bootstrap(p_hat_estimator(data, 2), n_reps=15, seed=4)
        assert np.any(a.stdev != c.stdev)

    @pytest.mark.properties
    def test_spread_shrinks_with_data(self):
        medians = []
        for n_records in (10_000, 40_000):
            data, *_ = make_data(n_records, seed=5)
            report = bootstrap(p_hat_estimator(data, 2), n_reps=40, seed=5)
            medians.append(np.median(report.stdev))
        ratio = medians[0] / medians[1]
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3

    def test_failures_are_tolerated_then_fatal(self):
        calls = {"i": 0}

        def flaky(rng):
            calls["i"] += 1
            if calls["i"] % 10 == 0:
                raise NumericalValidityError("boom")
            return np.array([rng.random()])

        report = bootstrap(flaky, n_reps=20, seed=6)
        assert report.n_failures == 2

        def broken(rng):
            raise np.linalg.LinAlgError("boom")

        with pytest.raises(BootstrapError):
            bootstrap(broken, n_reps=10, seed=7)

    def test_programming_errors_propagate(self):

        def buggy(rng):
            raise TypeError("not a repetition failure")

        with pytest.raises(TypeError):
            bootstrap(buggy, n_reps=10, seed=6)

    def test_nan_entries_are_ignored_per_entry(self):
        calls = {"i": 0}

        def sometimes_nan(rng):
            calls["i"] += 1
            v = float(calls["i"])
            return np.array([v, np.nan if calls["i"] % 2 else v])

        report = bootstrap(sometimes_nan, n_reps=10, seed=8)
        assert np.isfinite(report.stdev[0])
        assert np.isfinite(report.stdev[1])

    def test_needs_two_reps(self):
        with pytest.raises(ValueError):
            bootstrap(lambda rng: np.array([1.0]), n_reps=1, seed=0)

    def test_each_repetition_gets_its_own_stream(self):
        seen = []

        def record(rng):
            seen.append(rng.random(3))
            return seen[-1]

        report = bootstrap(record, n_reps=4, seed=7)
        expected = [np.random.default_rng([7, 2, rep]).random(3) for rep in range(4)]
        np.testing.assert_array_equal(seen, expected)
        np.testing.assert_array_equal(report.mean, np.mean(expected, axis=0))


class TestCompareMse:
    def test_identical_inputs_equal_medians(self):
        truth = {(0, 0): 1.0, (0, 1): 0.5}
        a = {(0, 0): 0.9, (0, 1): 0.6}
        comparison = compare_mse(a, dict(a), truth, [(0, 0), (0, 1)])
        assert comparison.median_a == comparison.median_b
        np.testing.assert_allclose(comparison.squared_errors_a, [0.01, 0.01])

    def test_missing_entries_listed(self):
        truth = {(0, 0): 1.0, (1, 1): 0.0}
        a = {(0, 0): 0.9}
        b = {(0, 0): 1.1, (1, 1): 0.2}
        comparison = compare_mse(a, b, truth, [(0, 0), (1, 1), (2, 2)])
        assert comparison.missing == ((1, 1), (2, 2))
        assert comparison.entries == ((0, 0),)

    def test_all_missing_raises(self):
        with pytest.raises(ValueError):
            compare_mse({}, {}, {}, [(0, 0)])

    def test_direction_detection(self):
        truth = {k: 0.0 for k in range(9)}
        good = {k: 0.01 for k in range(9)}
        bad = {k: 0.1 for k in range(9)}
        comparison = compare_mse(good, bad, truth, list(range(9)))
        assert comparison.median_a < comparison.median_b
