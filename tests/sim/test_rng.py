"""Unit tests for deterministic named RNG streams."""

import numpy as np
import pytest

from repro.sim import RngStreams, lognormal_around


class TestRngStreams:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(seed=1)
        assert streams.stream("a") is streams.stream("a")

    def test_same_seed_and_name_reproduce_draws(self):
        first = RngStreams(seed=42).stream("link/wifi").random(5)
        second = RngStreams(seed=42).stream("link/wifi").random(5)
        np.testing.assert_array_equal(first, second)

    def test_different_names_are_independent(self):
        streams = RngStreams(seed=42)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("x").random(5)
        b = RngStreams(seed=2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_adding_streams_does_not_perturb_existing(self):
        plain = RngStreams(seed=7)
        expected = plain.stream("svc/pose").random(3)

        noisy = RngStreams(seed=7)
        noisy.stream("svc/other").random(100)  # extra stream created first
        actual = noisy.stream("svc/pose").random(3)
        np.testing.assert_array_equal(expected, actual)

    def test_scoped_rng_namespaces(self):
        root = RngStreams(seed=3)
        scope = root.spawn("deviceA")
        direct = RngStreams(seed=3).stream("deviceA/cpu").random(4)
        np.testing.assert_array_equal(scope.stream("cpu").random(4), direct)

    def test_nested_scopes(self):
        root = RngStreams(seed=3)
        nested = root.spawn("a").spawn("b")
        direct = RngStreams(seed=3).stream("a/b/c").random(2)
        np.testing.assert_array_equal(nested.stream("c").random(2), direct)


class TestLognormalAround:
    def test_zero_cv_is_deterministic(self):
        rng = RngStreams(seed=0).stream("t")
        assert lognormal_around(rng, 0.05, 0.0) == 0.05

    def test_zero_mean_returns_zero(self):
        rng = RngStreams(seed=0).stream("t")
        assert lognormal_around(rng, 0.0, 0.5) == 0.0

    def test_negative_inputs_rejected(self):
        rng = RngStreams(seed=0).stream("t")
        with pytest.raises(ValueError):
            lognormal_around(rng, -1.0, 0.1)
        with pytest.raises(ValueError):
            lognormal_around(rng, 1.0, -0.1)

    def test_sample_mean_and_cv_match_parameters(self):
        rng = RngStreams(seed=11).stream("t")
        samples = np.array([lognormal_around(rng, 0.050, 0.2) for _ in range(20000)])
        assert samples.mean() == pytest.approx(0.050, rel=0.02)
        assert samples.std() / samples.mean() == pytest.approx(0.2, rel=0.05)
        assert (samples > 0).all()

    def test_memoized_parameters_draw_bit_identical_samples(self):
        memoized = RngStreams(seed=5).stream("t")
        direct = RngStreams(seed=5).stream("t")
        for mean, cv in [(0.05, 0.2), (0.05, 0.2), (1.5, 0.35), (3, 0.1)]:
            sigma2 = np.log(1.0 + cv * cv)
            mu = np.log(mean) - sigma2 / 2.0
            expected = float(direct.lognormal(mean=mu, sigma=np.sqrt(sigma2)))
            assert lognormal_around(memoized, mean, cv) == expected
