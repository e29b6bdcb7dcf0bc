"""Unit tests for the RNG stream helpers and the weighted sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim import rng_from_seed, spawn_rngs
from repro.sim.rng import WeightedSampler
from repro.workload.zipf import PAPER_THETA, zipf_popularities


class TestRngFromSeed:
    def test_int_seed_deterministic(self):
        a = rng_from_seed(42).integers(0, 1_000_000, size=10)
        b = rng_from_seed(42).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert rng_from_seed(gen) is gen

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(5)
        rng = rng_from_seed(ss)
        assert isinstance(rng, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(rng_from_seed(None), np.random.Generator)


class TestSpawn:
    def test_streams_differ(self):
        a, b = spawn_rngs(42, 2)
        assert not np.array_equal(
            a.integers(0, 2**32, size=100), b.integers(0, 2**32, size=100)
        )

    def test_deterministic(self):
        first = [g.integers(0, 2**32) for g in spawn_rngs(7, 3)]
        second = [g.integers(0, 2**32) for g in spawn_rngs(7, 3)]
        assert first == second

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(3), 4)
        assert len(children) == 4

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_zero_count(self):
        assert spawn_rngs(1, 0) == []


def _same_as_choice(p, size, seed):
    """The sampler's draws and the generator's next state equal rng.choice's."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = WeightedSampler(p).sample(a, size)
    want = b.choice(len(p), size=size, p=p)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


class _FixedUniforms:
    """Stands in for a Generator whose next ``random`` block is given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u


def _weights(draw_zero):
    return st.lists(
        st.one_of(draw_zero, st.floats(1e-300, 1e3), st.floats(0.5, 2.0)),
        min_size=1,
        max_size=300,
    ).filter(lambda w: sum(w) > 0)


class TestWeightedSampler:
    """``WeightedSampler(p).sample(rng, k) == rng.choice(len(p), k, p=p)``."""

    @settings(max_examples=200, deadline=None)
    @given(
        _weights(st.just(0.0)),
        st.integers(0, 3_000),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_choice_with_zeros(self, weights, size, seed):
        w = np.array(weights)
        _same_as_choice(w / w.sum(), size, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.1, 3.0),
        st.integers(1, 5_000),
        st.booleans(),
        st.integers(0, 5_000),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_choice_on_zipf(self, exponent, n, shuffle, size, seed):
        w = np.arange(1, n + 1, dtype=float) ** -exponent
        if shuffle:
            np.random.default_rng(seed).shuffle(w)
        _same_as_choice(w / w.sum(), size, seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_choice_on_paper_theta(self, seed):
        p = zipf_popularities(40_000, PAPER_THETA)
        np.random.default_rng(seed).shuffle(p)
        _same_as_choice(p, 200_000, seed)

    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_one_category_and_zero_draws(self, size):
        _same_as_choice(np.array([1.0]), size, 5)
        _same_as_choice(np.array([0.0, 1.0, 0.0]), size, 6)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 3.0), st.integers(2, 2_000), st.data())
    def test_densest_bucket_and_edges_equal_searchsorted(self, exponent, n, data):
        # Hand-picked uniforms in the bucket holding the most categories,
        # on CDF values, on bucket boundaries and at both ends of [0, 1).
        p = np.arange(1, n + 1, dtype=float) ** -exponent
        p /= p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        guide = cdf.searchsorted(np.arange(n + 1) / n, side="right")
        dense = int(np.argmax(np.diff(guide)))
        u = [dense / n, (dense + 1) / n, 0.0, 1.0 - 2.0**-53]
        u += [np.nextafter(v, 1.0) for v in u[:2]] + [np.nextafter(u[1], 0.0)]
        u += data.draw(st.lists(st.floats(dense / n, (dense + 1) / n), max_size=50))
        u += cdf[:-1][data.draw(st.lists(st.integers(0, n - 2), max_size=20))].tolist()
        u = np.clip(np.array(u), 0.0, 1.0 - 2.0**-53)
        got = WeightedSampler(p).sample(_FixedUniforms(u), u.size)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("n", [6, 10, 12, 999, 40_000])
    def test_uniform_weights_just_below_cdf_steps(self, n):
        # u * n can round up onto the next bucket, whose guide entry then
        # lies past the answer: the sampler must step back.
        p = np.full(n, 1.0 / n)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        u = np.concatenate(
            [
                np.nextafter(cdf[:-1], 0.0),
                np.nextafter(np.arange(1, n) / n, 0.0),
                [1.0 - 2.0**-53],
            ]
        )
        got = WeightedSampler(p).sample(_FixedUniforms(u), u.size)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    def test_many_draws_cross_blocks(self):
        p = np.array([0.25, 0.0, 0.5, 0.25])
        _same_as_choice(p, 3 * WeightedSampler._BLOCK + 17, 9)

    def test_loose_total_defers_to_choice(self):
        # Inside NumPy's tolerance but outside the sampler's: rng.choice
        # itself draws, so the contract still holds.
        p = np.array([0.5, 0.5 + 5e-9])
        _same_as_choice(p, 100, 4)
        with pytest.raises(ValueError, match="sum to 1"):
            WeightedSampler(np.array([0.5, 0.6])).sample(
                np.random.default_rng(0), 3
            )

    def test_from_weights_normalizes_like_the_call_sites(self):
        w = np.array([3.0, 0.0, 1.0, 4.0])
        assert np.array_equal(WeightedSampler.from_weights(w).p, w / w.sum())

    @pytest.mark.parametrize(
        "p, fault",
        [
            ([0.0, 0.0], "positive total"),
            ([0.5, -0.1, 0.6], "non-negative: weight 1"),
            ([0.5, np.nan], "finite: weight 1"),
            ([[0.5, 0.5]], "1-D"),
        ],
    )
    def test_invalid_weights_rejected(self, p, fault):
        with pytest.raises(ConfigError, match=fault):
            WeightedSampler(np.array(p))
