import numpy as np
import pytest
from scipy.special import ndtri

from quniverse import rng
from quniverse.rng import COUPLING_STREAM, LARGE_CALL_WORDS, SHIFT_STREAM, SeededRng

# Frozen reference sequence: SeededRng(12345).split(0).standard_normal(5).
# Any change here is a draw-order-contract break and must bump
# DRAW_CONTRACT_VERSION.
GOLDEN_SEED_12345_STREAM_0 = [
    0.31647019193425363,
    -0.6025311671718987,
    0.8615129281902799,
    -0.12531050657156995,
    -1.3946215773817212,
]


def test_golden_sequence():
    xs = SeededRng(12345).split(0).standard_normal(5)
    np.testing.assert_allclose(xs, GOLDEN_SEED_12345_STREAM_0, rtol=1e-14, atol=0.0)


def test_same_seed_same_sequence():
    a = SeededRng(99).split(SHIFT_STREAM).standard_normal(64)
    b = SeededRng(99).split(SHIFT_STREAM).standard_normal(64)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = SeededRng(1).split(0).standard_normal(16)
    b = SeededRng(2).split(0).standard_normal(16)
    assert not np.array_equal(a, b)


def test_sigma_zero_returns_mean_exactly_and_advances():
    rng = SeededRng(3).split(0)
    assert rng.gaussian(2.5, 0.0, size=1).tolist() == [2.5]
    xs = rng.gaussian(-1.0, 0.0, size=10)
    assert np.all(xs == -1.0)
    # the eleven draws took words 0..10: the next is a fresh stream's twelfth
    assert rng.uniform(1)[0] == SeededRng(3).split(0).uniform(12)[11]


def test_law_of_large_numbers():
    xs = SeededRng(0).split(0).standard_normal(100_000)
    assert abs(xs.mean()) < 0.01
    assert 0.99 < xs.std() < 1.01


def test_vectorized_draws_match_scalar_draws():
    # one variate consumes one word, so chunking cannot change the sequence
    vec = SeededRng(5).split(1).standard_normal(10)
    rng = SeededRng(5).split(1)
    words = np.concatenate([rng.standard_normal(size=1) for _ in range(10)])
    np.testing.assert_array_equal(vec, words)


def test_substreams_independent():
    # coupling draws must not shift when the shift stream consumes a
    # different number of variates (e.g. after changing n_env_levels)
    first = SeededRng(42).split(COUPLING_STREAM).standard_normal(8)
    shifts = SeededRng(42).split(SHIFT_STREAM)
    shifts.standard_normal(1530)
    second = SeededRng(42).split(COUPLING_STREAM).standard_normal(8)
    assert np.array_equal(first, second)
    # and the two streams do not mirror each other
    assert not np.array_equal(
        SeededRng(42).split(SHIFT_STREAM).standard_normal(8), first
    )


def test_uniform_open_interval():
    us = SeededRng(17).split(2).uniform(size=10_000)
    assert us.min() > 0.0
    assert us.max() < 1.0
    assert abs(us.mean() - 0.5) < 0.01


def test_gaussian_scaling():
    base = SeededRng(8).split(0).standard_normal(1000)
    scaled = SeededRng(8).split(0).gaussian(10.0, 2.0, size=1000)
    np.testing.assert_allclose(scaled, 10.0 + 2.0 * base, rtol=0, atol=1e-12)


# -- the two ndtri kernels ---------------------------------------------------

def _contract_uniforms(words):
    """The inverse CDF's arguments for raw Philox words, as the contract forms them."""
    return ((np.asarray(words, dtype=np.uint64) >> np.uint64(11)).astype(np.float64)
            + 0.5) * 2.0 ** -53


def _same_bytes(a, b):
    return a.tobytes() == b.tobytes()


def test_ndtri_port_matches_scipy_on_ten_million_draws():
    port_rng = SeededRng(2024).split(COUPLING_STREAM)
    words_rng = SeededRng(2024).split(COUPLING_STREAM)
    calls = 40  # calls of LARGE_CALL_WORDS - 1 words: 10.5e6 draws through the port
    for _ in range(calls):
        got = port_rng.standard_normal(LARGE_CALL_WORDS - 1)
        assert _same_bytes(got, ndtri(words_rng.uniform(LARGE_CALL_WORDS - 1)))
    assert calls * (LARGE_CALL_WORDS - 1) >= 10 ** 7
    # both streams stand at the same word
    assert port_rng.uniform(1)[0] == words_rng.uniform(1)[0]


def test_ndtri_port_matches_scipy_in_both_extreme_tails():
    # The 2e5 smallest and largest words: both tail branches of cephes
    # (z < 8 and z >= 8, lower side only) and the largest word, whose
    # argument rounds to 1 and gives +inf
    k = np.arange(200_000, dtype=np.uint64)
    for words in (k << np.uint64(11), (np.uint64(2 ** 53 - 1) - k) << np.uint64(11)):
        u = _contract_uniforms(words)
        assert _same_bytes(rng._ndtri(u), ndtri(u))
    assert rng._ndtri(_contract_uniforms([0]))[0] < -8.0  # z >= 8
    assert rng._ndtri(_contract_uniforms([(2 ** 53 - 1) << 11]))[0] == np.inf


@pytest.mark.parametrize("words", [LARGE_CALL_WORDS - 1, LARGE_CALL_WORDS])
def test_kernel_follows_the_call_word_count(monkeypatch, words):
    port_calls = []

    def recording_port(u):
        port_calls.append(u.size)
        return port(u)

    port = rng._ndtri
    monkeypatch.setattr(rng, "_ndtri", recording_port)
    got = SeededRng(77).split(SHIFT_STREAM).standard_normal(words)
    u = SeededRng(77).split(SHIFT_STREAM).uniform(words)
    assert port_calls == ([words] if words < LARGE_CALL_WORDS else [])
    assert _same_bytes(got, ndtri(u)) and _same_bytes(got, port(u))


class _FixedWords:
    """A bit generator stand-in whose words are random except `word` at `at`."""

    def __init__(self, word, at):
        self.word, self.at = np.uint64(word), at

    def random_raw(self, n):
        words = np.random.default_rng(0).integers(0, 2 ** 63, n, dtype=np.uint64)
        words[self.at] = self.word
        return words


@pytest.mark.parametrize("size", [5, LARGE_CALL_WORDS], ids=["port", "scipy"])
def test_infinite_draw_refused_with_its_seed_stream_and_word(size):
    # every word from (2^53 - 1) << 11 up gives u = 1.0 and ndtri = +inf;
    # the word just below it is the largest finite draw
    first_infinite = (2 ** 53 - 1) << 11
    for word in (2 ** 64 - 1, first_infinite):
        draws = SeededRng(31).split(COUPLING_STREAM)
        draws.standard_normal(7)
        draws._bitgen = _FixedWords(word, at=3)
        with pytest.raises(ValueError, match=r"seed 31, spawn key \(1,\): word 10 gives an "
                                             r"infinite normal variate"):
            draws.gaussian(0.0, 1.0, size=size)
    draws = SeededRng(31).split(COUPLING_STREAM)
    draws._bitgen = _FixedWords(first_infinite - 1, at=3)
    x = draws.gaussian(0.0, 1.0, size=size)
    assert np.isfinite(x).all() and x[3] == ndtri(_contract_uniforms([first_infinite - 1]))[0]
