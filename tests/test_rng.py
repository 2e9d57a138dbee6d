"""The bulk Philox draws against numpy's own generators."""

import numpy as np
import pytest

from eprverify import rng as rngmod
from eprverify.rng import bounded, choose, first_blocks, stream, trial_draws, uniform

from dense_reference import FixedDraws, edge_uniforms, scalar_draw

_MASK64 = 2**64 - 1


@pytest.mark.parametrize("seed", [0, 1, -1, -3, -(2**63), 2**63 - 1])
@pytest.mark.parametrize("start", [0, 2**32 - 500])
def test_first_blocks_match_numpy_philox(seed, start):
    n = 1000
    words = np.stack(first_blocks(seed, start, n), axis=1)
    for k in range(n):
        key = np.array([seed & _MASK64, start + k], dtype=np.uint64)
        np.testing.assert_array_equal(words[k], np.random.Philox(key=key).random_raw(4))


@pytest.mark.parametrize("seed", [0, -1, -(2**63), 2**63, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**32 - 2])
@pytest.mark.parametrize("n", [1, 900, 4096])
def test_two_lane_first_blocks_match_numpy_philox(seed, start, n):
    # The two lanes of a round against numpy's own Philox at each t, also
    # where the counter word t crosses 2**32.
    words = np.stack(first_blocks(seed, start, n), axis=1)
    assert words.dtype == np.uint64 and words.shape == (n, 4)
    for k in range(n):
        key = np.array([seed & _MASK64, start + k], dtype=np.uint64)
        assert words[k].tolist() == np.random.Philox(key=key).random_raw(4).tolist(), (seed, start, k)


def _philox_with_buffer(words: list[int]) -> np.random.Generator:
    """A generator whose next draws come from words (four uint64s)."""
    bit_gen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    state = bit_gen.state
    state.update(buffer=np.array(words, dtype=np.uint64), buffer_pos=0, has_uint32=0, uinteger=0)
    bit_gen.state = state
    return np.random.Generator(bit_gen)


def _redrawn(n: int) -> list[int]:
    """Every 32-bit draw that numpy's integers(n) rejects: those whose product
    with n has a low word below (2**32 - n) % n."""
    return [
        (v * 2**32 + low) // n
        for v in range(n)
        for low in range((2**32 - n) % n)
        if (v * 2**32 + low) % n == 0
    ]


@pytest.mark.parametrize("n", range(1, 41))
def test_bounded_matches_numpy_integers(n):
    gen = np.random.default_rng(n)
    rejected = _redrawn(n)
    accepted = [int(x) for x in gen.integers(2**32, size=8)] + [0, 2**32 - 1]
    for low in rejected + accepted:
        high = int(gen.integers(2**32))
        g = _philox_with_buffer([high << 32 | low, 7, 8, 9])
        drawn = int(g.integers(n))
        state = g.bit_generator.state
        draws_taken = 2 * state["buffer_pos"] - state["has_uint32"]
        value, redraw = bounded(np.array([low], dtype=np.uint64), n)
        assert bool(redraw[0]) == (draws_taken > 1) == (low in rejected), (n, low)
        assert draws_taken == (0 if n == 1 else 1 + bool(redraw[0]))
        if not redraw[0]:
            assert int(value[0]) == drawn, (n, low)


def test_uniform_matches_numpy_random():
    words = np.random.default_rng(5).integers(0, 2**64, size=4, dtype=np.uint64, endpoint=False)
    words[:2] = [0, _MASK64]
    g = _philox_with_buffer(words.tolist())
    assert uniform(words).tolist() == [g.random() for _ in range(4)]


def _assert_stream_draws(seed, start, n, l):
    i, j, coin, u1, u2 = trial_draws(seed, start, n, l)
    for t in range(n):
        g = stream(seed, start + t)
        expected = (int(g.integers(l)), int(g.integers(l - 1)), int(g.integers(2)), g.random(), g.random())
        assert (int(i[t]), int(j[t]), int(coin[t]), float(u1[t]), float(u2[t])) == expected


@pytest.mark.parametrize("l", [2, 3, 5])
def test_trial_draws_are_the_stream_draws(l):
    _assert_stream_draws(-7, 0, 200, l)


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("start", [rngmod.CHUNK_TRIALS, 3 * rngmod.CHUNK_TRIALS - 5])
def test_trial_draws_at_a_chunk_offset_are_the_stream_draws(start, l):
    # Trial start + t draws from stream(seed, start + t), not from stream(seed, t).
    _assert_stream_draws(-(2**62) - 3, start, 200, l)


def test_stream_guard_catches_a_changed_draw(monkeypatch):
    real = rngmod.first_blocks

    def one_bit_off(seed, start, n):
        words = list(real(seed, start, n))
        words[2] = words[2] ^ np.uint64(1 << 63)  # the first uniform of l > 2, moved by 1/2
        return tuple(words)

    monkeypatch.setattr(rngmod, "first_blocks", one_bit_off)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        trial_draws(1, 0, 10, 3)


@pytest.mark.parametrize(
    "probs",
    [[0.5, 0.5], [0.25, 0.0, 0.75], [0.0, 0.0], [0.1] * 10, [0.0, 1e-14, 0.3, 0.0, 0.7], [1 / 3] * 3],
)
def test_choose_matches_the_scalar_walk(probs):
    u = np.array([0.0, 1.0 - 2.0**-53, *np.random.default_rng(3).random(50), *edge_uniforms(probs)])
    expected = [scalar_draw(FixedDraws([], [x]), probs) for x in u.tolist()]
    assert choose(u, probs).tolist() == expected
