"""The splitmix stream's block draws against its scalar draws."""

import numpy as np
import pytest

from nonholo.rng import _GAMMA, _MASK, SplitMix64

# the seeds 0 and 2^64 - 1, and states that wrap past 2^64 within a few draws
SEEDS = [0, 1, 7, 2**63, _MASK, (-3 * _GAMMA) & _MASK, (_MASK - _GAMMA) & _MASK]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_a_block_is_the_scalar_stream_bitwise(seed, count):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    for _ in range(3):  # blocks after a block, from a fresh state and not
        got = block.next_floats(count)
        want = np.array([scalar.next_float() for _ in range(count)], dtype=float)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        # the state after a block is the state after as many scalar draws
        assert block._state == scalar._state
    assert block.next_u64() == scalar.next_u64()


def test_a_block_wraps_the_state_modulo_two_to_the_64():
    rng = SplitMix64((-2 * _GAMMA) & _MASK)  # the second draw's state is 0
    first, second, third = rng.next_floats(3)
    assert second == 0.0 and first != 0.0 and third != 0.0
    assert rng._state == _GAMMA
