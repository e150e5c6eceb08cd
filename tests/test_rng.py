import pytest

import qddsim as q
from qddsim.rng import SplitMix64

# First outputs of an independently written splitmix64 (plain big-int
# arithmetic), frozen here as the cross-implementation reference.
REFERENCE = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858, 6349198060258255764],
}


def test_reference_outputs():
    for seed, expected in REFERENCE.items():
        s = SplitMix64(seed)
        assert [s.next_u64() for _ in range(4)] == expected


def test_uniform_symmetric_range_and_determinism():
    a = SplitMix64(7)
    b = SplitMix64(7)
    xs = [a.uniform_symmetric() for _ in range(2000)]
    assert xs == [b.uniform_symmetric() for _ in range(2000)]
    assert all(-1.0 <= x < 1.0 for x in xs)
    # both halves populated
    assert any(x < -0.5 for x in xs) and any(x > 0.5 for x in xs)


def test_uniform_matches_bit_construction():
    s1, s2 = SplitMix64(42), SplitMix64(42)
    for _ in range(100):
        assert s1.uniform_symmetric() == (s2.next_u64() >> 11) * 2.0**-52 - 1.0


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 0.0, True, "x"])
def test_seeds_outside_64_bits_rejected(seed):
    # the stream works modulo 2**64, so such a seed would alias another one
    draws = (SplitMix64, lambda s: q.random_couplings(s, 2), lambda s: q.random_directions(s, 2))
    for draw in draws:
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw(seed)


def test_largest_seed_accepted():
    assert 0 <= SplitMix64(2**64 - 1).next_u64() < 2**64
