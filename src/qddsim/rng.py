"""Portable seeded random stream for coupling constants.

The coupling matrices of a model are fixed once at construction and must be
reproducible bit-for-bit across platforms and languages, so the draws come
from a self-contained splitmix64 stream rather than from a library generator
whose stream may change between releases.
"""

from __future__ import annotations

from .linalg import check_count

_MASK64 = 0xFFFFFFFFFFFFFFFF


class SplitMix64:
    """splitmix64 generator (Steele, Lea, Flood 2014).

    State advances by the golden-gamma increment; each output is the
    finalized mix of the new state. All arithmetic is modulo 2**64, so a
    seed must be an integer (NumPy integers included, booleans not) in
    [0, 2**64): any other would alias one that does.
    """

    def __init__(self, seed: int):
        message = f"seed must be an integer in [0, 2**64), got {seed!r}"
        check_count(seed, 0, message)
        if seed > _MASK64:
            raise ValueError(message)
        self._state = int(seed)

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform_symmetric(self) -> float:
        """Uniform double in [-1, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-52 - 1.0
