"""Deterministic, platform-independent pseudo-random number generation.

All randomness in this package (instance generation, seeded permutations)
flows through :class:`SplitMix64` so that a seed reproduces the same bytes
on every platform and in every language that ports the same three-line
generator.  The derivation rules for bounded integers, Bernoulli draws and
shuffles are part of the contract and documented on each method.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator (Steele, Lea, Flood 2014).

    State update: ``state += 0x9E3779B97F4A7C15`` (mod 2^64); output is the
    state mixed with two xor-multiply-shift rounds using the constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.
    """

    def __init__(self, seed: int) -> None:
        """``seed`` must be an int in [0, 2^64); masking any other value to
        64 bits would silently alias another seed."""
        if not isinstance(seed, int) or not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def float01(self) -> float:
        """Uniform float in [0, 1): the top 53 bits of one draw, times 2^-53."""
        return (self.next_u64() >> 11) * 2.0**-53

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``; consumes exactly one draw.

        ``p <= 0`` is always False and ``p >= 1`` always True (float01 < 1).
        """
        return self.float01() < p

    def bounded(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling.

        Draws u64 values until one falls below the largest multiple of ``n``
        that fits in 64 bits, then reduces mod ``n``; unbiased and portable.
        """
        if n <= 0:
            raise ValueError(f"bounded() needs a positive range, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, swapping index i with bounded(i+1)
        for i from len-1 down to 1."""
        for i in range(len(items) - 1, 0, -1):
            j = self.bounded(i + 1)
            items[i], items[j] = items[j], items[i]
