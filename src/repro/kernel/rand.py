"""Deterministic, stream-splittable randomness for the simulator.

Reproducibility is a core requirement of the evaluation harness: every
experiment in EXPERIMENTS.md must produce identical numbers run-to-run.
All stochastic behaviour in the kernel (network jitter, fault injection,
processing-time noise) therefore draws from a :class:`DeterministicRandom`
seeded once per simulation, and subsystems obtain *named sub-streams* so
that adding a new consumer never perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import random
import zlib


class DeterministicRandom:
    """A seeded random stream that can spawn independent named sub-streams.

    A sub-stream's seed is derived from the parent seed and the stream
    name, so the sequence observed by e.g. the network jitter model does
    not change when an unrelated subsystem starts consuming randomness.
    """

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = seed
        self.name = name
        self._rng = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = zlib.crc32(name.encode("utf-8"))
        return (seed * 1_000_003 + digest) & 0xFFFFFFFFFFFF

    def substream(self, name: str) -> "DeterministicRandom":
        """Return an independent stream derived from this one."""
        return DeterministicRandom(self._derive(self.seed, self.name), name)

    # -- draws -------------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """A float drawn uniformly from [low, high]."""
        return self._rng.uniform(low, high)

    def random(self) -> float:
        """A float drawn uniformly from [0, 1)."""
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """An integer drawn uniformly from [low, high] inclusive."""
        return self._rng.randint(low, high)

    def choice(self, seq):
        """One element drawn uniformly from the sequence."""
        return self._rng.choice(seq)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def jitter(self, value: float, fraction: float) -> float:
        """Return ``value`` perturbed by at most ±``fraction`` of itself."""
        if fraction <= 0.0:
            return value
        # inlined Random.uniform(1-f, 1+f) — identical float arithmetic
        # (a + (b-a)*random()), one call layer less on the per-message path
        low = 1.0 - fraction
        high = 1.0 + fraction
        return value * (low + (high - low) * self._rng.random())
