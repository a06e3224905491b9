"""Deterministic random-number streams.

Every stochastic component of the simulation (arrival process, service
times, netem loss, interference stalls, ...) draws from its **own named
stream**, derived from the experiment's master seed with a SplitMix64 hash.
Adding a new consumer therefore never perturbs the draws seen by existing
ones, which keeps experiments comparable across code versions.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional

__all__ = ["SeedSequence", "Stream", "splitmix64"]

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One SplitMix64 output step (also used as a seed-mixing hash)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_name(seed: int, name: str) -> int:
    state = seed & _MASK64
    for byte in name.encode("utf-8"):
        state = splitmix64(state ^ byte)
    return splitmix64(state)


class Stream:
    """A named random stream with the distribution helpers the sim needs.

    The generator is derived on first draw, not at construction: a cell
    issues hundreds of streams (one per socket endpoint, ...) and draws
    from few of them.  The first access to ``_random`` falls through to
    :meth:`__getattr__`, which seeds it and stores it as an ordinary
    instance attribute, so every later draw costs what an eagerly seeded
    stream's does.  A stream's draws depend only on ``(seed, name)``,
    never on when it was first drawn from.
    """

    def __init__(self, seed: int, name: str) -> None:
        self.name = name
        self._seed = seed

    def __getattr__(self, attr: str):
        if attr != "_random":
            raise AttributeError(f"'Stream' object has no attribute {attr!r}")
        self._random = random.Random(_mix_name(self._seed, self.name))
        return self._random

    # -- raw draws -------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, items):
        return self._random.choice(items)

    def shuffle(self, items: list) -> None:
        self._random.shuffle(items)

    # -- distributions -----------------------------------------------------
    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def exponential(self, mean: float) -> float:
        """Exponential with the given mean (not rate)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def lognormal_mean_cv(self, mean: float, cv: float) -> float:
        """Lognormal parameterized by mean and coefficient of variation.

        ``cv = std / mean`` of the resulting distribution.
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if cv <= 0:
            return mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return self._random.lognormvariate(mu, math.sqrt(sigma2))

    def pareto(self, scale: float, alpha: float) -> float:
        """Pareto (Lomax-free, classic) with minimum ``scale``."""
        if scale <= 0 or alpha <= 0:
            raise ValueError("scale and alpha must be positive")
        return scale * (self._random.paretovariate(alpha))

    def normal(self, mean: float, std: float) -> float:
        return self._random.gauss(mean, std)

    def exponential_ns(self, mean_ns: int) -> int:
        """Exponential draw rounded to integer nanoseconds (min 1 ns)."""
        return max(1, int(round(self.exponential(mean_ns))))

    def __repr__(self) -> str:
        return f"<Stream {self.name!r}>"


class SeedSequence:
    """Factory for named, independent :class:`Stream` objects."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed) & _MASK64
        self._issued: dict = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name`` (one instance per name)."""
        if name not in self._issued:
            self._issued[name] = Stream(self.seed, name)
        return self._issued[name]

    def child(self, name: str) -> "SeedSequence":
        """Derive an independent child sequence (for sub-components)."""
        return SeedSequence(_mix_name(self.seed, "child:" + name))

    def issued_names(self) -> Iterable[str]:
        return tuple(self._issued)

    def __repr__(self) -> str:
        return f"<SeedSequence seed={self.seed:#x} streams={len(self._issued)}>"
