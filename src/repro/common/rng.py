"""Deterministic random-number utilities.

Every stochastic component of the library (trace generators, workload
mixers) draws from a :class:`DeterministicRng` seeded explicitly by the
caller.  Nothing in the library ever touches global random state, so two
runs with the same configuration produce identical traces, identical
migrations, and identical AMMAT numbers.

Child streams are derived with :meth:`DeterministicRng.child` using a
stable string label, so adding a new consumer of randomness never
perturbs the draws seen by existing consumers (a property plain
``random.Random(seed + i)`` schemes do not have).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from typing import ClassVar, Dict, List, Tuple


def _derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class DeterministicRng:
    """A labelled, forkable wrapper around :class:`random.Random`.

    Parameters
    ----------
    seed:
        Root seed.  Equal seeds yield equal streams.
    label:
        Human-readable stream name, folded into the derived seed so
        sibling streams are statistically independent.
    """

    # The draws are the wrapped ``random.Random``'s own bound methods,
    # assigned in ``__init__`` rather than reached through
    # ``__getattr__``: the supported surface stays visible and
    # typo-proof, and a draw pays no wrapper frame.

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = seed
        self.label = label
        draws = random.Random(_derive_seed(seed, label))
        self.random = draws.random
        self.getrandbits = draws.getrandbits
        self.randint = draws.randint
        self.randrange = draws.randrange
        self.choice = draws.choice
        self.shuffle = draws.shuffle
        self.sample = draws.sample
        self.expovariate = draws.expovariate
        self.gauss = draws.gauss

    def child(self, label: str) -> "DeterministicRng":
        """Fork an independent stream named ``label`` under this one."""
        return DeterministicRng(self.seed, f"{self.label}/{label}")

    def zipf_index(self, n: int, alpha: float) -> int:
        """Draw an index in [0, n) with a Zipf(alpha) popularity skew.

        Index 0 is the most popular element.  Implemented by inverse
        transform over the exact normalised CDF (:meth:`zipf_cdf`), so a
        draw costs one ``random()`` and one binary search of
        ``cdf[:n - 1]`` (the last entry is pinned to 1.0).
        """
        return bisect_left(self.zipf_cdf(n, alpha), self.random(), 0, n - 1)

    # Class-level memo shared by every stream: the CDF depends only on
    # (n, alpha), never on the seed.
    _zipf_cache: ClassVar[Dict[Tuple[int, float], List[float]]] = {}

    @classmethod
    def zipf_cdf(cls, n: int, alpha: float) -> List[float]:
        """The normalised Zipf(alpha) CDF over ``n`` ranks, memoised."""
        key = (n, alpha)
        cached = cls._zipf_cache.get(key)
        if cached is not None:
            return cached
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        cls._zipf_cache[key] = cdf
        return cdf
