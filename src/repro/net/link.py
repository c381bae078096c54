"""Optional link impairment: deterministic jitter and wire loss.

The paper's testbed is two machines on clean 10 GbE links, so the main
experiments run with a perfect wire. For robustness studies (and for
demonstrating that the NATs' *relative* results survive imperfect
links), the testbed accepts a :class:`LinkModel` that adds seeded,
reproducible per-packet jitter and random wire loss on the path into
the middlebox.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple


@dataclass
class LinkModel:
    """Seeded per-packet impairment: (extra latency, wire drop)."""

    #: Uniform jitter added to each packet's path latency, nanoseconds.
    jitter_ns: int = 0
    #: Probability a packet is lost on the wire before the RX ring.
    loss_probability: float = 0.0
    seed: int = 4242

    def __post_init__(self) -> None:
        if self.jitter_ns < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        self._rng = random.Random(self.seed)

    def transit(self) -> Tuple[int, bool]:
        """Impairment for one packet: (extra_latency_ns, dropped)."""
        dropped = (
            self.loss_probability > 0.0
            and self._rng.random() < self.loss_probability
        )
        extra = self._rng.randrange(self.jitter_ns + 1) if self.jitter_ns else 0
        return extra, dropped
