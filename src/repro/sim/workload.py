"""Multi-message workloads: Poisson message arrivals.

The per-figure experiments route one message per session; deployments care
about sustained traffic. A :class:`PoissonWorkload` samples messages with
exponential inter-arrival times between random endpoint pairs; the caller
builds one session per message and runs them all over one engine.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.sim.message import Message
from repro.utils.validation import check_positive


class PoissonWorkload:
    """Poisson message arrivals between uniform random endpoint pairs.

    Parameters
    ----------
    arrival_rate:
        Messages per time unit (the same unit as the contact rates).
    message_deadline:
        Per-message TTL ``T``.
    duration:
        Injection window; run the engine to
        ``duration + message_deadline`` so the last message gets its full
        deadline.
    """

    def __init__(
        self,
        arrival_rate: float,
        message_deadline: float,
        duration: float,
    ):
        check_positive(arrival_rate, "arrival_rate")
        check_positive(message_deadline, "message_deadline")
        check_positive(duration, "duration")
        self._arrival_rate = arrival_rate
        self._deadline = message_deadline
        self._duration = duration

    def generate_messages(
        self, n: int, rng: np.random.Generator
    ) -> List[Message]:
        """Sample the arrival times and endpoint pairs."""
        messages = []
        time = 0.0
        while True:
            time += rng.exponential(1.0 / self._arrival_rate)
            if time > self._duration:
                break
            source, destination = rng.choice(n, size=2, replace=False)
            messages.append(
                Message(
                    source=int(source),
                    destination=int(destination),
                    created_at=time,
                    deadline=self._deadline,
                )
            )
        return messages
