"""Fail-stop crashes: nodes die permanently and take their buffers with them.

A dead node never has another contact (the stream suppresses it, exactly
like churn but one-way), and — unlike a churned node, which comes back with
its buffer intact — a carrier that dies *loses the copies it holds*. The
protocol sessions consult the same schedule to detect that loss and either
recover (custody re-anycast / ticket reclamation, see
:mod:`repro.faults.recovery`) or report a ``dropped`` outcome instead of
silently hanging until the horizon.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from repro.faults.churn import FaultFilteredContactProcess
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative, check_positive_int


class FailStopSchedule:
    """Permanent death times for every node.

    Either sample one exponential death time per node (``death_rate``) or
    pin explicit times (``deaths``, a node → time mapping; unlisted nodes
    never die). A zero ``death_rate`` means nobody ever dies.
    """

    def __init__(
        self,
        n: int,
        death_rate: Optional[float] = None,
        deaths: Optional[Mapping[int, float]] = None,
        rng: RandomSource = None,
    ):
        check_positive_int(n, "n")
        if (death_rate is None) == (deaths is None):
            raise ValueError("provide exactly one of death_rate or deaths")
        self._n = n
        self._death_time = np.full(n, math.inf)
        if death_rate is not None:
            check_non_negative(death_rate, "death_rate")
            if death_rate > 0:
                self._death_time[:] = ensure_rng(rng).exponential(
                    1.0 / death_rate, size=n
                )
        else:
            for node, time in deaths.items():
                if not (0 <= node < n):
                    raise ValueError(f"node {node} outside 0..{n - 1}")
                self._death_time[node] = check_non_negative(
                    time, f"deaths[{node}]"
                )

    @property
    def n(self) -> int:
        """Network size."""
        return self._n

    def death_time(self, node: int) -> float:
        """When ``node`` dies; ``inf`` if it never does."""
        if not (0 <= node < self._n):
            raise ValueError(f"node {node} outside 0..{self._n - 1}")
        return self._death_time.item(node)

    def is_dead(self, node: int, time: float) -> bool:
        """Whether ``node`` has permanently failed by ``time``."""
        return time >= self.death_time(node)

    def is_up(self, node: int, time: float) -> bool:
        """Alive means up."""
        return not self.is_dead(node, time)

    def up_mask(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Schedule interface shared with churn: alive at ``times[k]``."""
        return np.asarray(times) < self._death_time[np.asarray(nodes)]

    def survivors(self, time: float) -> int:
        """Number of nodes still alive at ``time``."""
        return int(np.count_nonzero(time < self._death_time))


class FailStopContactProcess(FaultFilteredContactProcess):
    """Contact stream under fail-stop crashes: the dead stay silent.

    Composes with the other stream transformers; apply it *inside* a
    :class:`~repro.faults.churn.NodeChurnProcess` wrapper (order is
    irrelevant for correctness — both are pure filters).
    """

    def __init__(self, inner, schedule: FailStopSchedule):
        if not isinstance(schedule, FailStopSchedule):
            raise TypeError(
                f"expected FailStopSchedule, got {type(schedule).__name__}"
            )
        super().__init__(inner, schedule)
