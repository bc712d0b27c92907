"""Robustness experiments: delivery under injected faults, model vs sim.

* :func:`figure_r1` — delivery rate vs node availability under churn. The
  simulation runs the real :class:`~repro.faults.churn.NodeChurnProcess`;
  the analysis evaluates the unmodified Eq. 6 on
  :func:`~repro.faults.churn.churned_graph` (availability scaling), so the
  two curves coinciding *is* the availability-scaling equivalence.
* :func:`figure_r2` — delivery rate vs greyhole drop probability at a
  fixed compromised fraction. The analysis is the survival-scaled Eq. 6
  (:func:`~repro.analysis.robustness.mean_greyhole_delivery_rate`); simulation
  runs with and without custody-timeout recovery, quantifying how much
  delivery the recovery protocol buys back.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.analysis.delivery import analysis_delivery_curve
from repro.analysis.robustness import mean_greyhole_delivery_rate
from repro.adversary.dropping import DroppingRelays
from repro.contacts.random_graph import random_contact_graph
from repro.experiments.config import DEFAULT_CONFIG, PaperConfig
from repro.experiments.result import FigureResult, Series
from repro.experiments.parallel import (
    Workers,
    run_parallel_batch,
    shared_contact_block,
    workers_metadata,
)
from repro.experiments.runners import (
    RouteOutcome,
    run_faulty_graph_batch,
    run_random_graph_batch,
)
from repro.faults.churn import NodeChurnSchedule, churned_graph
from repro.faults.recovery import RecoveryPolicy
from repro.utils.rng import RandomSource, ensure_rng, spawn_rng


def _delivered_fraction(pairs: Sequence[RouteOutcome], deadline: float) -> float:
    """Fraction of sessions delivered within ``deadline``."""
    if not pairs:
        raise ValueError("need at least one outcome")
    hits = sum(
        1
        for _, outcome in pairs
        if outcome.delivered and outcome.delay <= deadline
    )
    return hits / len(pairs)


def figure_r1(
    config: PaperConfig = DEFAULT_CONFIG,
    availabilities: Sequence[float] = (1.0, 0.9, 0.8, 0.65, 0.5),
    mean_cycle: float = 20.0,
    deadline: float = 720.0,
    sessions: int = 150,
    seed: RandomSource = 201,
    workers: Workers = 1,
) -> FigureResult:
    """Delivery rate vs node availability: churned-graph model vs churn sim.

    One substrate graph is shared across availability levels; each level
    gets an independent spawned RNG so adding a level never perturbs the
    others. ``mean_cycle`` is short relative to inter-contact times
    (Table II means are 10–360 min), putting the churn in the fast regime
    where the availability-scaling equivalence is tight. The fault-free
    arms (scaled-graph simulation, full availability) run through the
    struct-of-arrays batch kernels.

    Three series: the real churn process, a fault-free simulation of the
    availability-scaled graph (these two coinciding is the equivalence
    itself), and Eq. 6 on the scaled graph — which additionally carries
    the model's usual optimism on heterogeneous-rate graphs, widening as
    thinning pushes delivery off the saturated part of the CDF.
    """
    rng = ensure_rng(seed)
    graph = random_contact_graph(config.n, config.mean_intercontact_range, rng=rng)
    children = spawn_rng(rng, 2 * len(availabilities))

    model_points: List[Tuple[float, float]] = []
    churn_points: List[Tuple[float, float]] = []
    scaled_points: List[Tuple[float, float]] = []
    for index, availability in enumerate(availabilities):
        churn_rng, scaled_rng = children[2 * index], children[2 * index + 1]
        churn = (
            None
            if availability >= 1.0
            else NodeChurnSchedule.from_availability(
                config.n, availability, mean_cycle, rng=churn_rng
            )
        )
        # Parallel chunks share one pre-generated base stream; the churn
        # filter wraps it once per worker task (filters are per-event
        # iterators whose output depends only on the schedule).
        pairs = run_parallel_batch(
            run_faulty_graph_batch,
            sessions=sessions,
            workers=workers,
            rng=churn_rng,
            shared_events=shared_contact_block(workers, graph, churn_rng, deadline),
            graph=graph,
            group_size=config.group_size,
            onion_routers=config.onion_routers,
            copies=config.copies,
            horizon=deadline,
            churn=churn,
        )
        churn_points.append((availability, _delivered_fraction(pairs, deadline)))
        thinned = churned_graph(graph, availability)
        curve = analysis_delivery_curve(
            thinned, [route for route, _ in pairs], (deadline,), config.copies
        )
        model_points.append((availability, curve[0][1]))

        scaled = run_parallel_batch(
            run_random_graph_batch,
            sessions=sessions,
            workers=workers,
            rng=scaled_rng,
            shared_events=shared_contact_block(workers, thinned, scaled_rng, deadline),
            graph=thinned,
            group_size=config.group_size,
            onion_routers=config.onion_routers,
            copies=config.copies,
            horizon=deadline,
        )
        scaled_points.append((availability, _delivered_fraction(scaled, deadline)))

    return FigureResult(
        figure_id="Fig. R1",
        title="Delivery rate under node churn (deadline "
        f"{deadline:g} min, cycle {mean_cycle:g} min)",
        x_label="Node availability",
        y_label="Delivery rate",
        series=(
            Series(label="Analysis: Eq. 6 on churned graph", points=tuple(model_points)),
            Series(label="Simulation: node churn", points=tuple(churn_points)),
            Series(
                label="Simulation: churned graph",
                points=tuple(scaled_points),
            ),
        ),
        metadata=workers_metadata(workers),
    )


def figure_r2(
    config: PaperConfig = DEFAULT_CONFIG,
    drop_probs: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    compromise_rate: float = 0.2,
    deadline: float = 720.0,
    sessions: int = 150,
    custody_timeout: float = 30.0,
    max_retries: int = 3,
    seed: RandomSource = 202,
    workers: Workers = 1,
) -> FigureResult:
    """Delivery rate vs greyhole drop probability, with/without recovery.

    The compromised set is drawn once (fixed-count, the paper's sampling)
    and shared by every drop level and both simulation arms, so the curves
    differ only in ``p`` and in whether custody recovery runs. The analysis
    arm is the survival-scaled Eq. 6 averaged over the no-recovery batch's
    routes; recovery has no analytical counterpart here — the figure *is*
    the measurement of what it buys back. Greyhole sessions carry a
    fault plan, so they run in the engine's object loop.
    """
    rng = ensure_rng(seed)
    graph = random_contact_graph(config.n, config.mean_intercontact_range, rng=rng)
    compromised = DroppingRelays.sample(
        config.n, compromise_rate, 1.0, rng=rng
    ).compromised
    recovery = RecoveryPolicy(custody_timeout=custody_timeout, max_retries=max_retries)
    children = spawn_rng(rng, 2 * len(drop_probs))

    model_points: List[Tuple[float, float]] = []
    plain_points: List[Tuple[float, float]] = []
    recovered_points: List[Tuple[float, float]] = []
    for index, drop_prob in enumerate(drop_probs):
        plain_rng, recovery_rng = children[2 * index], children[2 * index + 1]
        relays = DroppingRelays(compromised, drop_prob, rng=plain_rng)
        pairs = run_parallel_batch(
            run_faulty_graph_batch,
            sessions=sessions,
            workers=workers,
            rng=plain_rng,
            shared_events=shared_contact_block(workers, graph, plain_rng, deadline),
            graph=graph,
            group_size=config.group_size,
            onion_routers=config.onion_routers,
            copies=config.copies,
            horizon=deadline,
            relays=relays,
        )
        plain_points.append((drop_prob, _delivered_fraction(pairs, deadline)))
        model = mean_greyhole_delivery_rate(
            graph,
            [route for route, _ in pairs],
            deadline,
            compromised,
            drop_prob,
            copies=config.copies,
        )
        model_points.append((drop_prob, model))

        recovery_relays = DroppingRelays(compromised, drop_prob, rng=recovery_rng)
        recovered = run_parallel_batch(
            run_faulty_graph_batch,
            sessions=sessions,
            workers=workers,
            rng=recovery_rng,
            shared_events=shared_contact_block(
                workers, graph, recovery_rng, deadline
            ),
            graph=graph,
            group_size=config.group_size,
            onion_routers=config.onion_routers,
            copies=config.copies,
            horizon=deadline,
            relays=recovery_relays,
            recovery=recovery,
        )
        recovered_points.append(
            (drop_prob, _delivered_fraction(recovered, deadline))
        )

    return FigureResult(
        figure_id="Fig. R2",
        title="Delivery rate under greyhole relays "
        f"({compromise_rate:.0%} compromised, deadline {deadline:g} min)",
        x_label="Drop probability p",
        y_label="Delivery rate",
        series=(
            Series(
                label="Analysis: survival-scaled Eq. 6",
                points=tuple(model_points),
            ),
            Series(label="Simulation: no recovery", points=tuple(plain_points)),
            Series(
                label="Simulation: custody recovery",
                points=tuple(recovered_points),
            ),
        ),
        metadata=workers_metadata(workers),
    )
