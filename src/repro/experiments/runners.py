"""Shared experiment machinery: batched simulations and model curves.

The paper's methodology (§V-A): generate a contact graph, pick random
source/destination pairs plus onion routes, simulate the protocol, and
compare the averaged simulation metrics with the numerical models evaluated
on the same realisations. Batching many sessions over one event stream
keeps the discrete-event cost amortised.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.compromise import (
    CompromiseModel,
    TargetedCompromise,
    StakeWeightedCompromise,
    make_compromise_model,
)
from repro.adversary.kernel import (
    SecurityBatchKernel,
    SecuritySweepVariant,
    SecurityTrialBlock,
    sample_security_block,
)
# Re-exported: the delivery and trace figures import the route-set
# evaluator from here.
from repro.analysis.delivery import analysis_delivery_curve  # noqa: F401
from repro.contacts.events import (
    ExponentialContactProcess,
    TraceReplayProcess,
    as_event_source,
)
from repro.contacts.graph import ContactGraph
from repro.contacts.intercontact import estimate_rates_from_trace
from repro.contacts.traces import ContactTrace
from repro.core.multi_copy import MultiCopySession, SprayPolicy
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route import OnionRoute
from repro.core.single_copy import SingleCopySession
from repro.experiments.config import DEFAULT_CONFIG
from repro.faults.churn import NodeChurnProcess, NodeChurnSchedule
from repro.faults.failstop import FailStopContactProcess, FailStopSchedule
from repro.faults.recovery import FaultPlan, RecoveryPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from repro.sim.metrics import DeliveryOutcome, delivery_rate_curve
from repro.sim.protocol import ProtocolSession
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_fraction, check_positive_int

logger = logging.getLogger(__name__)

RouteOutcome = Tuple[OnionRoute, DeliveryOutcome]


@dataclass(frozen=True)
class SweepVariant:
    """One parameter-grid point of a fused sweep.

    A fused sweep runs several grid points — e.g. the ``L`` values of
    fig. 10 or the ``K`` values of fig. 5 — against *one* shared contact
    window in one engine pass, so the kernels sweep every point's sessions
    in a single invocation instead of regenerating and re-scanning the
    window per point. Sharing the window across points is also a common
    random numbers scheme: between-point comparisons see the same contact
    realisation, which reduces the variance of their differences.
    """

    label: str
    group_size: int
    onion_routers: int
    copies: int = 1
    spray_policy: SprayPolicy = SprayPolicy.SOURCE


def sample_endpoints(
    n: int, rng: np.random.Generator
) -> Tuple[int, int]:
    """A uniformly random ordered (source, destination) pair."""
    source, destination = rng.choice(n, size=2, replace=False)
    return int(source), int(destination)


def select_overlapping_route(
    n: int,
    source: int,
    destination: int,
    onion_routers: int,
    group_size: int,
    rng: np.random.Generator,
) -> OnionRoute:
    """Per-hop random onion groups that may share members across hops.

    Needed when ``K · g`` approaches ``n`` (the paper's Cambridge setup:
    n = 12, g = 10, K = 3 cannot use disjoint groups). Each hop draws a
    fresh ``g``-subset of the nodes other than the endpoints. Virtual group
    ids ``0 … K−1`` are route-local.
    """
    eligible = [v for v in range(n) if v not in (source, destination)]
    if group_size > len(eligible):
        raise ValueError(
            f"group_size={group_size} exceeds the {len(eligible)} eligible nodes"
        )
    groups = []
    for _ in range(onion_routers):
        chosen = rng.choice(len(eligible), size=group_size, replace=False)
        groups.append(tuple(sorted(eligible[i] for i in chosen)))
    return OnionRoute(
        source=source,
        destination=destination,
        group_ids=tuple(range(onion_routers)),
        groups=tuple(groups),
    )


def _make_session(
    message: Message,
    route: OnionRoute,
    copies: int,
    spray_policy: SprayPolicy,
    faults: Optional[FaultPlan] = None,
    recovery: Optional[RecoveryPolicy] = None,
) -> ProtocolSession:
    if copies == 1:
        return SingleCopySession(message, route, faults=faults, recovery=recovery)
    return MultiCopySession(
        message,
        route,
        copies=copies,
        spray_policy=spray_policy,
        faults=faults,
        recovery=recovery,
    )


def _place_graph_sessions(
    engine: SimulationEngine,
    n: int,
    directory: OnionGroupDirectory,
    variant: SweepVariant,
    deadline: float,
    sessions: int,
    generator: np.random.Generator,
    faults: Optional[FaultPlan] = None,
    recovery: Optional[RecoveryPolicy] = None,
) -> List[RouteOutcome]:
    """Register one grid point's sessions, created at 0; (route, outcome)s.

    Each session draws its endpoints, then its route over ``directory``.
    """
    pairs: List[RouteOutcome] = []
    for _ in range(sessions):
        source, destination = sample_endpoints(n, generator)
        route = directory.select_route(
            source, destination, variant.onion_routers, rng=generator
        )
        message = Message(
            source=source, destination=destination, created_at=0.0, deadline=deadline
        )
        session = _make_session(
            message, route, variant.copies, variant.spray_policy, faults, recovery
        )
        engine.add_session(session)
        pairs.append((route, session.outcome()))
    return pairs


def _chunk_inputs(
    sessions, rng: "RandomSource | Sequence[RandomSource]"
) -> List[Tuple[int, np.random.Generator]]:
    """A graph runner's ``(sessions, generator)`` pair per chunk.

    A scalar ``sessions`` with one ``rng`` is the one-chunk serial case.
    Equal-length sequences of counts and seed sources are one chunk each:
    the parallel layer runs a worker task's chunks this way, in one
    engine over one shared event stream.
    """
    if not isinstance(sessions, Sequence):
        return [(sessions, ensure_rng(rng))]
    if not isinstance(rng, Sequence):
        raise TypeError("per-chunk sessions need one rng per chunk")
    if len(sessions) != len(rng) or not sessions:
        raise ValueError(
            f"per-chunk sessions ({len(sessions)}) and rngs ({len(rng)}) "
            "must be non-empty and of equal length"
        )
    return [(count, ensure_rng(source)) for count, source in zip(sessions, rng)]


def _run_graph_variants(
    graph: ContactGraph,
    variants: Sequence[SweepVariant],
    horizon: float,
    deadline: float,
    sessions_per_variant,
    rng,
    events,
    *,
    churn: Optional[NodeChurnSchedule] = None,
    failstop: Optional[FailStopSchedule] = None,
    relays=None,
    recovery: Optional[RecoveryPolicy] = None,
    **engine_options,
) -> List[List[List[RouteOutcome]]]:
    """Shared body of the random-graph runners; per chunk, per variant.

    Every chunk (see :func:`_chunk_inputs`) places its sessions in one
    engine over one event stream. Draw order per chunk: each variant's
    group directory, then that variant's sessions. Without ``events``
    (one chunk only) the contact process's block pre-draws come right
    after the first directory. A batch is the sweep with one variant, so
    every runner consumes a generator alike.

    The fail-stop and churn filters wrap the stream once: their output
    depends only on their initial state. ``relays`` draws a drop per
    receive, so in the per-chunk form each chunk gets its own copy, with
    the state a chunk run on its own would start from.
    ``engine_options`` go to :class:`~repro.sim.engine.SimulationEngine`.
    """
    chunks = _chunk_inputs(sessions_per_variant, rng)
    per_chunk = isinstance(sessions_per_variant, Sequence)
    if events is None and len(chunks) > 1:
        raise ValueError("per-chunk sessions need a shared events stream")
    engine: Optional[SimulationEngine] = None
    results: List[List[List[RouteOutcome]]] = []
    for sessions, generator in chunks:
        plan: Optional[FaultPlan] = None
        if failstop is not None or relays is not None:
            plan = FaultPlan(
                failstop=failstop,
                relays=copy.deepcopy(relays) if per_chunk else relays,
            )
        chunk: List[List[RouteOutcome]] = []
        for variant in variants:
            directory = OnionGroupDirectory(
                graph.n, variant.group_size, rng=generator
            )
            if engine is None:
                if events is None:
                    source = ExponentialContactProcess(graph, rng=generator)
                else:
                    source = as_event_source(events)
                if failstop is not None:
                    source = FailStopContactProcess(source, failstop)
                if churn is not None:
                    source = NodeChurnProcess(source, churn)
                engine = SimulationEngine(source, horizon=horizon, **engine_options)
            chunk.append(
                _place_graph_sessions(
                    engine, graph.n, directory, variant, deadline, sessions,
                    generator, plan, recovery,
                )
            )
        results.append(chunk)
    engine.run()
    return results


def _variant_results(results, sessions, variant: Optional[int] = None):
    """Unwrap :func:`_run_graph_variants`: one chunk's result, or a list
    with one entry per chunk when ``sessions`` was given per chunk."""
    parts = [chunk if variant is None else chunk[variant] for chunk in results]
    return parts if isinstance(sessions, Sequence) else parts[0]


def run_random_graph_batch(
    graph: ContactGraph,
    group_size: int,
    onion_routers: int,
    copies: int,
    horizon: float,
    sessions: "int | Sequence[int]",
    rng: "RandomSource | Sequence[RandomSource]" = None,
    spray_policy: SprayPolicy = SprayPolicy.SOURCE,
    events=None,
    consume: str = "auto",
    kernel: bool = True,
    deadline: Optional[float] = None,
    stream_window: Optional[float] = None,
    max_window_events: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[RouteOutcome]:
    """Simulate ``sessions`` onion-routing sessions over one event stream.

    Each session gets its own random endpoints and route over a fresh
    random-membership group directory; all sessions share the same sampled
    contact process (they are read-only observers of it, so this is
    statistically equivalent to independent runs and much cheaper).
    ``consume`` (``"auto"`` or ``"stream"``) is forwarded to
    :class:`~repro.sim.engine.SimulationEngine`; both modes produce
    byte-identical outcomes. The batch is :func:`run_fused_graph_sweep`
    with one variant.

    ``events`` overrides the sampled contact process with a pre-generated
    source (an :class:`~repro.contacts.events.EventBlock` or any event
    source) — the shared-stream parallel protocol uses this so worker
    tasks replay one stream instead of re-sampling it. Note the override
    skips the process's block pre-draws, so the per-session endpoint/route
    draws sit at a different offset of the master stream than with
    ``events=None``.

    ``sessions`` and ``rng`` may instead be equal-length per-chunk
    sequences (``events`` is then required): every chunk draws from its
    own generator as a one-chunk call would, all chunks' sessions run in
    one engine pass over ``events``, and the result is one outcome list
    per chunk.

    ``kernel`` defaults to on: eligible fault-free single-copy and
    multi-copy sessions are swept by the struct-of-arrays kernels and
    everything else runs in the engine's object loop, with byte-identical
    outcomes. Pass ``kernel=False`` to run every session in the object
    loop.

    ``deadline`` (default: ``horizon``) sets each message's deadline
    independently of the simulated window — the streaming million-session
    benchmarks use ``deadline << horizon`` so the batch finishes (and the
    stream loop exits early) long before the horizon. ``stream_window``
    and ``max_window_events`` are the ``consume="stream"`` knobs (window
    span and per-window event ceiling); they are forwarded to the engine
    and only bite under the streaming consume mode.

    ``backend`` selects the kernel compute backend (``"numpy"`` or
    ``"cc"``; see :mod:`repro.sim.backend`) and is forwarded
    to the engine. Outcomes are byte-identical across backends.
    """
    results = _run_graph_variants(
        graph,
        [SweepVariant("", group_size, onion_routers, copies, spray_policy)],
        horizon, horizon if deadline is None else deadline, sessions, rng, events,
        consume=consume, kernel=kernel, stream_window=stream_window,
        max_window_events=max_window_events, backend=backend,
    )
    return _variant_results(results, sessions, 0)


def run_fused_graph_sweep(
    graph: ContactGraph,
    variants: Sequence[SweepVariant],
    horizon: float,
    sessions_per_variant: "int | Sequence[int]",
    rng: "RandomSource | Sequence[RandomSource]" = None,
    events=None,
    consume: str = "auto",
    kernel: bool = True,
    stream_window: Optional[float] = None,
    max_window_events: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[List[RouteOutcome]]:
    """Simulate every grid point of a sweep over one shared event stream.

    All variants' sessions are registered in *one* engine and advanced in
    *one* pass over one contact window — under the (default) kernel mode
    that means a single struct-of-arrays invocation per kernel class for
    the entire grid. Each variant draws its own group directory, endpoints,
    and routes from the shared ``rng`` (in variant order, so the draw
    sequence is deterministic); with a single variant the result is
    byte-identical to :func:`run_random_graph_batch` on the same seed.

    Returns one outcome list per variant, parallel to ``variants``; with
    per-chunk ``sessions_per_variant`` and ``rng`` sequences (see
    :func:`run_random_graph_batch`), one such list of lists per chunk.
    """
    if not variants:
        raise ValueError("run_fused_graph_sweep needs at least one variant")
    results = _run_graph_variants(
        graph, variants, horizon, horizon, sessions_per_variant, rng, events,
        consume=consume, kernel=kernel, stream_window=stream_window,
        max_window_events=max_window_events, backend=backend,
    )
    return _variant_results(results, sessions_per_variant)


def run_faulty_graph_batch(
    graph: ContactGraph,
    group_size: int,
    onion_routers: int,
    copies: int,
    horizon: float,
    sessions: "int | Sequence[int]",
    rng: "RandomSource | Sequence[RandomSource]" = None,
    spray_policy: SprayPolicy = SprayPolicy.SOURCE,
    *,
    churn: Optional[NodeChurnSchedule] = None,
    failstop: Optional[FailStopSchedule] = None,
    relays=None,
    recovery: Optional[RecoveryPolicy] = None,
    events=None,
    kernel: bool = True,
    backend: Optional[str] = None,
) -> List[RouteOutcome]:
    """:func:`run_random_graph_batch` under injected faults.

    Stacks the fault processes on one sampled event stream (fail-stop
    suppression inside churn suppression — both are pure filters, order is
    irrelevant) and hands every session the matching
    :class:`~repro.faults.recovery.FaultPlan`. The engine quarantines any
    session that raises, so a pathological route degrades one message, not
    the batch.

    ``events`` overrides the sampled base stream (shared-stream parallel
    tasks pass the parent's block here); the fault filters still wrap it
    and mask each window. ``sessions`` and ``rng`` may be per-chunk
    sequences as in :func:`run_random_graph_batch`; each chunk then gets
    its own copy of ``relays``.

    ``kernel`` (default on) sweeps the sessions that carry no
    :class:`~repro.faults.recovery.FaultPlan` and no recovery policy:
    churn alone only thins the stream, so a churn-only batch runs on the
    kernels, while fail-stop and dropping relays attach a plan and keep
    their sessions in the object loop. Outcomes are byte-identical either
    way.
    """
    results = _run_graph_variants(
        graph,
        [SweepVariant("", group_size, onion_routers, copies, spray_policy)],
        horizon, horizon, sessions, rng, events,
        churn=churn, failstop=failstop, relays=relays, recovery=recovery,
        kernel=kernel, backend=backend,
    )
    return _variant_results(results, sessions, 0)


def simulated_delivery_curve(
    outcomes: Sequence[DeliveryOutcome], deadlines: Sequence[float]
) -> List[Tuple[float, float]]:
    """Delivery rate vs deadline measured from simulated outcomes."""
    return delivery_rate_curve(outcomes, deadlines)


# ----------------------------------------------------------------------
# security Monte Carlo (contact-graph independent, §V-A)
# ----------------------------------------------------------------------


@lru_cache(maxsize=32)
def reference_node_weights(n: int) -> Tuple[float, ...]:
    """Per-node aggregate contact rates on the paper's reference graph.

    The security Monte Carlo is contact-graph independent, but the
    targeted and stake-weighted adversaries need a notion of how
    "important" each node is. This derives it the same way the delivery
    experiments would see it: the row sums of the rate matrix of the
    reference ``random_contact_graph`` for size ``n`` (seeded by ``n``,
    so the weights are a deterministic property of the network size).
    """
    from repro.contacts.random_graph import random_contact_graph

    graph = random_contact_graph(
        n, DEFAULT_CONFIG.mean_intercontact_range, rng=np.random.default_rng(n)
    )
    return tuple(float(v) for v in np.asarray(graph.rates).sum(axis=1))


def _resolve_compromise_model(
    compromise_model: "str | CompromiseModel", n: int
) -> CompromiseModel:
    """Coerce a registry name or instance into a model for ``n`` nodes.

    Named targeted/stake models get their weights from
    :func:`reference_node_weights`; instances are checked for a matching
    population size and rejected when they override only ``sample()`` or
    ``mask_from_keys()``, which the key-column scoring would silently
    bypass. The model's own ``rate`` is a default only — every sweep
    variant overrides it per grid point.
    """
    if isinstance(compromise_model, str):
        needs_weights = compromise_model in (
            TargetedCompromise.name,
            StakeWeightedCompromise.name,
        )
        return make_compromise_model(
            compromise_model,
            n,
            rate=0.0,
            weights=reference_node_weights(n) if needs_weights else None,
        )
    if not isinstance(compromise_model, CompromiseModel):
        raise TypeError(
            "compromise_model must be a registry name or a CompromiseModel, "
            f"got {type(compromise_model).__name__}"
        )
    model_type = type(compromise_model)

    def overrides(name):
        return getattr(model_type, name) is not getattr(CompromiseModel, name)

    if (overrides("sample") or overrides("mask_from_keys")) and not (
        overrides("selection_priority") or overrides("mask_rule")
    ):
        raise TypeError(
            f"{model_type.__name__} overrides only sample() or "
            "mask_from_keys(); the security Monte Carlo derives every "
            "compromised set from a key column through mask_rule(), so "
            "override selection_priority() or mask_rule() instead of "
            "mask_from_keys()"
        )
    if compromise_model.n != n:
        raise ValueError(
            f"compromise model covers n={compromise_model.n} nodes, "
            f"the Monte Carlo runs over n={n}"
        )
    return compromise_model


def security_sweep_montecarlo(
    n: int,
    group_size: int,
    variants: Sequence[SecuritySweepVariant],
    trials: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    compromise_model: "str | CompromiseModel" = "uniform",
    block: Optional[SecurityTrialBlock] = None,
) -> Tuple[float, ...]:
    """Fused Monte Carlo over a ``(c, K, L)`` security grid.

    Samples *one* :class:`~repro.adversary.kernel.SecurityTrialBlock` at
    the grid's widest point and scores every variant against it with
    :class:`~repro.adversary.kernel.SecurityBatchKernel` — the security
    counterpart of the delivery layer's fused sweeps: the block is drawn
    once instead of once per grid point, and between-variant comparisons
    share endpoints, routes, copy assignments, and compromise keys
    (common random numbers).

    Returns the flattened per-variant means
    ``(traceable₀, anonymity₀, traceable₁, anonymity₁, …)`` — a fixed-width
    tuple, so :func:`~repro.experiments.parallel.run_parallel_montecarlo`
    chunk-merges fused sweeps exactly like plain Monte Carlo runners.

    ``compromise_model`` selects the adversary: a registry name
    (``uniform``, ``bernoulli``, ``targeted``, ``stake``) or a
    :class:`~repro.adversary.compromise.CompromiseModel` instance.

    ``block`` supplies a pre-sampled (or zero-copy shared-memory attached)
    :class:`~repro.adversary.kernel.SecurityTrialBlock` instead of drawing
    one here — the parallel shared-block protocol slices one parent block
    across worker chunks. The block must cover the grid (matching ``n``,
    ``group_size``, ``overlapping``, ``trials``, and wide enough
    ``k_max`` / ``l_max``).
    """
    variants = tuple(variants)
    if not variants:
        raise ValueError("a security sweep needs at least one variant")
    check_positive_int(trials, "trials")
    for variant in variants:
        check_positive_int(variant.onion_routers, "onion_routers")
        check_positive_int(variant.copies, "copies")
        check_fraction(variant.compromise_rate, "compromise_rate")
    model = _resolve_compromise_model(compromise_model, n)
    k_max = max(v.onion_routers for v in variants)
    l_max = max(v.copies for v in variants)

    if block is None:
        block = sample_security_block(
            n,
            group_size,
            k_max=k_max,
            l_max=l_max,
            trials=trials,
            rng=ensure_rng(rng),
            overlapping=overlapping,
        )
    elif (
        block.n != n
        or block.group_size != group_size
        or block.overlapping != overlapping
        or block.trials != trials
        or block.k_max < k_max
        or block.l_max < l_max
    ):
        raise ValueError(
            f"pre-sampled block (n={block.n}, g={block.group_size}, "
            f"overlapping={block.overlapping}, trials={block.trials}, "
            f"k_max={block.k_max}, l_max={block.l_max}) does not cover "
            f"the sweep (n={n}, g={group_size}, "
            f"overlapping={overlapping}, trials={trials}, "
            f"k_max={k_max}, l_max={l_max})"
        )

    flat: List[float] = []
    for traceable, anonymity in SecurityBatchKernel(block, model).score(variants):
        flat.append(float(traceable.sum() / trials))
        flat.append(float(anonymity.sum() / trials))
    return tuple(flat)


def security_montecarlo(
    n: int,
    group_size: int,
    onion_routers: int,
    copies: int,
    compromise_rate: float,
    trials: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    compromise_model: "str | CompromiseModel" = "uniform",
    block: Optional[SecurityTrialBlock] = None,
) -> Tuple[float, float]:
    """Monte Carlo estimates of (traceable rate, path anonymity).

    Mirrors the paper's security simulations: random group membership,
    random route, random compromised set; the traceable rate scores the
    first copy's path with Eq. 1, the anonymity evaluates the entropy
    ratio at the adversary's observed exposure across all copies. A
    single-point wrapper over :func:`security_sweep_montecarlo`, so the
    ``compromise_model`` knob behaves identically here and in the fused
    figure sweeps.
    """
    results = security_sweep_montecarlo(
        n,
        group_size,
        (
            SecuritySweepVariant(
                label=f"K={onion_routers} L={copies} c={compromise_rate:g}",
                onion_routers=onion_routers,
                copies=copies,
                compromise_rate=compromise_rate,
            ),
        ),
        trials=trials,
        rng=rng,
        overlapping=overlapping,
        compromise_model=compromise_model,
        block=block,
    )
    return results[0], results[1]


# ----------------------------------------------------------------------
# trace-driven batches (§V-D / §V-E)
# ----------------------------------------------------------------------


def _first_half_contact_starts(trace: ContactTrace) -> Dict[int, List[float]]:
    """Per-node start times of contacts in the trace's first half.

    "A source node initiates a message transmission at any time after it
    has a contact with any node" — sessions are created at one of these
    starts so the deadline window fits inside the recording.
    """
    midpoint = trace.start + trace.duration / 2
    contacts_by_node: Dict[int, List[float]] = {}
    for record in trace.records:
        if record.start <= midpoint:
            contacts_by_node.setdefault(record.a, []).append(record.start)
            contacts_by_node.setdefault(record.b, []).append(record.start)
    return contacts_by_node


def _place_trace_sessions(
    engine: SimulationEngine,
    n: int,
    contacts_by_node: Dict[int, List[float]],
    directory: Optional[OnionGroupDirectory],
    overlapping: bool,
    variant: SweepVariant,
    deadline: float,
    sessions: int,
    generator: np.random.Generator,
) -> List[RouteOutcome]:
    """Register one grid point's trace-placed sessions; (route, outcome)s.

    Sparse traces degrade gracefully: when placement stalls (too few nodes
    ever have a first-half contact), the batch runs with however many
    sessions could be placed — logged as a warning — rather than
    discarding the partial work.
    """
    k, g = variant.onion_routers, variant.group_size
    pairs: List[RouteOutcome] = []
    attempts = 0
    while len(pairs) < sessions:
        attempts += 1
        if attempts > sessions * 50:
            logger.warning(
                "trace too sparse: placed %d of %d sessions after %d "
                "attempts; running the partial batch",
                len(pairs),
                sessions,
                attempts - 1,
            )
            break
        source, destination = sample_endpoints(n, generator)
        if source not in contacts_by_node:
            continue
        starts = contacts_by_node[source]
        created_at = float(starts[generator.integers(len(starts))])
        if overlapping:
            route = select_overlapping_route(n, source, destination, k, g, generator)
        else:
            try:
                route = directory.select_route(source, destination, k, rng=generator)
            except ValueError:
                route = select_overlapping_route(
                    n, source, destination, k, g, generator
                )
        message = Message(
            source=source,
            destination=destination,
            created_at=created_at,
            deadline=deadline,
        )
        session = _make_session(message, route, variant.copies, variant.spray_policy)
        engine.add_session(session)
        pairs.append((route, session.outcome()))
    return pairs


def run_trace_batch(
    trace: ContactTrace,
    group_size: int,
    onion_routers: int,
    copies: int,
    deadline: float,
    sessions: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    consume: str = "auto",
    kernel: bool = True,
    stream_window: Optional[float] = None,
    max_window_events: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[RouteOutcome]:
    """Simulate onion routing sessions over a replayed trace.

    Each session's creation time is the start of a uniformly chosen
    first-half contact involving its source (see
    :func:`_first_half_contact_starts`); callers should check
    ``len(result)`` against ``sessions`` when partial placement on a
    sparse trace matters. The batch is :func:`run_fused_trace_sweep` with
    one variant.

    ``kernel`` defaults to on — :class:`~repro.contacts.events.TraceReplayProcess`
    serves columnar windows, so eligible sessions are swept by the
    struct-of-arrays kernels directly over the replayed trace; see
    :func:`run_random_graph_batch`.
    """
    return run_fused_trace_sweep(
        trace, [SweepVariant("", group_size, onion_routers, copies)], deadline,
        sessions, rng, overlapping, consume=consume, kernel=kernel,
        stream_window=stream_window, max_window_events=max_window_events,
        backend=backend,
    )[0]


def run_fused_trace_sweep(
    trace: ContactTrace,
    variants: Sequence[SweepVariant],
    deadline: float,
    sessions_per_variant: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    consume: str = "auto",
    kernel: bool = True,
    stream_window: Optional[float] = None,
    max_window_events: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[List[RouteOutcome]]:
    """Simulate every grid point of a trace sweep over one replay.

    The trace analogue of :func:`run_fused_graph_sweep`: all variants'
    sessions — e.g. fig. 17's ``L`` grid — run in one engine pass over a
    single :class:`~repro.contacts.events.TraceReplayProcess`, giving one
    kernel invocation per kernel class for the whole grid and common
    random numbers across the grid points. With a single variant the
    result is byte-identical to :func:`run_trace_batch` on the same seed.

    Returns one outcome list per variant, parallel to ``variants``.
    """
    if not variants:
        raise ValueError("run_fused_trace_sweep needs at least one variant")
    generator = ensure_rng(rng)
    trace = trace.normalized()
    n = trace.n
    if n < 3:
        raise ValueError("trace too small for onion routing")
    contacts_by_node = _first_half_contact_starts(trace)
    engine = SimulationEngine(
        TraceReplayProcess(trace),
        horizon=trace.end + 1.0,
        consume=consume,
        stream_window=stream_window,
        max_window_events=max_window_events,
        kernel=kernel,
        backend=backend,
    )
    results: List[List[RouteOutcome]] = []
    for variant in variants:
        directory = (
            None
            if overlapping
            else OnionGroupDirectory(n, variant.group_size, rng=generator)
        )
        results.append(
            _place_trace_sessions(
                engine, n, contacts_by_node, directory, overlapping, variant,
                deadline, sessions_per_variant, generator,
            )
        )
    engine.run()
    return results


def trace_contact_graph(
    trace: ContactTrace, observation_span: Optional[float] = None
) -> ContactGraph:
    """Rate-estimated contact graph for the analytical models.

    ``observation_span`` lets callers "train" the estimate on active hours
    only (the paper notes model accuracy improves with trained traces).
    """
    return estimate_rates_from_trace(trace.normalized(), observation_span)


def estimate_active_span(trace: ContactTrace) -> float:
    """Total span of hours that saw at least one contact.

    Traces recorded over several days have long idle nights; estimating
    contact rates over the *active* hours only ("training" the trace, §V-A)
    makes the exponential model describe the in-business-hours dynamics the
    delivery experiments actually exercise.
    """
    active_hours = {int(record.start // 3600) for record in trace.records}
    return max(len(active_hours), 1) * 3600.0
