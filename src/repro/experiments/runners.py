"""Shared experiment machinery: batched simulations and model curves.

The paper's methodology (§V-A): generate a contact graph, pick random
source/destination pairs plus onion routes, simulate the protocol, and
compare the averaged simulation metrics with the numerical models evaluated
on the same realisations. Batching many sessions over one event stream
keeps the discrete-event cost amortised.
"""

from __future__ import annotations

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
from repro.adversary.observer import observed_path_anonymity
from repro.adversary.tracer import PathTracer
from repro.analysis.delivery import onion_path_rates
from repro.analysis.hypoexponential import Hypoexponential
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


def _resolve_consume(consume: str, kernel: Optional[bool]) -> str:
    """Fold the ``kernel`` knob into the engine's ``consume`` mode.

    ``kernel=True`` forces ``consume="kernel"``; ``kernel=None`` (the
    default) upgrades ``consume="auto"`` to the kernel path — eligible
    sessions are swept by the struct-of-arrays kernels, everything else
    falls back transparently, and outcomes are byte-identical either way —
    while leaving an explicitly requested mode (``"columnar"``,
    ``"iterator"``) untouched; ``kernel=False`` opts out entirely.
    """
    if kernel:
        return "kernel"
    if kernel is None and consume == "auto":
        return "kernel"
    return consume


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


def run_random_graph_batch(
    graph: ContactGraph,
    group_size: int,
    onion_routers: int,
    copies: int,
    horizon: float,
    sessions: int,
    rng: RandomSource = None,
    spray_policy: SprayPolicy = SprayPolicy.SOURCE,
    dispatch: str = "indexed",
    events=None,
    consume: str = "auto",
    kernel: Optional[bool] = None,
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
    ``dispatch`` selects the engine strategy; ``indexed`` and ``broadcast``
    produce byte-identical outcomes, as do the ``consume`` modes of the
    indexed engine.

    ``events`` overrides the sampled contact process with a pre-generated
    source (an :class:`~repro.contacts.events.EventBlock` or any event
    source) — the shared-stream parallel protocol uses this so worker
    chunks replay one stream instead of re-sampling it. Note the override
    skips the process's block pre-draws, so the per-session endpoint/route
    draws sit at a different offset of the master stream than with
    ``events=None``.

    ``kernel`` defaults to on (see :func:`_resolve_consume`): eligible
    fault-free single-copy and multi-copy sessions are swept by the
    struct-of-arrays kernels and everything else falls back to the
    columnar object loop, with byte-identical outcomes. Pass
    ``kernel=False`` (or an explicit ``consume``) to opt out.

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
    consume = _resolve_consume(consume, kernel)
    generator = ensure_rng(rng)
    directory = OnionGroupDirectory(graph.n, group_size, rng=generator)
    if events is None:
        source = ExponentialContactProcess(graph, rng=generator)
    else:
        source = as_event_source(events)
    engine = SimulationEngine(
        source,
        horizon=horizon,
        dispatch=dispatch,
        consume=consume,
        stream_window=stream_window,
        max_window_events=max_window_events,
        stream_kernels=kernel is not False,
        backend=backend,
    )
    message_deadline = horizon if deadline is None else deadline
    pairs: List[RouteOutcome] = []
    live: List[ProtocolSession] = []
    for _ in range(sessions):
        source, destination = sample_endpoints(graph.n, generator)
        route = directory.select_route(
            source, destination, onion_routers, rng=generator
        )
        message = Message(
            source=source,
            destination=destination,
            created_at=0.0,
            deadline=message_deadline,
        )
        session = _make_session(message, route, copies, spray_policy)
        engine.add_session(session)
        live.append(session)
        pairs.append((route, session.outcome()))
    engine.run()
    return pairs


def run_fused_graph_sweep(
    graph: ContactGraph,
    variants: Sequence[SweepVariant],
    horizon: float,
    sessions_per_variant: int,
    rng: RandomSource = None,
    dispatch: str = "indexed",
    events=None,
    consume: str = "auto",
    kernel: Optional[bool] = None,
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

    Returns one outcome list per variant, parallel to ``variants``.
    """
    if not variants:
        raise ValueError("run_fused_graph_sweep needs at least one variant")
    consume = _resolve_consume(consume, kernel)
    generator = ensure_rng(rng)
    results: List[List[RouteOutcome]] = []
    engine: Optional[SimulationEngine] = None
    for variant in variants:
        directory = OnionGroupDirectory(
            graph.n, variant.group_size, rng=generator
        )
        if engine is None:
            # The contact process is created after the first directory so a
            # single-variant sweep replays run_random_graph_batch's exact
            # draw order (directory, then process pre-draws, then routes).
            if events is None:
                source = ExponentialContactProcess(graph, rng=generator)
            else:
                source = as_event_source(events)
            engine = SimulationEngine(
                source,
                horizon=horizon,
                dispatch=dispatch,
                consume=consume,
                stream_window=stream_window,
                max_window_events=max_window_events,
                stream_kernels=kernel is not False,
                backend=backend,
            )
        pairs: List[RouteOutcome] = []
        for _ in range(sessions_per_variant):
            src, dst = sample_endpoints(graph.n, generator)
            route = directory.select_route(
                src, dst, variant.onion_routers, rng=generator
            )
            message = Message(
                source=src, destination=dst, created_at=0.0, deadline=horizon
            )
            session = _make_session(
                message, route, variant.copies, variant.spray_policy
            )
            engine.add_session(session)
            pairs.append((route, session.outcome()))
        results.append(pairs)
    engine.run()
    return results


def run_faulty_graph_batch(
    graph: ContactGraph,
    group_size: int,
    onion_routers: int,
    copies: int,
    horizon: float,
    sessions: int,
    rng: RandomSource = None,
    spray_policy: SprayPolicy = SprayPolicy.SOURCE,
    *,
    churn: Optional[NodeChurnSchedule] = None,
    failstop: Optional[FailStopSchedule] = None,
    relays=None,
    recovery: Optional[RecoveryPolicy] = None,
    dispatch: str = "indexed",
    events=None,
    kernel: Optional[bool] = None,
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
    chunks pass the parent's block here); the fault filters still wrap it,
    and since they are per-event iterators the engine consumes the filtered
    stream through the legacy iterator path.

    ``kernel`` (default on) requests ``consume="kernel"``. It only bites
    when no fault filter wraps the stream (iterator filters force the
    legacy loop) and no :class:`~repro.faults.recovery.FaultPlan` is
    attached — i.e. exactly when this call degenerates to the fault-free
    batch — so it is safe to leave on in sweeps that include a fault-free
    baseline.
    """
    generator = ensure_rng(rng)
    directory = OnionGroupDirectory(graph.n, group_size, rng=generator)
    if events is None:
        events = ExponentialContactProcess(graph, rng=generator)
    else:
        events = as_event_source(events)
    if failstop is not None:
        events = FailStopContactProcess(events, failstop)
    if churn is not None:
        events = NodeChurnProcess(events, churn)
    plan: Optional[FaultPlan] = None
    if failstop is not None or relays is not None:
        plan = FaultPlan(failstop=failstop, relays=relays)
    engine = SimulationEngine(
        events,
        horizon=horizon,
        dispatch=dispatch,
        consume=_resolve_consume("auto", kernel),
        backend=backend,
    )
    pairs: List[RouteOutcome] = []
    for _ in range(sessions):
        source, destination = sample_endpoints(graph.n, generator)
        route = directory.select_route(
            source, destination, onion_routers, rng=generator
        )
        message = Message(
            source=source, destination=destination, created_at=0.0, deadline=horizon
        )
        session = _make_session(
            message, route, copies, spray_policy, faults=plan, recovery=recovery
        )
        engine.add_session(session)
        pairs.append((route, session.outcome()))
    engine.run()
    return pairs


@lru_cache(maxsize=4096)
def _hypoexponential_for(rates: Tuple[float, ...]) -> Hypoexponential:
    """Memoized Hypoexponential keyed by the (boosted) rate tuple.

    Delivery-curve sweeps evaluate the same route realisation at many
    deadlines and copy counts; the instance caches its Eq. 5 coefficients
    and uniformized transition matrix, so reusing it skips both rebuilds.
    """
    return Hypoexponential(rates)


def analysis_delivery_curve(
    graph: ContactGraph,
    routes: Sequence[OnionRoute],
    deadlines: Sequence[float],
    copies: int = 1,
) -> List[Tuple[float, float]]:
    """Average the Eq. 6/7 model over concrete route realisations.

    Routes containing an unreachable hop (zero aggregate rate — possible on
    sparse trace-estimated graphs) contribute zero delivery probability,
    matching what the protocol would experience.
    """
    deadline_arr = np.asarray(list(deadlines), dtype=float)
    total = np.zeros_like(deadline_arr)
    for route in routes:
        try:
            rates = onion_path_rates(
                graph, route.source, route.groups, route.destination
            )
        except ValueError:
            continue  # unreachable hop: contributes zeros
        boosted = tuple(rate * copies for rate in rates)
        total += np.asarray(_hypoexponential_for(boosted).cdf(deadline_arr))
    mean = total / max(len(routes), 1)
    return [(float(t), float(p)) for t, p in zip(deadline_arr, mean)]


def simulated_delivery_curve(
    outcomes: Sequence[DeliveryOutcome], deadlines: Sequence[float]
) -> List[Tuple[float, float]]:
    """Delivery rate vs deadline measured from simulated outcomes."""
    return delivery_rate_curve(outcomes, deadlines)


# ----------------------------------------------------------------------
# security Monte Carlo (contact-graph independent, §V-A)
# ----------------------------------------------------------------------


def sample_copy_paths(
    route: OnionRoute, copies: int, rng: np.random.Generator
) -> List[List[int]]:
    """Sample the member each copy traverses in every onion group.

    Copies hold *distinct* members of a group while enough members exist
    (the protocol's ``Forward()`` predicate never places two live copies on
    one node); beyond that the assignment wraps around.
    """
    paths = [[route.source] for _ in range(copies)]
    for members in route.groups:
        order = rng.permutation(len(members))
        for copy_index in range(copies):
            member = members[order[copy_index % len(members)]]
            paths[copy_index].append(int(member))
    return paths


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
    population size. The model's own ``rate`` is a default only — every
    sweep variant overrides it per grid point.
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
    if compromise_model.n != n:
        raise ValueError(
            f"compromise model covers n={compromise_model.n} nodes, "
            f"the Monte Carlo runs over n={n}"
        )
    return compromise_model


def _mask_row_nodes(mask_row: np.ndarray) -> set:
    """One trial's compromised mask row as a set of node ids."""
    return {int(v) for v in np.flatnonzero(mask_row)}


def _scalar_variant_scores(
    block: SecurityTrialBlock,
    model: CompromiseModel,
    variant: SecuritySweepVariant,
) -> Tuple[np.ndarray, np.ndarray]:
    """Score one variant row-by-row through the per-trial objects.

    The scalar counterpart of
    :meth:`~repro.adversary.kernel.SecurityBatchKernel.score_variant`: the
    same block, the same compromise mask, but each trial walked through
    :class:`~repro.adversary.tracer.PathTracer` and
    :func:`~repro.adversary.observer.observed_path_anonymity` — the
    reference semantics the kernel must reproduce bit-for-bit.
    """
    eta = variant.onion_routers + 1
    mask = model.mask_from_keys(
        block.compromise_keys, rate=variant.compromise_rate
    )
    traceable = np.empty(block.trials)
    anonymity = np.empty(block.trials)
    for trial in range(block.trials):
        compromised = _mask_row_nodes(mask[trial])
        paths = block.copy_paths(trial, variant.onion_routers, variant.copies)
        tracer = PathTracer(compromised)
        traceable[trial] = tracer.traceable_rate(paths[0])
        anonymity[trial] = observed_path_anonymity(
            paths, compromised, n=block.n, eta=eta, group_size=block.group_size
        )
    return traceable, anonymity


def _legacy_security_montecarlo(
    n: int,
    group_size: int,
    variants: Sequence[SecuritySweepVariant],
    model: CompromiseModel,
    trials: int,
    generator: np.random.Generator,
    overlapping: bool,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Fully per-trial Monte Carlo for batch-incapable compromise models.

    A model that only implements ``sample()`` cannot feed the shared key
    column, so each variant runs the original draw-per-trial loop. The
    model's own rate is the only one it can realise — mismatched variant
    rates fail loudly instead of silently sampling the wrong adversary.
    """
    for variant in variants:
        if variant.compromise_rate != model.rate:
            raise ValueError(
                f"compromise model {type(model).__name__} is not "
                f"batch-capable and is pinned to rate={model.rate}; sweep "
                f"variant {variant.label!r} asks for "
                f"rate={variant.compromise_rate}"
            )
    scored: List[Tuple[np.ndarray, np.ndarray]] = []
    for variant in variants:
        eta = variant.onion_routers + 1
        directory = (
            None
            if overlapping
            else OnionGroupDirectory(n, group_size, rng=generator)
        )
        traceable = np.empty(trials)
        anonymity = np.empty(trials)
        for trial in range(trials):
            source, destination = sample_endpoints(n, generator)
            if overlapping:
                route = select_overlapping_route(
                    n,
                    source,
                    destination,
                    variant.onion_routers,
                    group_size,
                    generator,
                )
            else:
                route = directory.select_route(
                    source, destination, variant.onion_routers, rng=generator
                )
            compromised = model.sample(rng=generator)
            paths = sample_copy_paths(route, variant.copies, generator)
            tracer = PathTracer(compromised)
            traceable[trial] = tracer.traceable_rate(paths[0])
            anonymity[trial] = observed_path_anonymity(
                paths, compromised, n=n, eta=eta, group_size=group_size
            )
        scored.append((traceable, anonymity))
    return scored


def security_sweep_montecarlo(
    n: int,
    group_size: int,
    variants: Sequence[SecuritySweepVariant],
    trials: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    kernel: Optional[bool] = None,
    compromise_model: "str | CompromiseModel" = "uniform",
    block: Optional[SecurityTrialBlock] = None,
    backend: Optional[str] = None,
) -> Tuple[float, ...]:
    """Fused Monte Carlo over a ``(c, K, L)`` security grid.

    Samples *one* :class:`~repro.adversary.kernel.SecurityTrialBlock` at
    the grid's widest point and scores every variant against it — the
    security counterpart of the delivery layer's fused sweeps: the block
    is drawn once instead of once per grid point, and between-variant
    comparisons share endpoints, routes, copy assignments, and compromise
    keys (common random numbers).

    Returns the flattened per-variant means
    ``(traceable₀, anonymity₀, traceable₁, anonymity₁, …)`` — a fixed-width
    tuple, so :func:`~repro.experiments.parallel.run_parallel_montecarlo`
    chunk-merges fused sweeps exactly like plain Monte Carlo runners.

    ``kernel`` follows the delivery runners' convention: ``None`` (the
    default) and ``True`` score through
    :class:`~repro.adversary.kernel.SecurityBatchKernel`; ``False`` walks
    the same block through the per-trial scalar objects. Both paths
    consume identical draws, so the estimates are equal to the last bit.
    ``compromise_model`` selects the adversary: a registry name
    (``uniform``, ``bernoulli``, ``targeted``, ``stake``) or a
    :class:`~repro.adversary.compromise.CompromiseModel` instance; a
    batch-incapable instance transparently degrades to the original
    draw-per-trial loop.

    ``block`` supplies a pre-sampled (or zero-copy shared-memory attached)
    :class:`~repro.adversary.kernel.SecurityTrialBlock` instead of drawing
    one here — the parallel shared-block protocol slices one parent block
    across worker chunks. The block must cover the grid (matching ``n``,
    ``group_size``, ``overlapping``, ``trials``, and wide enough
    ``k_max`` / ``l_max``) and requires a batch-capable compromise model.
    """
    variants = tuple(variants)
    if not variants:
        raise ValueError("a security sweep needs at least one variant")
    check_positive_int(trials, "trials")
    for variant in variants:
        check_positive_int(variant.onion_routers, "onion_routers")
        check_positive_int(variant.copies, "copies")
        check_fraction(variant.compromise_rate, "compromise_rate")
    generator = ensure_rng(rng)
    model = _resolve_compromise_model(compromise_model, n)

    if block is not None:
        if not getattr(model, "batch_capable", False):
            raise ValueError(
                f"a pre-sampled block requires a batch-capable compromise "
                f"model; {type(model).__name__} only implements sample()"
            )
        k_max = max(v.onion_routers for v in variants)
        l_max = max(v.copies for v in variants)
        if (
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

    if not getattr(model, "batch_capable", False):
        scored = _legacy_security_montecarlo(
            n, group_size, variants, model, trials, generator, overlapping
        )
    else:
        if block is None:
            block = sample_security_block(
                n,
                group_size,
                k_max=max(v.onion_routers for v in variants),
                l_max=max(v.copies for v in variants),
                trials=trials,
                rng=generator,
                overlapping=overlapping,
            )
        if kernel is False:
            scored = [
                _scalar_variant_scores(block, model, variant)
                for variant in variants
            ]
        else:
            scored = SecurityBatchKernel(block, model, backend=backend).score(
                variants
            )

    flat: List[float] = []
    for traceable, anonymity in scored:
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
    kernel: Optional[bool] = None,
    compromise_model: "str | CompromiseModel" = "uniform",
    block: Optional[SecurityTrialBlock] = None,
    backend: Optional[str] = None,
) -> Tuple[float, float]:
    """Monte Carlo estimates of (traceable rate, path anonymity).

    Mirrors the paper's security simulations: random group membership,
    random route, random compromised set; the traceable rate scores the
    first copy's path with Eq. 1, the anonymity evaluates the entropy
    ratio at the adversary's observed exposure across all copies. A
    single-point wrapper over :func:`security_sweep_montecarlo`, so the
    ``kernel`` and ``compromise_model`` knobs behave identically here and
    in the fused figure sweeps.
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
        kernel=kernel,
        compromise_model=compromise_model,
        block=block,
        backend=backend,
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
    group_size: int,
    onion_routers: int,
    copies: int,
    spray_policy: SprayPolicy,
    deadline: float,
    sessions: int,
    generator: np.random.Generator,
) -> List[RouteOutcome]:
    """Register ``sessions`` trace-placed sessions; returns (route, outcome)s.

    Sparse traces degrade gracefully: when placement stalls (too few nodes
    ever have a first-half contact), the batch runs with however many
    sessions could be placed — logged as a warning — rather than
    discarding the partial work.
    """
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
            route = select_overlapping_route(
                n, source, destination, onion_routers, group_size, generator
            )
        else:
            try:
                route = directory.select_route(
                    source, destination, onion_routers, rng=generator
                )
            except ValueError:
                route = select_overlapping_route(
                    n, source, destination, onion_routers, group_size, generator
                )
        message = Message(
            source=source,
            destination=destination,
            created_at=created_at,
            deadline=deadline,
        )
        session = _make_session(message, route, copies, spray_policy)
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
    dispatch: str = "indexed",
    consume: str = "auto",
    kernel: Optional[bool] = None,
    stream_window: Optional[float] = None,
    max_window_events: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[RouteOutcome]:
    """Simulate onion routing sessions over a replayed trace.

    Each session's creation time is the start of a uniformly chosen
    first-half contact involving its source (see
    :func:`_first_half_contact_starts`); callers should check
    ``len(result)`` against ``sessions`` when partial placement on a
    sparse trace matters.

    ``kernel`` defaults to on — :class:`~repro.contacts.events.TraceReplayProcess`
    serves columnar windows, so eligible sessions are swept by the
    struct-of-arrays kernels directly over the replayed trace; see
    :func:`run_random_graph_batch`.
    """
    consume = _resolve_consume(consume, kernel)
    generator = ensure_rng(rng)
    trace = trace.normalized()
    n = trace.n
    if n < 3:
        raise ValueError("trace too small for onion routing")
    directory = (
        None if overlapping else OnionGroupDirectory(n, group_size, rng=generator)
    )
    contacts_by_node = _first_half_contact_starts(trace)
    engine = SimulationEngine(
        TraceReplayProcess(trace),
        horizon=trace.end + 1.0,
        dispatch=dispatch,
        consume=consume,
        stream_window=stream_window,
        max_window_events=max_window_events,
        stream_kernels=kernel is not False,
        backend=backend,
    )
    pairs = _place_trace_sessions(
        engine,
        n,
        contacts_by_node,
        directory,
        overlapping,
        group_size,
        onion_routers,
        copies,
        SprayPolicy.SOURCE,
        deadline,
        sessions,
        generator,
    )
    engine.run()
    return pairs


def run_fused_trace_sweep(
    trace: ContactTrace,
    variants: Sequence[SweepVariant],
    deadline: float,
    sessions_per_variant: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    dispatch: str = "indexed",
    consume: str = "auto",
    kernel: Optional[bool] = None,
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
    consume = _resolve_consume(consume, kernel)
    generator = ensure_rng(rng)
    trace = trace.normalized()
    n = trace.n
    if n < 3:
        raise ValueError("trace too small for onion routing")
    contacts_by_node = _first_half_contact_starts(trace)
    engine = SimulationEngine(
        TraceReplayProcess(trace),
        horizon=trace.end + 1.0,
        dispatch=dispatch,
        consume=consume,
        stream_window=stream_window,
        max_window_events=max_window_events,
        stream_kernels=kernel is not False,
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
                engine,
                n,
                contacts_by_node,
                directory,
                overlapping,
                variant.group_size,
                variant.onion_routers,
                variant.copies,
                variant.spray_policy,
                deadline,
                sessions_per_variant,
                generator,
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
