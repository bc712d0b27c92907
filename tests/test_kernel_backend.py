"""The kernel-backend registry and its byte-identity contract.

Backends (:mod:`repro.sim.backend`) promise three things:

* **Selection** — resolved by *name* (argument → ``REPRO_KERNEL_BACKEND``
  → numpy), unknown names fail loudly, known-but-unavailable backends
  degrade to numpy with a fallback notification (surfaced by the engine
  as a ``KernelFallback`` resilience event).
* **Equivalence** — every backend computes identical results from the
  same columns: single-copy sweeps, multi-copy sweeps, fused sweeps and
  streamed windows are byte-identical across numpy and every compiled
  backend available in the environment, and the security Monte Carlo,
  which scores on numpy alone, is unchanged by the selection.
* **Resilience** — a compiled op that raises mid-run degrades to numpy
  without changing outcomes, recording the degradation on the kernel
  (and, through the engine, as a resilience event). A numpy op that
  raises is a real error: it propagates, with nothing recorded.

The compiled-backend cases run the ``cc`` backend wherever a C compiler
is on PATH; the fallback cases hide the compiler so they run everywhere.
"""

import numpy as np
import pytest

from repro.contacts.events import (
    ColumnarEventSource,
    EventBlock,
    ExponentialContactProcess,
)
from repro.contacts.random_graph import random_contact_graph
from repro.core.multi_copy import MultiCopySession
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.single_copy import SingleCopySession
from repro.experiments.runners import (
    SweepVariant,
    run_fused_graph_sweep,
    run_random_graph_batch,
    sample_endpoints,
    security_montecarlo,
)
from repro.sim.backend import (
    BACKENDS,
    ENV_VAR,
    CcBackend,
    KernelBackend,
    NumpyBackend,
    _reset_backend_caches,
    available_backends,
    check_backend_name,
    resolve_backend,
)
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import BatchKernel, MultiCopyBatchKernel, _EventIndex
from repro.sim.message import Message
from repro.utils.resilience import KERNEL_FALLBACK

COMPILED = ["cc"] if CcBackend.available() else []


def outcome_fields(outcomes):
    return [
        (
            o.delivered,
            o.delivery_time,
            o.transmissions,
            o.expired_copies,
            o.lost_copies,
            o.created_at,
            o.status,
            tuple(tuple(p) for p in o.paths),
            tuple(o.transfers),
        )
        for o in outcomes
    ]


def single_copy_workload(n=40, group_size=4, onion_routers=3, sessions=60,
                         horizon=360.0, seed=7):
    """(session factory, block) over one seeded random-graph window."""
    graph = random_contact_graph(n, (10.0, 120.0), rng=np.random.default_rng(seed))
    generator = np.random.default_rng(seed)
    directory = OnionGroupDirectory(n, group_size, rng=generator)
    process = ExponentialContactProcess(graph, rng=generator)
    specs = []
    for _ in range(sessions):
        src, dst = sample_endpoints(n, generator)
        route = directory.select_route(src, dst, onion_routers, rng=generator)
        specs.append((src, dst, route))
    block = process.events_until_columnar(horizon)

    def fresh():
        return [
            SingleCopySession(Message(src, dst, 0.0, horizon), route)
            for src, dst, route in specs
        ]

    return fresh, block


# ----------------------------------------------------------------------
# registry and selection
# ----------------------------------------------------------------------


class TestRegistry:
    def test_registry_is_numpy_and_cc(self):
        assert tuple(BACKENDS) == ("numpy", "cc")

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert NumpyBackend.available()
        assert NumpyBackend.unavailable_reason() is None

    def test_check_backend_name(self):
        check_backend_name(None)
        check_backend_name("numpy")
        check_backend_name(resolve_backend("numpy"))
        with pytest.raises(ValueError, match="unknown kernel backend"):
            check_backend_name("fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            check_backend_name(42)

    def test_resolve_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")

    def test_resolve_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend(None).name == "numpy"

    def test_resolve_passes_instances_through(self):
        backend = resolve_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_resolved_backends_are_singletons(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_warmup_is_safe_on_every_available_backend(self):
        for name in available_backends():
            resolve_backend(name).warmup()


class TestUnavailableFallback:
    @pytest.fixture(autouse=True)
    def no_compiler(self, monkeypatch):
        # Dropping the cached library and hiding the compiler makes cc
        # unavailable even where one is installed, so this path is
        # exercised in every environment.
        _reset_backend_caches()
        monkeypatch.setattr(CcBackend, "_compiler", classmethod(lambda cls: None))
        yield
        _reset_backend_caches()

    def test_missing_compiler_degrades_to_numpy_with_callback(self):
        assert not CcBackend.available()
        assert "cc" not in available_backends()
        assert "compiler" in CcBackend.unavailable_reason()

        seen = []
        backend = resolve_backend(
            "cc", on_fallback=lambda name, error: seen.append((name, error))
        )
        assert backend.name == "numpy"
        assert [name for name, _ in seen] == ["cc"]

    def test_missing_compiler_without_callback_logs_and_degrades(self, caplog):
        with caplog.at_level("WARNING", logger="repro.sim.backend"):
            backend = resolve_backend("cc")
        assert backend.name == "numpy"
        assert any("degrading to numpy" in r.message for r in caplog.records)

    def test_engine_records_kernel_fallback_event(self):
        fresh, block = single_copy_workload(sessions=20)

        def run_engine(backend):
            engine = SimulationEngine(
                ColumnarEventSource(block),
                horizon=360.0,
                kernel=True,
                backend=backend,
            )
            batch = fresh()
            for session in batch:
                engine.add_session(session)
            engine.run()
            return engine, [s.outcome() for s in batch]

        degraded_engine, degraded = run_engine("cc")
        plain_engine, plain = run_engine(None)

        assert outcome_fields(degraded) == outcome_fields(plain)
        events = [
            e for e in degraded_engine.fallback_events if e.kind == KERNEL_FALLBACK
        ]
        assert events and "backend=cc" in events[0].where
        assert plain_engine.fallback_events == ()


# ----------------------------------------------------------------------
# byte identity across backends
# ----------------------------------------------------------------------


@pytest.mark.skipif(not COMPILED, reason="no compiled backend available")
@pytest.mark.parametrize("backend", COMPILED)
class TestCompiledIdentity:
    def test_single_copy_sweep_identical(self, backend):
        fresh, block = single_copy_workload()
        results = {}
        for name in ("numpy", backend):
            batch = fresh()
            kernel = BatchKernel(batch, backend=name)
            dispatched = kernel.run(block)
            results[name] = (
                dispatched,
                kernel.pending,
                outcome_fields(s.outcome() for s in batch),
                [(s.holder, s.next_hop, s.state_version, s.done) for s in batch],
            )
        assert results["numpy"] == results[backend]

    def test_single_copy_streamed_windows_identical(self, backend):
        fresh, block = single_copy_workload(horizon=480.0, seed=11)
        batch_oneshot = fresh()
        oneshot = BatchKernel(batch_oneshot, backend=backend)
        oneshot.run(block)

        batch_stream = fresh()
        streamed = BatchKernel(batch_stream, backend=backend)
        cut = len(block) // 3
        windows = (
            EventBlock(block.times[:cut], block.a[:cut], block.b[:cut]),
            EventBlock(block.times[cut:], block.a[cut:], block.b[cut:]),
        )
        for window in windows:
            streamed.run(window)
        assert outcome_fields(s.outcome() for s in batch_stream) == outcome_fields(
            s.outcome() for s in batch_oneshot
        )
        assert streamed.dispatches == oneshot.dispatches
        assert streamed.pending == oneshot.pending

    def test_multi_copy_sweep_identical(self, backend):
        graph = random_contact_graph(30, (10.0, 120.0), rng=np.random.default_rng(5))
        runs = {}
        for name in ("numpy", backend):
            pairs = run_random_graph_batch(
                graph,
                4,
                2,
                copies=3,
                horizon=360.0,
                sessions=40,
                rng=np.random.default_rng(5),
                kernel=True,
                backend=name,
            )
            runs[name] = outcome_fields(outcome for _, outcome in pairs)
        assert runs["numpy"] == runs[backend]

    def test_fused_sweep_identical(self, backend):
        graph = random_contact_graph(30, (10.0, 120.0), rng=np.random.default_rng(3))
        variants = [
            SweepVariant(label="g=2", group_size=2, onion_routers=2, copies=1),
            SweepVariant(label="L=2", group_size=3, onion_routers=2, copies=2),
        ]
        runs = {}
        for name in ("numpy", backend):
            sweep = run_fused_graph_sweep(
                graph,
                variants,
                horizon=360.0,
                sessions_per_variant=25,
                rng=np.random.default_rng(3),
                backend=name,
            )
            runs[name] = [
                outcome_fields(outcome for _, outcome in batch) for batch in sweep
            ]
        assert runs["numpy"] == runs[backend]

    def test_security_montecarlo_identical(self, monkeypatch, backend):
        # The selection reaches the delivery kernels only: the security
        # Monte Carlo scores on numpy whichever backend is selected.
        runs = {}
        for name in ("numpy", backend):
            monkeypatch.setenv(ENV_VAR, name)
            runs[name] = security_montecarlo(
                40,
                4,
                3,
                2,
                compromise_rate=0.2,
                trials=300,
                rng=np.random.default_rng(17),
            )
        assert runs["numpy"] == runs[backend]


# ----------------------------------------------------------------------
# the single-copy trajectory op, numpy vs cc vs a scalar walk
# ----------------------------------------------------------------------


TRAJECTORY_SEEDS = [0, 1, 2]


def trajectory_problem(seed, n_nodes=10, n_events=400, sessions=60, max_hops=5,
                       max_group=3):
    """A seeded random ``single_trajectories`` argument tuple.

    Sessions start at a random hop of a random-depth route with a random
    cursor; a third have no deadline inside the window, the rest expire
    up to 150 events after their cursor, so the batch mixes deliveries,
    mid-route expiries and sessions left pending at the window edge.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_events)
    b = (a + rng.integers(1, n_nodes, n_events)) % n_nodes
    index = _EventIndex(
        EventBlock(np.arange(n_events, dtype=float), a, b), min_nodes=n_nodes
    )
    hops = rng.integers(1, max_hops + 1, sessions)
    base = np.concatenate(([0], np.cumsum(hops)[:-1]))
    sizes = rng.integers(1, max_group + 1, int(hops.sum()))
    stops = np.cumsum(sizes)
    starts = stops - sizes
    targets = rng.integers(0, n_nodes, int(stops[-1]))
    cursor = rng.integers(0, n_events, sessions)
    expiry = np.where(
        rng.random(sessions) < 1 / 3,
        n_events,
        np.minimum(cursor + rng.integers(0, 150, sessions), n_events),
    )
    act = np.flatnonzero(rng.random(sessions) < 0.8)
    return (
        index.sorted_comp, index.stride, index.n_nodes, index.n_events,
        starts, stops, targets, index.events_a, index.events_b,
        act,
        rng.integers(0, n_nodes, sessions),  # holder
        base + rng.integers(0, hops),  # hop_slot
        base + hops - 1,  # last_slot
        cursor,
        expiry,
    )


def scalar_trajectories(problem):
    """The race walked one session and one hop at a time, by linear scan.

    Returns one ``(trajectory, done)`` pair per active session.
    """
    (_, _, _, n_events, starts, stops, targets, ev_a, ev_b,
     act, holder, hop_slot, last_slot, cursor, expiry) = problem
    walks = []
    for s in act.tolist():
        h, slot, cur = int(holder[s]), int(hop_slot[s]), int(cursor[s])
        walk = []
        while True:
            best = n_events
            for t in targets[starts[slot]:stops[slot]].tolist():
                meets = ((ev_a == h) & (ev_b == t)) | ((ev_a == t) & (ev_b == h))
                hits = np.flatnonzero(meets[cur:])
                if hits.size:
                    best = min(best, cur + int(hits[0]))
            fire = min(best, int(expiry[s]))
            if fire >= n_events:
                walks.append((walk, False))
                break
            walk.append(fire)
            if best >= expiry[s] or slot == last_slot[s]:
                walks.append((walk, True))
                break
            h = int(ev_a[fire] + ev_b[fire]) - h
            slot += 1
            cur = fire + 1
    return walks


def op_walks(backend, problem):
    traj, lens, dones = resolve_backend(backend).single_trajectories(*problem)
    assert traj.shape[0] == lens.shape[0] == dones.shape[0] == len(problem[9])
    return [
        (traj[i, : lens[i]].tolist(), bool(dones[i])) for i in range(len(lens))
    ]


class TestSingleTrajectoriesOp:
    @pytest.mark.parametrize("seed", TRAJECTORY_SEEDS)
    def test_numpy_matches_scalar_walk(self, seed):
        problem = trajectory_problem(seed)
        walks = scalar_trajectories(problem)
        assert op_walks("numpy", problem) == walks

        # The problem covers every way a trajectory ends.
        act, hop_slot, last_slot, expiry = (
            problem[9], problem[11], problem[12], problem[14]
        )
        ends = set()
        for s, (walk, done) in zip(act.tolist(), walks):
            if not done:
                ends.add("pending")
            elif walk[-1] == expiry[s]:
                ends.add("expired")
            elif len(walk) == last_slot[s] - hop_slot[s] + 1:
                ends.add("delivered")
        assert ends == {"pending", "expired", "delivered"}
        assert any(
            walk and walk[-1] == expiry[s] and len(walk) > 1
            for s, (walk, _) in zip(act.tolist(), walks)
        ), "no session expired mid-route"

    @pytest.mark.skipif(not COMPILED, reason="no compiled backend available")
    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("seed", TRAJECTORY_SEEDS)
    def test_compiled_matches_numpy(self, backend, seed):
        problem = trajectory_problem(seed)
        assert op_walks(backend, problem) == op_walks("numpy", problem)

    @pytest.mark.parametrize("backend", ["numpy"] + COMPILED)
    def test_empty_act(self, backend):
        problem = list(trajectory_problem(0))
        problem[9] = np.empty(0, dtype=np.int64)
        assert op_walks(backend, tuple(problem)) == []


# ----------------------------------------------------------------------
# mid-run degradation (the resilience ladder, backend rung)
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not CcBackend.available(), reason="cc backend needs a C compiler"
)
class TestMidRunDegradation:
    def test_single_copy_degrades_and_matches_numpy(self, monkeypatch):
        fresh, block = single_copy_workload()
        batch_numpy = fresh()
        BatchKernel(batch_numpy, backend="numpy").run(block)

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected compiled-op failure")

        monkeypatch.setattr(CcBackend, "single_trajectories", explode)
        batch_cc = fresh()
        kernel = BatchKernel(batch_cc, backend="cc")
        kernel.run(block)

        assert kernel.backend == "numpy"
        assert kernel.stats["backend"] == "numpy"
        assert len(kernel.backend_fallbacks) == 1
        assert "single_trajectories" in kernel.backend_fallbacks[0]
        assert "injected compiled-op failure" in kernel.backend_fallbacks[0]
        assert outcome_fields(s.outcome() for s in batch_cc) == outcome_fields(
            s.outcome() for s in batch_numpy
        )

    def test_multi_copy_degrades_and_matches_numpy(self, monkeypatch):
        graph = random_contact_graph(30, (10.0, 120.0), rng=np.random.default_rng(5))

        def run_with(backend):
            return run_random_graph_batch(
                graph,
                4,
                2,
                copies=3,
                horizon=360.0,
                sessions=30,
                rng=np.random.default_rng(5),
                kernel=True,
                backend=backend,
            )

        reference = outcome_fields(o for _, o in run_with("numpy"))

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected multi-copy failure")

        monkeypatch.setattr(CcBackend, "multi_next_events", explode)
        degraded = outcome_fields(o for _, o in run_with("cc"))
        assert degraded == reference

    def test_engine_surfaces_mid_run_degradation(self, monkeypatch):
        fresh, block = single_copy_workload(sessions=20)

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected compiled-op failure")

        monkeypatch.setattr(CcBackend, "single_trajectories", explode)
        engine = SimulationEngine(
            ColumnarEventSource(block),
            horizon=360.0,
            kernel=True,
            backend="cc",
        )
        for session in fresh():
            engine.add_session(session)
        engine.run()

        events = [e for e in engine.fallback_events if e.kind == KERNEL_FALLBACK]
        assert events
        assert any("injected compiled-op failure" in e.detail for e in events)
        assert engine.kernel_stats and engine.kernel_stats[0]["backend"] == "numpy"


class TestNumpyOpFailure:
    """A failing numpy op is a real error: the shared ``_op`` re-raises it
    after one call, with nothing recorded and nothing retried."""

    @staticmethod
    def explode(monkeypatch, op):
        calls = []

        def explode(self, *args, **kwargs):
            calls.append(op)
            raise ZeroDivisionError(f"injected numpy {op} failure")

        monkeypatch.setattr(NumpyBackend, op, explode)
        return calls

    def test_single_copy_op_failure_propagates(self, monkeypatch):
        fresh, block = single_copy_workload(sessions=20)
        calls = self.explode(monkeypatch, "single_trajectories")
        kernel = BatchKernel(fresh(), backend="numpy")
        with pytest.raises(ZeroDivisionError, match="injected numpy"):
            kernel.run(block)
        assert calls == ["single_trajectories"]
        assert kernel.backend == "numpy"
        assert kernel.backend_fallbacks == ()
        assert kernel.fallback_events == ()

    def test_multi_copy_op_failure_propagates(self, monkeypatch):
        _, block = single_copy_workload(n=20, sessions=1)
        directory = OnionGroupDirectory(20, 3, rng=np.random.default_rng(0))
        route = directory.select_route(0, 9, 2, rng=np.random.default_rng(0))
        session = MultiCopySession(Message(0, 9, 0.0, 360.0), route, copies=2)
        calls = self.explode(monkeypatch, "multi_next_events")
        kernel = MultiCopyBatchKernel([session], backend="numpy")
        with pytest.raises(ZeroDivisionError, match="injected numpy"):
            kernel.run(block)
        assert calls == ["multi_next_events"]
        assert kernel.backend == "numpy"
        assert kernel.backend_fallbacks == ()
        assert kernel.fallback_events == ()


# ----------------------------------------------------------------------
# kernel bookkeeping shared by every backend
# ----------------------------------------------------------------------


class TestKernelBookkeeping:
    @pytest.mark.parametrize("backend", ["numpy"] + COMPILED)
    def test_stats_reflect_trajectory_sweep(self, backend):
        fresh, block = single_copy_workload()
        kernel = BatchKernel(fresh(), backend=backend)
        kernel.run(block)
        stats = kernel.stats
        assert stats["backend"] == backend
        # Every backend computes whole trajectories: one backend round
        # regardless of route depth.
        assert stats["rounds"] == 1
        assert stats["scalar_dispatches"] == kernel.dispatches > 0
        assert stats["backend_seconds"] >= 0.0
        assert stats["dispatch_seconds"] >= 0.0
        assert stats["active_peak"] == stats["active_total"] > 0

    def test_numpy_stats_and_pending(self):
        fresh, block = single_copy_workload()
        batch = fresh()
        kernel = BatchKernel(batch, backend="numpy")
        assert kernel.pending == len(batch)
        kernel.run(block)
        stats = kernel.stats
        assert stats["backend"] == "numpy"
        assert stats["rounds"] >= 1
        assert stats["scalar_dispatches"] == kernel.dispatches > 0
        assert kernel.pending == sum(1 for s in batch if not s.done)
        # Incremental pending stays consistent across further (empty) runs.
        kernel.run(EventBlock.empty())
        assert kernel.pending == sum(1 for s in batch if not s.done)

    def test_engine_kernel_stats_exposed(self):
        fresh, block = single_copy_workload(sessions=20)
        engine = SimulationEngine(
            ColumnarEventSource(block), horizon=360.0, kernel=True
        )
        for session in fresh():
            engine.add_session(session)
        engine.run()
        stats = engine.kernel_stats
        assert stats and stats[0]["backend"] == "numpy"
        assert stats[0]["scalar_dispatches"] > 0

    def test_backend_knob_rejects_typo_at_construction(self):
        fresh, block = single_copy_workload(sessions=5)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            SimulationEngine(
                ColumnarEventSource(block),
                horizon=360.0,
                kernel=True,
                backend="fortran",
            )
        with pytest.raises(ValueError, match="unknown kernel backend"):
            BatchKernel(fresh(), backend="fortran")

    def test_env_var_typo_fails_loudly_instead_of_leaving_the_kernels(
        self, monkeypatch
    ):
        # An unknown $REPRO_KERNEL_BACKEND must not be filed as a kernel
        # rejection that quietly routes every session to the object loop.
        monkeypatch.setenv(ENV_VAR, "fortran")
        fresh, block = single_copy_workload(sessions=5)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            SimulationEngine(ColumnarEventSource(block), horizon=360.0)
        graph = random_contact_graph(20, (10.0, 120.0), rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="unknown kernel backend"):
            run_random_graph_batch(
                graph, 4, 2, 1, horizon=400.0, sessions=20,
                rng=np.random.default_rng(5),
            )

    def test_multicopy_backend_knob_rejects_typo(self):
        directory = OnionGroupDirectory(20, 3, rng=np.random.default_rng(0))
        route = directory.select_route(0, 9, 2, rng=np.random.default_rng(0))
        session = MultiCopySession(Message(0, 9, 0.0, 100.0), route, copies=2)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            MultiCopyBatchKernel([session], backend="fortran")

    def test_backend_base_class_ops_are_abstract(self):
        backend = KernelBackend()
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(NotImplementedError):
            backend.single_trajectories(one, 2, 2, 1, *([one] * 11))
        with pytest.raises(NotImplementedError):
            backend.multi_next_events(one, 2, 2, 1, *([one] * 8))
