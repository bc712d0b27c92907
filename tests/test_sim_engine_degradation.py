"""Degradation-ladder tests: kernel failures must degrade byte-identically.

The resilience contract has two levels. Inside the engine, a kernel that
fails *before dispatching anything* while the first window is processed
routes its whole group through the object loop — under ``consume="auto"``
and ``consume="stream"`` alike — and a partially-dispatched kernel, or
one failing in a later window, must refuse to (replaying advanced
sessions would violate causality). Inside a parallel chunk,
:func:`repro.experiments.parallel._run_chunk_with_ladder` retries the
chunk with ``kernel=False``, rebuilding all chunk state from the seed.
Both levels promise outcomes byte-identical to the object loop alone
(``kernel=False``) — these tests mix kernel-eligible and fault-carrying
sessions in one batch and check exactly that. A source that cannot
produce a window is not a kernel failure: its error propagates.
"""

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.events import ColumnarEventSource, ExponentialContactProcess
from repro.contacts.random_graph import random_contact_graph
from repro.core.multi_copy import MultiCopySession
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.single_copy import SingleCopySession
from repro.experiments.parallel import (
    _ChunkPayload,
    _degradation_rungs,
    _run_batch_chunk,
)
from repro.faults.recovery import FaultPlan, RecoveryPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import BatchKernel, MultiCopyBatchKernel
from repro.sim.message import Message
from repro.utils.resilience import KERNEL_FALLBACK


def outcome_fields(outcomes):
    """Every DeliveryOutcome field, fully materialised for == comparison."""
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


N = 30
HORIZON = 360.0


def mixed_sessions(seed):
    """Kernel-eligible sessions interleaved with fault-carrying ones."""
    rng = np.random.default_rng(seed)
    directory = OnionGroupDirectory(N, 3, rng=rng)
    plan = FaultPlan(
        relays=DroppingRelays(
            frozenset(range(5, 12)), 0.6, rng=np.random.default_rng(99)
        )
    )
    sessions = []
    for index in range(12):
        source, destination = rng.choice(N, size=2, replace=False)
        route = directory.select_route(int(source), int(destination), 2, rng=rng)
        message = Message(
            source=int(source),
            destination=int(destination),
            created_at=0.0,
            deadline=HORIZON,
        )
        kind = index % 3
        if kind == 0:
            sessions.append(SingleCopySession(message, route))  # kernel-eligible
        elif kind == 1:
            sessions.append(MultiCopySession(message, route, copies=3))
        else:
            sessions.append(
                SingleCopySession(
                    message,
                    route,
                    faults=plan,
                    recovery=RecoveryPolicy(custody_timeout=30.0, max_retries=2),
                )
            )
    return sessions


@pytest.fixture(scope="module")
def block():
    graph = random_contact_graph(N, (10.0, 120.0), rng=np.random.default_rng(7))
    return ExponentialContactProcess(
        graph, rng=np.random.default_rng(21)
    ).events_until_columnar(HORIZON)


def run_batch(block, sessions, **knobs):
    engine = SimulationEngine(ColumnarEventSource(block), horizon=HORIZON, **knobs)
    for session in sessions:
        engine.add_session(session)
    engine.run()
    return engine


def run_mixed(block, **knobs):
    sessions = mixed_sessions(seed=13)
    engine = run_batch(block, sessions, **knobs)
    return engine, [session.outcome() for session in sessions]


class TestEngineKernelFallback:
    def test_predispatch_kernel_error_matches_iterator_path(
        self, block, monkeypatch
    ):
        """A mid-batch kernel error on a mixed batch degrades to the object
        loop with outcomes byte-identical to a run without kernels."""
        _, via_object_loop = run_mixed(block, kernel=False)

        def refuse(self, block, on_session_error=None):
            raise RuntimeError("injected kernel failure")  # dispatches == 0

        monkeypatch.setattr(BatchKernel, "run", refuse)
        engine, via_kernel = run_mixed(block)

        assert outcome_fields(via_kernel) == outcome_fields(via_object_loop)
        fallbacks = engine.fallback_events
        assert len(fallbacks) == 1
        assert fallbacks[0].kind == KERNEL_FALLBACK
        assert fallbacks[0].where == "BatchKernel"
        assert "injected kernel failure" in fallbacks[0].detail
        # The single-copy group fell back to the object loop; nothing ran
        # under the single-copy kernel.
        assert engine.dispatch_mode_counts.get("kernel-single", 0) == 0
        assert engine.dispatch_mode_counts["object"] == 8

    def test_stream_predispatch_kernel_error_matches_iterator_path(
        self, block, monkeypatch
    ):
        """The same rule under ``consume="stream"``: a kernel that raises
        before dispatching, in the first window, hands its group to the
        object loop before that loop has seen the window."""
        _, via_object_loop = run_mixed(block, kernel=False)

        def refuse(self, block, on_session_error=None):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(BatchKernel, "run", refuse)
        engine, via_stream = run_mixed(block, consume="stream", stream_window=30.0)

        assert outcome_fields(via_stream) == outcome_fields(via_object_loop)
        assert [e.where for e in engine.fallback_events] == ["BatchKernel"]
        assert engine.stream_stats[0] > 1
        assert engine.dispatch_mode_counts == {"kernel-multicopy": 4, "object": 8}

    def test_stream_later_window_kernel_error_propagates(self, block, monkeypatch):
        original = BatchKernel.run
        windows = []

        def fail_second_window(self, block, on_session_error=None):
            windows.append(len(block))
            if len(windows) == 2:
                raise RuntimeError("injected second-window failure")
            return original(self, block, on_session_error=on_session_error)

        monkeypatch.setattr(BatchKernel, "run", fail_second_window)
        with pytest.raises(RuntimeError, match="second-window") as excinfo:
            run_mixed(block, consume="stream", stream_window=30.0)
        assert any("window 2" in note for note in excinfo.value.__notes__)

    def test_first_window_failure_propagates(self, block):
        # There is no second way to read the source, so a window it cannot
        # produce fails the run before any session is dispatched.
        class BrokenBlocks(ColumnarEventSource):
            def events_until_columnar(self, horizon):
                raise OSError("injected window failure")

        for consume in ("auto", "stream"):
            engine = SimulationEngine(
                BrokenBlocks(block), horizon=HORIZON, consume=consume
            )
            sessions = mixed_sessions(seed=13)
            for session in sessions:
                engine.add_session(session)
            with pytest.raises(OSError, match="injected window failure"):
                engine.run()
            assert engine.fallback_events == ()
            assert engine.dispatch_mode_counts == {}
            assert engine.events_processed == 0
            assert all(s.outcome().status == "pending" for s in sessions)

    def test_clean_kernel_run_matches_iterator_and_records_nothing(self, block):
        engine, via_kernel = run_mixed(block)
        _, via_object_loop = run_mixed(block, kernel=False)
        assert outcome_fields(via_kernel) == outcome_fields(via_object_loop)
        assert engine.fallback_events == ()
        assert engine.dispatch_mode_counts.get("kernel-single", 0) > 0

    def test_partial_kernel_failure_refuses_to_degrade(self, block, monkeypatch):
        # Once the kernel has dispatched state changes, falling back would
        # replay advanced sessions — the engine must propagate instead,
        # pointing at the chunk-level remedy.
        original = BatchKernel.run

        def dispatch_then_die(self, block, on_session_error=None):
            original(self, block, on_session_error=on_session_error)
            assert self.dispatches > 0
            raise RuntimeError("injected post-dispatch failure")

        monkeypatch.setattr(BatchKernel, "run", dispatch_then_die)
        with pytest.raises(RuntimeError, match="post-dispatch") as excinfo:
            run_mixed(block)
        assert any("kernel=False" in note for note in excinfo.value.__notes__)

    def test_later_group_failure_still_harvests_earlier_kernels(
        self, block, monkeypatch
    ):
        # The single-copy kernel sweeps the first window cleanly, then the
        # multi-copy kernel dies after dispatching: the run propagates,
        # but the kernel that ran still reports its stats.
        original = MultiCopyBatchKernel.run

        def dispatch_then_die(self, block, on_session_error=None):
            original(self, block, on_session_error=on_session_error)
            assert self.dispatches > 0
            raise RuntimeError("injected post-dispatch failure")

        monkeypatch.setattr(MultiCopyBatchKernel, "run", dispatch_then_die)
        engine = SimulationEngine(ColumnarEventSource(block), horizon=HORIZON)
        for session in mixed_sessions(seed=13):
            engine.add_session(session)
        with pytest.raises(RuntimeError, match="post-dispatch"):
            engine.run()
        assert len(engine.kernel_stats) == 2


#: The session hook each kernel applies its state changes through.
KERNEL_HOOKS = {
    BatchKernel: "apply_transitions",
    MultiCopyBatchKernel: "on_contact_scalar",
}


def kernel_batch(kernel_cls, victim=None):
    """The sessions of ``mixed_sessions`` that ``kernel_cls`` sweeps; the
    one at position ``victim``, if given, raises on its first state change."""
    sessions = [s for s in mixed_sessions(seed=13) if kernel_cls.supports(s)]
    if victim is not None:

        def refuse(*args):
            raise ValueError("injected session fault")

        setattr(sessions[victim], KERNEL_HOOKS[kernel_cls], refuse)
    return sessions


@pytest.mark.parametrize("kernel_cls", list(KERNEL_HOOKS))
class TestKernelSessionErrorContainment:
    """A session that raises inside a kernel sweep is contained on its own:
    the kernel drops it and every other session runs as if it were not
    there."""

    def test_raising_session_is_quarantined_alone(self, block, kernel_cls):
        clean = kernel_batch(kernel_cls)
        run_batch(block, clean)
        # Fault a session the clean sweep advances, so the kernel reaches it.
        victim = next(
            i for i, s in enumerate(clean) if s.outcome().transmissions
        )

        sessions = kernel_batch(kernel_cls, victim)
        kernel = kernel_cls(sessions)
        errors = []
        kernel.run(block, on_session_error=lambda s, e: errors.append(s))
        assert errors == [sessions[victim]]
        assert kernel.pending == sum(
            1 for s in sessions if s is not sessions[victim] and not s.done
        )

        sessions = kernel_batch(kernel_cls, victim)
        engine = run_batch(block, sessions)
        assert [s for s, _ in engine.quarantined] == [sessions[victim]]
        assert sessions[victim].outcome().status == "failed"
        assert engine.dispatch_mode_counts == {kernel_cls.mode: len(sessions)}
        expected = outcome_fields(s.outcome() for s in clean)
        got = outcome_fields(s.outcome() for s in sessions)
        del expected[victim], got[victim]
        assert got == expected


# ----------------------------------------------------------------------
# the chunk-level ladder (kernel → object loop inside a retry)
# ----------------------------------------------------------------------


def _ladder_probe(sessions, rng, fail_on=(), kernel=None):
    """A stand-in batch fn whose failures are selected per rung."""
    rung = "kernel" if kernel is not False else "object"
    if rung in fail_on:
        raise RuntimeError(f"injected failure on rung {rung!r}")
    return [(rung, sessions, float(rng.random()))]


def _no_knobs_probe(sessions, rng):
    raise RuntimeError("no rungs to degrade to")


class TestChunkLadder:
    def seed(self):
        return np.random.SeedSequence(42)

    def test_kernel_failure_degrades_to_next_rung_seed_exact(self):
        payload = _run_batch_chunk(
            _ladder_probe, 5, self.seed(), {"fail_on": ("kernel",), "kernel": True}
        )
        assert isinstance(payload, _ChunkPayload)
        # The degraded rung re-ran from the chunk seed: same draw as a
        # clean kernel=False call.
        clean = _ladder_probe(
            sessions=5, rng=np.random.default_rng(self.seed()), kernel=False
        )
        assert payload.result == clean
        assert [e["kind"] for e in payload.events] == [KERNEL_FALLBACK]
        assert payload.events[0]["resolution"] == "degraded"
        assert "kernel=False" in payload.events[0]["detail"]

    def test_exhausted_ladder_raises_last_rung_error(self):
        with pytest.raises(RuntimeError, match="rung 'object'"):
            _run_batch_chunk(
                _ladder_probe,
                5,
                self.seed(),
                {"fail_on": ("kernel", "object"), "kernel": True},
            )

    def test_clean_chunk_records_no_events(self):
        payload = _run_batch_chunk(_ladder_probe, 5, self.seed(), {"kernel": True})
        assert payload.events == []
        assert payload.result[0][0] == "kernel"

    def test_rungs_respect_pinned_knobs(self):
        two = _degradation_rungs(_ladder_probe, {"kernel": True, "consume": "auto"})
        assert [label for label, _ in two] == [
            "requested configuration",
            "kernel=False",
        ]
        # Only the kernel knob changes between rungs.
        assert two[1][1] == {"kernel": False, "consume": "auto"}

        pinned_off = _degradation_rungs(_ladder_probe, {"kernel": False})
        assert [label for label, _ in pinned_off] == [
            "requested configuration"
        ]

    def test_fn_without_knobs_has_no_ladder(self):
        rungs = _degradation_rungs(_no_knobs_probe, {})
        assert [label for label, _ in rungs] == ["requested configuration"]
        with pytest.raises(RuntimeError, match="no rungs"):
            _run_batch_chunk(_no_knobs_probe, 5, self.seed(), {})
