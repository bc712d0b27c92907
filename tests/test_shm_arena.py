"""Shared-memory arena lifecycle: round-trips, ownership, crash safety.

The zero-copy transport has one invariant that matters above all others:
after the owner releases an arena, ``/dev/shm`` holds no ``reproarena-*``
segment — no matter how many workers were SIGKILLed mid-chunk. These
tests exercise the descriptor round-trip, the idempotent ownership API,
the pool-owned and per-call arena lifecycles, and the crash path through
the supervised dispatcher (worker functions live at module level so the
``fork`` start method pickles them by reference).
"""

import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.adversary.kernel import SecurityTrialBlock, sample_security_block
from repro.contacts.events import (
    ColumnarEventSource,
    EventBlock,
    ExponentialContactProcess,
)
from repro.contacts.random_graph import random_contact_graph
from repro.experiments import shm
from repro.experiments.parallel import (
    WorkerPool,
    run_parallel_batch,
    run_parallel_montecarlo,
)
from repro.experiments.runners import (
    run_random_graph_batch,
    security_montecarlo,
)
from repro.experiments.shm import (
    BlockDescriptor,
    SharedBlockArena,
    attach_block,
    detach_attached,
    leaked_arena_segments,
)
from repro.utils.resilience import WORKER_CRASH, ExecutionReport, RetryPolicy


@pytest.fixture
def graph():
    return random_contact_graph(20, (4.0, 30.0), rng=np.random.default_rng(7))


@pytest.fixture
def event_block(graph):
    return ExponentialContactProcess(
        graph, rng=np.random.default_rng(5)
    ).events_until_columnar(240.0)


def _force_worker_attach(descriptor: BlockDescriptor):
    """Attach as a worker would: bypass the owner-process shortcut."""
    original = shm._OWNED.pop(descriptor.shm_name)
    try:
        return attach_block(descriptor)
    finally:
        shm._OWNED[descriptor.shm_name] = original


class TestRoundTrip:
    def test_event_block_round_trips_bitwise(self, event_block):
        arena = SharedBlockArena()
        try:
            descriptor = arena.register(event_block)
            rebuilt = _force_worker_attach(descriptor)
            assert rebuilt is not event_block
            np.testing.assert_array_equal(rebuilt.times, event_block.times)
            np.testing.assert_array_equal(rebuilt.a, event_block.a)
            np.testing.assert_array_equal(rebuilt.b, event_block.b)
        finally:
            detach_attached()
            arena.unlink()
        assert leaked_arena_segments() == []

    def test_attached_views_are_read_only(self, event_block):
        arena = SharedBlockArena()
        try:
            rebuilt = _force_worker_attach(arena.register(event_block))
            with pytest.raises(ValueError):
                rebuilt.times[0] = -1.0
        finally:
            detach_attached()
            arena.unlink()

    def test_security_block_round_trips_bitwise(self):
        block = sample_security_block(
            30, 4, k_max=3, l_max=2, trials=50,
            rng=np.random.default_rng(11), overlapping=False,
        )
        arena = SharedBlockArena()
        try:
            rebuilt = _force_worker_attach(arena.register(block))
            assert isinstance(rebuilt, SecurityTrialBlock)
            assert (rebuilt.n, rebuilt.group_size, rebuilt.overlapping) == (
                block.n, block.group_size, block.overlapping
            )
            np.testing.assert_array_equal(rebuilt.sources, block.sources)
            np.testing.assert_array_equal(
                rebuilt.destinations, block.destinations
            )
            np.testing.assert_array_equal(
                rebuilt.copy_members, block.copy_members
            )
            np.testing.assert_array_equal(
                rebuilt.compromise_keys, block.compromise_keys
            )
        finally:
            detach_attached()
            arena.unlink()
        assert leaked_arena_segments() == []

    def test_owner_process_attach_returns_registered_object(self, event_block):
        arena = SharedBlockArena()
        try:
            descriptor = arena.register(event_block)
            assert attach_block(descriptor) is event_block
        finally:
            arena.unlink()

    def test_descriptor_is_small(self, event_block):
        import pickle

        arena = SharedBlockArena()
        try:
            descriptor = arena.register(event_block)
            assert len(pickle.dumps(descriptor)) < 1024
            assert descriptor.nbytes >= event_block.times.nbytes
        finally:
            arena.unlink()


class TestOwnership:
    def test_register_is_idempotent_per_block(self, event_block):
        arena = SharedBlockArena()
        try:
            first = arena.register(event_block)
            second = arena.register(event_block)
            assert first == second
            assert len(arena) == 1
        finally:
            arena.unlink()

    def test_unlink_is_idempotent(self, event_block):
        arena = SharedBlockArena()
        arena.register(event_block)
        arena.unlink()
        arena.unlink()
        assert leaked_arena_segments() == []

    def test_dropped_arena_releases_segments(self, event_block):
        arena = SharedBlockArena()
        name = arena.register(event_block).shm_name
        assert any(name in leaked for leaked in leaked_arena_segments())
        del arena  # the weakref.finalize backstop must fire
        assert leaked_arena_segments() == []

    def test_register_rejects_foreign_types(self):
        arena = SharedBlockArena()
        with pytest.raises(TypeError):
            arena.register(np.zeros(4))

    def test_attach_rejects_unknown_kind(self, event_block):
        arena = SharedBlockArena()
        try:
            descriptor = arena.register(event_block)._replace(kind="mystery")
            shm._OWNED.pop(descriptor.shm_name)
            with pytest.raises(ValueError, match="mystery"):
                attach_block(descriptor)
        finally:
            detach_attached()
            arena.unlink()


def _kill_once_batch(
    graph, group_size, onion_routers, copies, horizon,
    sessions=None, rng=None, events=None, fuse_dir=None,
):
    """One chunk SIGKILLs its worker mid-run; retries replay cleanly."""
    fuse = Path(fuse_dir) / "kill.fuse"
    try:
        fuse.unlink()
        os.kill(os.getpid(), signal.SIGKILL)
    except FileNotFoundError:
        pass
    return run_random_graph_batch(
        graph, group_size, onion_routers, copies=copies, horizon=horizon,
        sessions=sessions, rng=rng, events=events,
    )


def _signature(pairs):
    return [
        (o.delivered, o.delivery_time, o.transmissions, o.status)
        for _, o in pairs
    ]


class TestCrashSafety:
    def test_sigkilled_worker_chunk_requeues_identically(
        self, graph, event_block, tmp_path
    ):
        kwargs = dict(
            graph=graph, group_size=4, onion_routers=2, copies=1,
            horizon=240.0, fuse_dir=str(tmp_path),
        )

        def run(pool_args):
            return _signature(
                run_parallel_batch(
                    _kill_once_batch,
                    sessions=12,
                    rng=np.random.default_rng(23),
                    shared_events=event_block,
                    **pool_args,
                    **kwargs,
                )
            )

        clean = run(dict(workers=2))
        (tmp_path / "kill.fuse").write_text("armed")
        report = ExecutionReport()
        with WorkerPool(
            2,
            max_processes=2,
            policy=RetryPolicy(max_retries=2, backoff=0.0, jitter=0.0),
            report=report,
        ) as pool:
            crashed = run(dict(workers=pool))
            # The arena outlives the crash-restart: segments stay mapped
            # until close(), which runs on the with-exit below.
            assert len(pool.arena) == 1
        assert crashed == clean
        assert report.counts().get(WORKER_CRASH, 0) >= 1
        assert leaked_arena_segments() == []

    def test_int_workers_arena_released_on_completion(self, graph, event_block):
        run_parallel_batch(
            run_random_graph_batch,
            sessions=8,
            workers=2,
            rng=np.random.default_rng(3),
            shared_events=event_block,
            graph=graph,
            group_size=4,
            onion_routers=2,
            copies=1,
            horizon=240.0,
        )
        assert leaked_arena_segments() == []

    def test_int_workers_arena_released_on_chunk_error(self, graph, event_block):
        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        boom.__name__ = "boom"
        with pytest.raises(RuntimeError):
            run_parallel_batch(
                boom,
                sessions=8,
                workers=1,  # workers=1 calls inline; use 2 for the arena path
                rng=np.random.default_rng(3),
                graph=graph,
            )
        # The shared path's try/finally is what the next assert exercises.
        with pytest.raises(Exception):
            run_parallel_batch(
                _kill_once_batch,
                sessions=8,
                workers=2,
                rng=np.random.default_rng(3),
                shared_events=event_block,
                graph=graph,
                group_size=400,  # invalid: every chunk raises
                onion_routers=2,
                copies=1,
                horizon=240.0,
                fuse_dir="/nonexistent",
            )
        assert leaked_arena_segments() == []


class TestSharedMontecarlo:
    def test_shared_block_matches_per_chunk_draws(self):
        block = sample_security_block(
            40, 5, k_max=3, l_max=1, trials=64,
            rng=np.random.default_rng(9), overlapping=False,
        )
        shared = run_parallel_montecarlo(
            security_montecarlo,
            trials=64,
            workers=2,
            rng=np.random.default_rng(1),
            shared_block=block,
            n=40,
            group_size=5,
            onion_routers=3,
            copies=1,
            compromise_rate=0.2,
        )
        # The slice of the parent block a chunk scores equals the matching
        # rows of scoring the whole block (trials are independent), so the
        # trial-weighted merge must equal one full-block evaluation.
        full = security_montecarlo(
            40, 5, 3, 1, 0.2, trials=64,
            rng=np.random.default_rng(99), block=block,
        )
        assert shared == pytest.approx(full, abs=1e-12)
        assert leaked_arena_segments() == []

    def test_shared_block_validates_trials(self):
        block = sample_security_block(
            40, 5, k_max=2, l_max=1, trials=32,
            rng=np.random.default_rng(9), overlapping=False,
        )
        with pytest.raises(ValueError):
            run_parallel_montecarlo(
                security_montecarlo,
                trials=64,
                workers=2,
                rng=1,
                shared_block=block,
                n=40,
                group_size=5,
                onion_routers=2,
                copies=1,
                compromise_rate=0.2,
            )

    def test_slice_trials_views(self):
        block = sample_security_block(
            30, 4, k_max=2, l_max=2, trials=20,
            rng=np.random.default_rng(4), overlapping=True,
        )
        part = block.slice_trials(5, 15)
        assert part.trials == 10
        assert part.n == block.n and part.overlapping is True
        np.testing.assert_array_equal(part.sources, block.sources[5:15])
        assert np.shares_memory(part.copy_members, block.copy_members)
        with pytest.raises(ValueError):
            block.slice_trials(10, 25)


_TRACKER_SCRIPT = """
import numpy as np
from repro.contacts.events import EventBlock
from repro.experiments.parallel import WorkerPool, parallel_map
from repro.experiments.shm import attach_block, leaked_arena_segments

def block(seed):
    rng = np.random.default_rng(seed)
    return EventBlock(
        times=np.sort(rng.random(64)),
        a=rng.integers(0, 9, 64),
        b=rng.integers(10, 19, 64),
    )

pool = WorkerPool(2, max_processes=2)
pool.share_block(block(0))  # the owner's resource tracker starts here
pool.warm()  # forks the workers
blocks = [block(seed) for seed in range(1, 6)]
descriptors = [pool.share_block(b) for b in blocks]  # registered after the fork
attached = parallel_map(attach_block, [(d,) for d in descriptors], pool)
assert all(np.array_equal(x.times, b.times) for x, b in zip(attached, blocks))
pool.close()
print(leaked_arena_segments())
"""

# Workers forked before the owner's tracker starts get trackers of their
# own; each must unregister every segment it attaches, or SIGKILLing it
# (WorkerPool.terminate keeps the arena for requeued chunks) lets its
# tracker unlink segments the owner still serves.
_PRIVATE_TRACKER_SCRIPT = """
import os
import time

import numpy as np
from multiprocessing import resource_tracker
from repro.contacts.events import EventBlock
from repro.experiments.parallel import WorkerPool, parallel_map
from repro.experiments.shm import attach_block, leaked_arena_segments

def block(seed):
    rng = np.random.default_rng(seed)
    return EventBlock(
        times=np.sort(rng.random(64)),
        a=rng.integers(0, 9, 64),
        b=rng.integers(10, 19, 64),
    )

def attach_all(descriptors):
    sums = [float(attach_block(d).times.sum()) for d in descriptors]
    return resource_tracker._resource_tracker._pid, sums

def gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True

pool = WorkerPool(2, max_processes=2)
pool.warm()  # forks the workers before the owner's tracker exists
blocks = [block(seed) for seed in range(3)]
descriptors = [pool.share_block(b) for b in blocks]
done = parallel_map(attach_all, [(descriptors,)] * 4, pool)
expected = [float(b.times.sum()) for b in blocks]
assert all(sums == expected for _, sums in done)
trackers = {pid for pid, _ in done if pid is not None and pid != os.getpid()}
pool.terminate()  # SIGKILL; the arena stays for requeued chunks
deadline = time.monotonic() + 30
while not all(gone(pid) for pid in trackers) and time.monotonic() < deadline:
    time.sleep(0.05)
# Forked workers would short-circuit through the owner's _OWNED map, so
# check the segments themselves.
assert all(os.path.exists(f"/dev/shm/{d.shm_name}") for d in descriptors)
pool.close()
print(leaked_arena_segments())
"""


def _run_script(script):
    import subprocess
    import sys

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestResourceTracker:
    def test_fork_pool_attach_keeps_owner_registrations(self):
        """Workers sharing the owner's tracker must not unregister the
        owner's segments: the owner's unlink would make the tracker print
        a KeyError traceback per segment."""
        done = _run_script(_TRACKER_SCRIPT)
        assert done.returncode == 0, done.stderr
        assert "KeyError" not in done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"
        assert leaked_arena_segments() == []

    def test_killed_worker_with_private_tracker_keeps_segments(self):
        """A worker forked before the owner's tracker started unregisters
        every segment it attaches, so killing it unlinks none of them."""
        done = _run_script(_PRIVATE_TRACKER_SCRIPT)
        assert done.returncode == 0, done.stderr
        assert "leaked shared_memory" not in done.stderr
        assert "KeyError" not in done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"
        assert leaked_arena_segments() == []
