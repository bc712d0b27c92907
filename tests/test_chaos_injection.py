"""Fast, deterministic chaos tests for the supervised execution layer.

Each scenario injects one failure class into a real multi-process pool
(``max_processes`` forces subprocesses even on a 1-CPU host) and asserts
the supervised dispatcher recovers with results identical to a clean
inline run, with the incident classified on the
:class:`~repro.utils.resilience.ExecutionReport`.

Failure injection uses one-shot "fuse" files in ``tmp_path``: the first
execution that claims the fuse (atomic ``unlink``) misbehaves, the retry
runs clean. Worker functions live at module level so the ``fork`` start
method can pickle them by reference.

The heavyweight end-to-end version of these scenarios (full sweep,
checkpoint corruption mid-run, byte-identical aggregates) lives in
``experiments/chaos_harness.py`` and runs in CI's chaos-smoke job.
"""

import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.parallel import (
    WorkerPool,
    parallel_map,
    workers_metadata,
)
from repro.utils.resilience import (
    CHUNK_ERROR,
    CHUNK_TIMEOUT,
    WORKER_CRASH,
    ExecutionReport,
    RetryPolicy,
)

def _no_sleep_policy(**overrides):
    defaults = dict(max_retries=2, backoff=0.0, jitter=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _draw(seed: int, n: int):
    """Deterministic chunk payload: exact float equality proves seed-exact retry."""
    return np.random.default_rng(seed).random(n).tolist()


def _claim(fuse: Path) -> bool:
    """Atomically claim a one-shot fuse file; True for the single winner."""
    try:
        fuse.unlink()
    except FileNotFoundError:
        return False
    return True


def _draw_fail_once(seed: int, n: int, fuse_dir: str):
    if _claim(Path(fuse_dir) / f"fail-{seed}.fuse"):
        raise RuntimeError("injected chunk failure")
    return _draw(seed, n)


def _draw_kill_once(seed: int, n: int, fuse_dir: str):
    if _claim(Path(fuse_dir) / "kill.fuse"):
        os.kill(os.getpid(), signal.SIGKILL)
    return _draw(seed, n)


def _draw_hang_once(seed: int, n: int, fuse_dir: str):
    if _claim(Path(fuse_dir) / "hang.fuse"):
        time.sleep(60.0)  # pragma: no cover - the pool is killed first
    return _draw(seed, n)


def _draw_fail_on_pool(seed: int, n: int, parent_pid: int):
    """Fails in every worker process, succeeds inline in the supervisor."""
    if os.getpid() != parent_pid:
        raise RuntimeError("injected pool-only failure")
    return _draw(seed, n)


def _interrupt_or_sleep(seed: int):
    """Chunk 0 interrupts (after letting chunk 1 start); chunk 1 naps 30 s."""
    if seed == 0:
        time.sleep(0.2)
        raise KeyboardInterrupt
    time.sleep(30.0)  # pragma: no cover - terminated by the interrupt path
    return seed


TASKS = [(seed, 5) for seed in range(6)]
CLEAN = [_draw(seed, n) for seed, n in TASKS]


class TestSupervisedRetry:
    def test_chunk_error_retried_seed_exact(self, tmp_path):
        (tmp_path / "fail-2.fuse").write_text("armed")
        report = ExecutionReport()
        with WorkerPool(
            4, max_processes=2, policy=_no_sleep_policy(), report=report
        ) as pool:
            tasks = [(seed, n, str(tmp_path)) for seed, n in TASKS]
            results = parallel_map(_draw_fail_once, tasks, pool)
        assert results == CLEAN
        assert report.counts() == {CHUNK_ERROR: 1}
        event = report.events[0]
        assert event.resolution == "retried"
        assert "injected chunk failure" in event.detail
        assert report.pool_restarts == 0  # an exception never breaks the pool

    def test_worker_crash_restarts_pool_and_retries(self, tmp_path):
        (tmp_path / "kill.fuse").write_text("armed")
        report = ExecutionReport()
        with WorkerPool(
            4, max_processes=2, policy=_no_sleep_policy(), report=report
        ) as pool:
            tasks = [(seed, n, str(tmp_path)) for seed, n in TASKS]
            results = parallel_map(_draw_kill_once, tasks, pool)
        assert results == CLEAN
        assert report.counts().get(WORKER_CRASH, 0) >= 1
        assert report.pool_restarts >= 1
        assert not report.degraded_to_serial

    def test_hung_chunk_times_out_and_retries(self, tmp_path):
        (tmp_path / "hang.fuse").write_text("armed")
        report = ExecutionReport()
        policy = _no_sleep_policy(timeout=1.0)
        started = time.monotonic()
        with WorkerPool(4, max_processes=2, policy=policy, report=report) as pool:
            tasks = [(seed, n, str(tmp_path)) for seed, n in TASKS]
            results = parallel_map(_draw_hang_once, tasks, pool)
        elapsed = time.monotonic() - started
        assert results == CLEAN
        assert report.counts().get(CHUNK_TIMEOUT, 0) >= 1
        assert report.pool_restarts >= 1
        assert elapsed < 30.0  # nowhere near the 60 s hang

    def test_persistent_pool_failure_degrades_to_inline(self, tmp_path):
        report = ExecutionReport()
        policy = _no_sleep_policy(max_retries=1)
        with WorkerPool(4, max_processes=2, policy=policy, report=report) as pool:
            tasks = [(seed, n, os.getpid()) for seed, n in TASKS]
            results = parallel_map(_draw_fail_on_pool, tasks, pool)
        assert results == CLEAN
        # Every chunk burned its pooled attempts before succeeding inline.
        assert report.counts()[CHUNK_ERROR] == len(TASKS) * (policy.max_retries + 1)
        resolutions = {e.resolution for e in report.events}
        assert resolutions == {"retried", "inline"}

    def test_pool_restart_budget_degrades_sweep_to_serial(self, tmp_path):
        (tmp_path / "kill.fuse").write_text("armed")
        report = ExecutionReport()
        policy = _no_sleep_policy(max_pool_restarts=0)
        with WorkerPool(4, max_processes=2, policy=policy, report=report) as pool:
            tasks = [(seed, n, str(tmp_path)) for seed, n in TASKS]
            results = parallel_map(_draw_kill_once, tasks, pool)
        assert results == CLEAN
        assert report.degraded_to_serial
        assert report.pool_restarts == 1

    def test_exhausted_inline_retries_propagate(self, tmp_path):
        report = ExecutionReport()
        policy = _no_sleep_policy(max_retries=1)
        # parent_pid=0 never matches: the chunk fails inline too.
        tasks = [(seed, n, 0) for seed, n in TASKS[:2]]
        with WorkerPool(4, max_processes=1, policy=policy, report=report) as pool:
            with pytest.raises(RuntimeError, match="injected pool-only failure"):
                parallel_map(_draw_fail_on_pool, tasks, pool)
        assert any(e.resolution == "failed" for e in report.events)

    def test_supervised_int_workers_runs_inline_on_one_cpu(self, tmp_path):
        (tmp_path / "fail-1.fuse").write_text("armed")
        report = ExecutionReport()
        tasks = [(seed, n, str(tmp_path)) for seed, n in TASKS]
        with WorkerPool(
            4, max_processes=1, policy=_no_sleep_policy(), report=report
        ) as pool:
            results = parallel_map(_draw_fail_once, tasks, pool)
        assert results == CLEAN
        assert report.counts() == {CHUNK_ERROR: 1}

    def test_int_workers_retry_a_failing_chunk(self, tmp_path, caplog):
        # An int count runs on a private supervised pool: the failing chunk
        # is retried from its own arguments and the incident is logged.
        (tmp_path / "fail-3.fuse").write_text("armed")
        tasks = [(seed, n, str(tmp_path)) for seed, n in TASKS]
        with caplog.at_level("WARNING", logger="repro.experiments.parallel"):
            results = parallel_map(_draw_fail_once, tasks, 4)
        assert results == CLEAN
        assert any(CHUNK_ERROR in record.message for record in caplog.records)


class TestKeyboardInterruptShutdown:
    def test_interrupt_terminates_pool_promptly(self):
        pool = WorkerPool(2, max_processes=2)
        started = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                # Chunk 0 interrupts while chunk 1 naps for 30 s; shutdown
                # must kill the straggler instead of joining it.
                parallel_map(_interrupt_or_sleep, [(0,), (1,)], pool)
        finally:
            elapsed = time.monotonic() - started
            pool.close()
        assert elapsed < 20.0
        assert pool._executor is None  # terminate() tore the executor down

    def test_terminated_pool_is_reusable(self):
        with WorkerPool(2, max_processes=2) as pool:
            assert parallel_map(_draw, TASKS[:2], pool) == CLEAN[:2]
            pool.terminate()
            assert pool._executor is None
            assert parallel_map(_draw, TASKS[:2], pool) == CLEAN[:2]


class TestWorkersMetadata:
    def test_int_workers(self):
        meta = workers_metadata(3)
        assert meta["workers_requested"] == 3
        assert meta["workers_effective"] == min(3, os.cpu_count() or 1)
        assert "resilience" not in meta

    def test_pool_reports_effective_processes(self):
        with WorkerPool(4, max_processes=2) as pool:
            meta = workers_metadata(pool)
        assert meta == {"workers_requested": 4, "workers_effective": 2}

    def test_supervised_pool_with_incidents_embeds_summary(self):
        report = ExecutionReport()
        report.record(WORKER_CRASH, "chunk 0", attempt=1, resolution="retried")
        with WorkerPool(4, max_processes=2, policy=RetryPolicy(), report=report) as pool:
            meta = workers_metadata(pool)
        assert meta["resilience"]["counts"] == {WORKER_CRASH: 1}
        assert meta["resilience"]["retries"] == 1

    def test_quiet_supervised_pool_omits_summary(self):
        with WorkerPool(4, max_processes=2, policy=RetryPolicy()) as pool:
            meta = workers_metadata(pool)
        assert "resilience" not in meta
