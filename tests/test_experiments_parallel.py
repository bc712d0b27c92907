"""Tests for the parallel batch layer: chunking, seeding, determinism."""

import pickle

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.cli import main
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.events import (
    ColumnarEventSource,
    ExponentialContactProcess,
)
from repro.experiments.parallel import (
    WorkerPool,
    chunk_sizes,
    default_chunk_count,
    parallel_map,
    run_parallel_batch,
    run_parallel_fused_sweep,
    run_parallel_montecarlo,
    spawn_chunk_seeds,
)
from repro.core.multi_copy import SprayPolicy
from repro.experiments.runners import (
    SweepVariant,
    run_faulty_graph_batch,
    run_fused_graph_sweep,
    run_random_graph_batch,
    security_montecarlo,
)
from repro.faults.churn import NodeChurnSchedule
from repro.faults.failstop import FailStopSchedule
from repro.faults.recovery import RecoveryPolicy


class TestChunkSizes:
    def test_partitions_exactly(self):
        for total, chunks in [(10, 3), (7, 7), (100, 4), (5, 9), (1, 1)]:
            sizes = chunk_sizes(total, chunks)
            assert sum(sizes) == total
            assert all(size >= 1 for size in sizes)
            assert len(sizes) == min(chunks, total)
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic_layout(self):
        assert chunk_sizes(10, 3) == chunk_sizes(10, 3) == [4, 3, 3]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            chunk_sizes(0, 3)
        with pytest.raises(ValueError):
            chunk_sizes(10, 0)


class TestSpawnChunkSeeds:
    def test_reproducible_from_int_seed(self):
        first = [s.entropy for s in spawn_chunk_seeds(123, 4)]
        second = [s.entropy for s in spawn_chunk_seeds(123, 4)]
        assert first == second

    def test_children_are_distinct(self):
        seeds = spawn_chunk_seeds(7, 8)
        streams = [np.random.default_rng(s).random() for s in seeds]
        assert len(set(streams)) == len(streams)


def _square(x):
    return x * x


class TestParallelMap:
    def test_inline_and_pooled_agree(self):
        tasks = [(k,) for k in range(6)]
        assert parallel_map(_square, tasks, 1) == parallel_map(_square, tasks, 2)

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [(1,)], 0)


@pytest.fixture(scope="module")
def graph():
    return random_contact_graph(30, (10.0, 120.0), rng=np.random.default_rng(3))


def _batch(graph, workers, seed=17):
    pairs = run_parallel_batch(
        run_random_graph_batch,
        sessions=24,
        workers=workers,
        rng=seed,
        graph=graph,
        group_size=4,
        onion_routers=2,
        copies=1,
        horizon=240.0,
    )
    return [
        (o.delivered, o.delivery_time, o.transmissions, o.status)
        for _, o in pairs
    ]


class TestRunParallelBatch:
    def test_workers_1_is_seed_exact_with_serial(self, graph):
        serial = run_random_graph_batch(
            graph, 4, 2, copies=1, horizon=240.0, sessions=24,
            rng=np.random.default_rng(17),
        )
        wrapped = run_parallel_batch(
            run_random_graph_batch,
            sessions=24,
            workers=1,
            rng=np.random.default_rng(17),
            graph=graph,
            group_size=4,
            onion_routers=2,
            copies=1,
            horizon=240.0,
        )
        assert [o.delivered for _, o in serial] == [
            o.delivered for _, o in wrapped
        ]
        assert [o.delivery_time for _, o in serial] == [
            o.delivery_time for _, o in wrapped
        ]

    def test_workers_4_repeated_runs_identical(self, graph):
        # The determinism contract: fixed master seed -> identical merged
        # batch, independent of pool scheduling.
        assert _batch(graph, workers=4) == _batch(graph, workers=4)

    def test_session_count_preserved(self, graph):
        assert len(_batch(graph, workers=3)) == 24


class TestRunParallelMontecarlo:
    def kwargs(self):
        return dict(
            n=60, group_size=4, onion_routers=2, copies=1,
            compromise_rate=0.2,
        )

    def test_repeated_runs_identical(self):
        first = run_parallel_montecarlo(
            security_montecarlo, trials=40, workers=4, rng=5, **self.kwargs()
        )
        second = run_parallel_montecarlo(
            security_montecarlo, trials=40, workers=4, rng=5, **self.kwargs()
        )
        assert first == second

    def test_estimates_are_probabilities(self):
        values = run_parallel_montecarlo(
            security_montecarlo, trials=40, workers=2, rng=6, **self.kwargs()
        )
        assert all(0.0 <= v <= 1.0 for v in values)


class TestCliWorkersValidation:
    def test_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "6", "--trials", "10", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_rejects_negative_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "6", "--trials", "10", "--workers", "-3"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_accepts_workers_for_figure(self):
        assert main(["figure", "6", "--trials", "20", "--workers", "2"]) == 0


def _boom(x):
    if x == 2:
        raise RuntimeError("chunk exploded")
    return x


class TestWorkerPool:
    def test_requested_vs_effective(self):
        pool = WorkerPool(8, max_processes=2)
        assert pool.workers == 8
        assert pool.processes == 2
        pool.close()

    def test_inline_when_effective_is_one(self):
        with WorkerPool(4, max_processes=1) as pool:
            assert pool.processes == 1
            assert parallel_map(_square, [(k,) for k in range(4)], pool) == [
                0, 1, 4, 9
            ]
            assert pool._executor is None  # never forked

    def test_pool_reuse_matches_inline(self):
        tasks = [(k,) for k in range(6)]
        with WorkerPool(2, max_processes=2) as pool:
            pooled_first = parallel_map(_square, tasks, pool)
            pooled_second = parallel_map(_square, tasks, pool)
        assert pooled_first == pooled_second == parallel_map(_square, tasks, 1)

    def test_requested_workers_fix_chunk_layout(self, graph):
        # A pool constrained to one process must still produce the
        # requested-parallelism merge, not the serial stream.
        chunked = _batch(graph, workers=4)
        with WorkerPool(4, max_processes=1) as pool:
            constrained = _batch(graph, workers=pool)
        assert constrained == chunked
        assert _batch(graph, workers=2) == chunked
        # Chunks draw from spawned seeds, a different sample than the
        # serial stream: the delivered count may wobble, never collapse.
        serial = _batch(graph, workers=1)
        delivered = [sum(outcome[0] for outcome in run) for run in (serial, chunked)]
        assert abs(delivered[0] - delivered[1]) <= max(5, int(0.05 * len(serial)))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(2, max_processes=0)


class TestParallelMapErrors:
    def test_inline_failure_notes_chunk_index(self):
        tasks = [(k,) for k in range(4)]
        with pytest.raises(RuntimeError) as excinfo:
            parallel_map(_boom, tasks, 1)
        assert any("chunk 2/4" in note for note in excinfo.value.__notes__)


def _empty_mc(trials, rng):
    return ()


def _widening_mc(trials, rng):
    # Width depends on the chunk's trial count -> mismatched chunks.
    return tuple(0.5 for _ in range(trials))


class TestMontecarloValidation:
    def test_empty_chunk_raises_value_error(self):
        with pytest.raises(ValueError) as excinfo:
            run_parallel_montecarlo(_empty_mc, trials=10, workers=2, rng=1)
        assert "_empty_mc" in str(excinfo.value)
        assert "chunk 0" in str(excinfo.value)

    def test_width_mismatch_raises_value_error(self):
        with pytest.raises(ValueError):
            run_parallel_montecarlo(
                _widening_mc, trials=9, workers=2, rng=1, chunks=2
            )


def _shared_signature(pairs):
    return [
        (o.delivered, o.delivery_time, o.transmissions, o.status)
        for _, o in pairs
    ]


class TestSharedStreamParallel:
    def _block(self, graph, horizon=240.0):
        return ExponentialContactProcess(
            graph, rng=np.random.default_rng(33)
        ).events_until_columnar(horizon)

    def test_matches_serial_replay_of_chunk_seeds(self, graph):
        # The shared-stream merge must equal running each spawned chunk
        # serially against a fresh cursor over the same block.
        block = self._block(graph)
        merged = run_parallel_batch(
            run_random_graph_batch,
            sessions=24,
            workers=4,
            rng=np.random.default_rng(17),
            shared_events=block,
            graph=graph,
            group_size=4,
            onion_routers=2,
            copies=1,
            horizon=240.0,
        )
        sizes = chunk_sizes(24, default_chunk_count(24))
        seeds = spawn_chunk_seeds(np.random.default_rng(17), len(sizes))
        replayed = []
        for size, seed in zip(sizes, seeds):
            replayed.extend(
                run_random_graph_batch(
                    graph, 4, 2, copies=1, horizon=240.0, sessions=size,
                    rng=np.random.default_rng(seed),
                    events=ColumnarEventSource(block),
                )
            )
        assert _shared_signature(merged) == _shared_signature(replayed)

    def test_pool_and_int_workers_agree(self, graph):
        block = self._block(graph)

        def run(workers):
            return _shared_signature(
                run_parallel_batch(
                    run_random_graph_batch,
                    sessions=24,
                    workers=workers,
                    rng=np.random.default_rng(17),
                    shared_events=block,
                    graph=graph,
                    group_size=4,
                    onion_routers=2,
                    copies=1,
                    horizon=240.0,
                )
            )

        with WorkerPool(4, max_processes=2) as pool:
            pooled = run(pool)
        assert pooled == run(4)

    def test_workers_1_uses_block_directly(self, graph):
        block = self._block(graph)
        direct = run_random_graph_batch(
            graph, 4, 2, copies=1, horizon=240.0, sessions=24,
            rng=np.random.default_rng(17),
            events=ColumnarEventSource(block),
        )
        wrapped = run_parallel_batch(
            run_random_graph_batch,
            sessions=24,
            workers=1,
            rng=np.random.default_rng(17),
            shared_events=block,
            graph=graph,
            group_size=4,
            onion_routers=2,
            copies=1,
            horizon=240.0,
        )
        assert _shared_signature(direct) == _shared_signature(wrapped)

    def test_rejects_non_block_shared_events(self, graph):
        with pytest.raises(TypeError):
            run_parallel_batch(
                run_random_graph_batch,
                sessions=8,
                workers=2,
                rng=1,
                shared_events=object(),
                graph=graph,
                group_size=4,
                onion_routers=2,
                copies=1,
                horizon=240.0,
            )


def _faults(kind):
    """Fresh fault keywords for one run: stateful objects are never reused."""
    if kind == "churn":
        return dict(
            churn=NodeChurnSchedule.from_availability(
                30, 0.7, 20.0, rng=np.random.default_rng(5)
            )
        )
    if kind == "relays+recovery":
        return dict(
            relays=DroppingRelays(range(0, 30, 3), 0.5, rng=np.random.default_rng(6)),
            recovery=RecoveryPolicy(custody_timeout=30.0, max_retries=2),
        )
    return dict(
        failstop=FailStopSchedule(30, death_rate=1 / 400, rng=np.random.default_rng(8))
    )


def _full_signature(pairs):
    return [f"{route!r}|{outcome!r}" for route, outcome in pairs]


class TestSharedStreamTasks:
    """A worker task runs its chunks in one engine over the shared stream.

    Each merge must equal replaying every chunk serially, on its own
    pickled copy of the keywords (what a task of its own would get), and
    must not depend on how many processes the chunks are spread over.
    """

    CHUNKS = 8
    HORIZON = 240.0

    def _block(self, graph):
        return ExponentialContactProcess(
            graph, rng=np.random.default_rng(33)
        ).events_until_columnar(self.HORIZON)

    def _replay(self, fn, size_keyword, total, block, kwargs):
        sizes = chunk_sizes(total, self.CHUNKS)
        seeds = spawn_chunk_seeds(np.random.default_rng(17), len(sizes))
        return [
            fn(
                **{size_keyword: size},
                rng=np.random.default_rng(seed),
                events=ColumnarEventSource(block),
                **pickle.loads(pickle.dumps(kwargs)),
            )
            for size, seed in zip(sizes, seeds)
        ]

    def _faulty(self, graph, block, kind, processes):
        with WorkerPool(4, max_processes=processes) as pool:
            return _full_signature(
                run_parallel_batch(
                    run_faulty_graph_batch,
                    sessions=24,
                    workers=pool,
                    rng=np.random.default_rng(17),
                    chunks=self.CHUNKS,
                    shared_events=block,
                    graph=graph,
                    group_size=4,
                    onion_routers=2,
                    copies=1,
                    horizon=self.HORIZON,
                    **_faults(kind),
                )
            )

    def _faulty_replay(self, graph, block, kind):
        kwargs = dict(
            graph=graph, group_size=4, onion_routers=2, copies=1,
            horizon=self.HORIZON, **_faults(kind),
        )
        parts = self._replay(run_faulty_graph_batch, "sessions", 24, block, kwargs)
        return _full_signature([pair for part in parts for pair in part])

    @pytest.mark.parametrize("kind", ["churn", "relays+recovery", "failstop"])
    def test_faulty_batch_matches_per_chunk_replay(self, graph, kind):
        block = self._block(graph)
        expected = self._faulty_replay(graph, block, kind)
        for processes in (1, 2, 3):
            assert self._faulty(graph, block, kind, processes) == expected, processes

    def test_chunks_sharing_one_relays_object_are_caught(self, graph, monkeypatch):
        # Planted fault: every chunk of a task draws its drops from the
        # task's one relays object instead of a copy of its own.
        import types

        from repro.experiments import runners

        block = self._block(graph)
        expected = self._faulty_replay(graph, block, "relays+recovery")
        monkeypatch.setattr(runners, "copy", types.SimpleNamespace(deepcopy=lambda x: x))
        assert self._faulty(graph, block, "relays+recovery", 1) != expected

    def test_fused_sweep_matches_per_chunk_replay(self, graph):
        block = self._block(graph)
        variants = [
            SweepVariant(f"L={copies}", 4, 2, copies=copies) for copies in (1, 2, 4)
        ] + [SweepVariant("K=3", 4, 3, copies=2, spray_policy=SprayPolicy.BINARY)]
        kwargs = dict(graph=graph, horizon=self.HORIZON, variants=variants)
        parts = self._replay(run_fused_graph_sweep, "sessions_per_variant", 12, block, kwargs)
        expected = [
            _full_signature([pair for part in parts for pair in part[slot]])
            for slot in range(len(variants))
        ]
        for processes in (1, 2, 3):
            with WorkerPool(4, max_processes=processes) as pool:
                merged = run_parallel_fused_sweep(
                    run_fused_graph_sweep,
                    variants=variants,
                    sessions_per_variant=12,
                    workers=pool,
                    rng=np.random.default_rng(17),
                    chunks=self.CHUNKS,
                    shared_events=block,
                    graph=graph,
                    horizon=self.HORIZON,
                )
            assert [_full_signature(pairs) for pairs in merged] == expected, processes

    def test_per_chunk_sessions_need_a_shared_stream(self, graph):
        with pytest.raises(ValueError, match="shared events"):
            run_random_graph_batch(
                graph, 4, 2, copies=1, horizon=self.HORIZON,
                sessions=[2, 2], rng=[1, 2],
            )
        with pytest.raises(ValueError, match="equal length"):
            run_random_graph_batch(
                graph, 4, 2, copies=1, horizon=self.HORIZON,
                sessions=[2, 2], rng=[1], events=self._block(graph),
            )
