"""Thread-safety of a shared Hypoexponential instance.

An instance may be shared across threads, and its one lazily-populated
cache (the Eq. 5 coefficients that ``coefficients()`` and ``pdf`` read)
must tolerate concurrent first use. The contract is single-assignment
publication: the cache is computed into a local and installed with one
store, so a concurrent reader observes either ``None`` (and recomputes)
or the final value — never a provisional intermediate. The distinct-rate
predicate is recomputed on every call, and every thread must see the
same answer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.hypoexponential import Hypoexponential

THREADS = 8
ROUNDS = 25


def _hammer(target, threads=THREADS):
    """Run ``target`` concurrently, releasing all threads on one barrier."""
    barrier = threading.Barrier(threads)
    failures = []

    def runner():
        barrier.wait()
        try:
            target()
        except Exception as error:  # pragma: no cover - only on regression
            failures.append(error)

    pool = [threading.Thread(target=runner) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if failures:
        raise failures[0]


def test_concurrent_cdf_matches_serial():
    grid = np.linspace(0.0, 30.0, 101)
    for _ in range(ROUNDS):
        shared = Hypoexponential([0.5, 0.9, 1.4, 2.2])
        expected = Hypoexponential([0.5, 0.9, 1.4, 2.2]).cdf(grid)
        results = []
        lock = threading.Lock()

        def sweep():
            values = shared.cdf(grid)
            with lock:
                results.append(values)

        _hammer(sweep)
        assert len(results) == THREADS
        for values in results:
            np.testing.assert_array_equal(values, expected)


def test_concurrent_pdf_matches_serial():
    grid = np.linspace(0.01, 20.0, 101)
    for _ in range(ROUNDS):
        shared = Hypoexponential([1.0, 1.7, 3.1])
        expected = Hypoexponential([1.0, 1.7, 3.1]).pdf(grid)
        results = []
        lock = threading.Lock()

        def sweep():
            values = shared.pdf(grid)
            with lock:
                results.append(values)

        _hammer(sweep)
        for values in results:
            np.testing.assert_array_equal(values, expected)


def test_concurrent_distinct_rate_predicate_near_coincident():
    # Rates separated by less than the relative-gap tolerance: the
    # predicate must come out False in every thread. The historical race
    # installed a provisional True before scanning the gaps, so a
    # concurrent reader could observe the wrong answer and take the
    # (invalid) closed-form path.
    rates = [1.0, 1.0 + 1e-7, 2.0]
    for _ in range(ROUNDS):
        shared = Hypoexponential(rates)
        observed = []
        lock = threading.Lock()

        def probe():
            value = shared.has_distinct_rates()
            with lock:
                observed.append(value)

        _hammer(probe)
        assert observed == [False] * THREADS


def test_concurrent_coefficients_single_value():
    for _ in range(ROUNDS):
        shared = Hypoexponential([0.3, 0.8, 1.9, 4.2])
        seen = []
        lock = threading.Lock()

        def fetch():
            coeffs = shared.coefficients()
            with lock:
                seen.append(coeffs)

        _hammer(fetch)
        for coeffs in seen:
            np.testing.assert_array_equal(coeffs, seen[0])
        assert seen[0] == pytest.approx(seen[0])  # finite, no NaN leak
        assert float(np.sum(seen[0])) == pytest.approx(1.0)


def test_concurrent_mixed_methods_agree():
    # Closed-form and matrix evaluation hammered together on one shared
    # instance: both caches populate under contention and both paths
    # agree with each other (the matrix path is the ground truth).
    grid = np.linspace(0.0, 12.0, 41)
    shared = Hypoexponential([0.7, 1.3, 2.9])
    matrix = Hypoexponential([0.7, 1.3, 2.9], method="matrix")
    expected = matrix.cdf(grid)
    results = []
    lock = threading.Lock()

    def closed_form():
        values = shared.cdf(grid)
        with lock:
            results.append(values)

    def matrix_form():
        values = matrix.cdf(grid)
        with lock:
            results.append(values)

    barrier = threading.Barrier(THREADS)

    def runner(target):
        barrier.wait()
        target()

    pool = [
        threading.Thread(
            target=runner, args=(closed_form if i % 2 else matrix_form,)
        )
        for i in range(THREADS)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert len(results) == THREADS
    for values in results:
        np.testing.assert_allclose(values, expected, atol=1e-9)
