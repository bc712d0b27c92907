"""Struct-of-arrays batch kernel for the paper's security measurements.

The delivery half of the reproduction sweeps sessions through
:mod:`repro.sim.kernel`; this module is its adversary-side sibling. The
traceable-rate (Eq. 1, 8–12) and path-anonymity (Eq. 13–20) "Simulation"
curves are Monte Carlo estimates over thousands of independent trials —
each a (group membership, route, copy paths, compromised set) tuple —
whose scoring is pure arithmetic. Walking them one
:class:`~repro.adversary.tracer.PathTracer` at a time leaves per-object
Python dispatch as the dominant cost, exactly the situation the
struct-of-arrays delivery kernels fixed.

The kernel splits a Monte Carlo run into two phases:

* **sampling** — :func:`sample_security_block` draws *every* trial's
  endpoints, route groups, per-copy group members, and compromise key
  column in one pass of vectorized RNG calls, laid out as
  struct-of-arrays in a :class:`SecurityTrialBlock`. The block is sampled
  once at the *widest* grid point (``k_max`` onion groups, ``l_max``
  copies) so a fused ``(c, K, L)`` sweep shares it: variant ``K`` reads
  the first ``K`` route columns, variant ``L`` the first ``L`` copy
  columns, and every compromise rate re-derives its mask from the same
  key column — common random numbers across the whole grid.
* **scoring** — :class:`SecurityBatchKernel` turns the block plus one
  :class:`SecuritySweepVariant` into per-trial traceable rates and
  anonymity values without touching a Python object per trial. The
  compromise model sorts the block's rate-independent selection priority
  once (:meth:`~repro.adversary.compromise.CompromiseModel.mask_rule`),
  so each rate's mask is one comparison, and :func:`trial_scores` turns
  a mask into Eq. 1 run-length square sums and Eq. 20 exposure counts in
  one walk over the η hop columns. The entropy ratio is a table lookup
  (the observed exposure only takes ``η + 1`` integer values, so
  :func:`~repro.analysis.anonymity.path_anonymity_exact` is evaluated
  once per value, not once per trial). Scoring is numpy on every
  platform; ``$REPRO_KERNEL_BACKEND`` selects the delivery kernels' backend
  only.

The kernel is the only security scorer: every security runner, figure
and parallel chunk goes through it. Its reference semantics are the
per-trial objects (:class:`~repro.adversary.tracer.PathTracer`,
:func:`~repro.adversary.observer.observed_path_anonymity`); the test
suite walks the *same block* row by row through them and asserts exact
float equality with the kernel, mirroring the delivery kernels'
byte-identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.adversary.compromise import CompromiseModel
from repro.analysis.anonymity import path_anonymity_exact
from repro.core.onion_groups import OnionGroupDirectory
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "ANONYMITY_CACHE_SIZE",
    "SecuritySweepVariant",
    "SecurityTrialBlock",
    "SecurityBatchKernel",
    "sample_security_block",
    "anonymity_lookup",
    "trial_scores",
]


@dataclass(frozen=True)
class SecuritySweepVariant:
    """One grid point of a fused security sweep.

    The security counterpart of the delivery layer's
    :class:`~repro.experiments.runners.SweepVariant`: a fused sweep scores
    several ``(compromise rate c, onion count K, copies L)`` points against
    *one* shared :class:`SecurityTrialBlock`, so between-point comparisons
    see the same endpoints, routes, copy assignments, and compromise keys
    (common random numbers), and the block is sampled once instead of once
    per point.
    """

    label: str
    onion_routers: int
    copies: int = 1
    compromise_rate: float = 0.1


class SecurityTrialBlock:
    """Struct-of-arrays sample of a whole security Monte Carlo run.

    All arrays share the leading ``trials`` axis:

    ``sources`` / ``destinations``
        ``(trials,)`` endpoint node ids (uniform ordered pairs).
    ``copy_members``
        ``(trials, k_max, l_max)`` node ids: the member of hop ``k``'s
        onion group that copy ``l`` traverses. Copies hold distinct
        members while the group has enough, then wrap around: copy ``l``
        takes position ``l mod |group|`` of a uniform member order.
    ``compromise_keys``
        ``(trials, n)`` uniform keys consumed by
        :meth:`~repro.adversary.compromise.CompromiseModel.mask_from_keys`.
        Rate-independent, so one block serves every compromise rate of a
        fused sweep with nested compromised sets.

    A variant with ``K ≤ k_max`` onion routers and ``L ≤ l_max`` copies
    reads the leading ``K`` hop columns and ``L`` copy columns; sampling
    at the widest point keeps the narrower variants' draws identical to
    what a dedicated narrower block would hold (prefix property).
    """

    def __init__(
        self,
        n: int,
        group_size: int,
        sources: np.ndarray,
        destinations: np.ndarray,
        copy_members: np.ndarray,
        compromise_keys: np.ndarray,
        overlapping: bool,
    ):
        self.n = n
        self.group_size = group_size
        self.sources = sources
        self.destinations = destinations
        self.copy_members = copy_members
        self.compromise_keys = compromise_keys
        self.overlapping = overlapping

    @property
    def trials(self) -> int:
        """Number of Monte Carlo trials in the block."""
        return len(self.sources)

    @property
    def k_max(self) -> int:
        """Widest onion-router count the block was sampled at."""
        return self.copy_members.shape[1]

    @property
    def l_max(self) -> int:
        """Widest copy count the block was sampled at."""
        return self.copy_members.shape[2]

    def slice_trials(self, start: int, stop: int) -> "SecurityTrialBlock":
        """The sub-block of trial rows ``[start, stop)``, as views.

        Trials are mutually independent, so scoring a slice equals the
        matching rows of scoring the full block — this is what lets
        :func:`~repro.experiments.parallel.run_parallel_montecarlo` chunk
        one shared block across workers without copying any column.
        """
        if not (0 <= start <= stop <= self.trials):
            raise ValueError(
                f"trial slice [{start}, {stop}) out of range for "
                f"{self.trials} trials"
            )
        return SecurityTrialBlock(
            n=self.n,
            group_size=self.group_size,
            sources=self.sources[start:stop],
            destinations=self.destinations[start:stop],
            copy_members=self.copy_members[start:stop],
            compromise_keys=self.compromise_keys[start:stop],
            overlapping=self.overlapping,
        )


def _sample_endpoints_batch(
    n: int, trials: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform ordered (source, destination) pairs for every trial."""
    sources = rng.integers(0, n, size=trials)
    raw = rng.integers(0, n - 1, size=trials)
    destinations = raw + (raw >= sources)
    return sources, destinations


def _route_member_matrix(
    directory: OnionGroupDirectory,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The directory's membership as padded arrays.

    Returns ``(members, sizes, group_of)``: ``members`` is
    ``(group_count, g)`` with rows right-padded by repeating the first
    member (never selected — the modulo below stays inside ``sizes``),
    ``sizes`` the true member counts, ``group_of`` the node→group map.
    """
    g = directory.group_size
    count = directory.group_count
    members = np.zeros((count, g), dtype=np.int64)
    sizes = np.zeros(count, dtype=np.int64)
    for gid, row in enumerate(directory.groups):
        sizes[gid] = len(row)
        members[gid, : len(row)] = row
        if len(row) < g:
            members[gid, len(row) :] = row[0]
    group_of = np.zeros(directory.n, dtype=np.int64)
    for gid, row in enumerate(directory.groups):
        group_of[list(row)] = gid
    return members, sizes, group_of


def sample_security_block(
    n: int,
    group_size: int,
    k_max: int,
    l_max: int,
    trials: int,
    rng: RandomSource = None,
    overlapping: bool = False,
) -> SecurityTrialBlock:
    """Draw a :class:`SecurityTrialBlock` for ``trials`` Monte Carlo trials.

    One vectorized pass draws every trial. The RNG consumption order is
    fixed and documented (group membership, endpoints, route keys,
    member-order keys, compromise keys), so a seed pins every trial of
    the block — scoring consumes the block, never the generator, which is
    what lets a row-by-row reference walk of the same block match the
    kernel exactly.

    ``overlapping`` mirrors
    :func:`~repro.experiments.runners.select_overlapping_route`: instead
    of ``K`` distinct directory groups, every hop draws a fresh random
    ``g``-subset of the non-endpoint nodes (needed when ``K·g`` approaches
    ``n``, e.g. the paper's Cambridge setup).
    """
    check_positive_int(n, "n")
    check_positive_int(group_size, "group_size")
    check_positive_int(k_max, "k_max")
    check_positive_int(l_max, "l_max")
    check_positive_int(trials, "trials")
    generator = ensure_rng(rng)

    if overlapping:
        if group_size > n - 2:
            raise ValueError(
                f"group_size={group_size} exceeds the {n - 2} eligible nodes"
            )
        sources, destinations = _sample_endpoints_batch(n, trials, generator)
        # Per (trial, hop): random keys over all nodes; endpoints pushed to
        # +inf. The g smallest keys are a uniform g-subset, and the argsort
        # order within them is a uniform permutation — group choice and
        # member order in one draw.
        hop_keys = generator.random((trials, k_max, n))
        rows = np.arange(trials)
        hop_keys[rows, :, sources] = np.inf
        hop_keys[rows, :, destinations] = np.inf
        order = np.argsort(hop_keys, axis=2)[:, :, :group_size]
        take = np.arange(l_max) % group_size
        copy_members = order[:, :, take]
        return SecurityTrialBlock(
            n=n,
            group_size=group_size,
            sources=sources,
            destinations=destinations,
            copy_members=copy_members,
            compromise_keys=generator.random((trials, n)),
            overlapping=True,
        )

    directory = OnionGroupDirectory(n, group_size, rng=generator)
    members, sizes, group_of = _route_member_matrix(directory)
    group_count = directory.group_count
    sources, destinations = _sample_endpoints_batch(n, trials, generator)

    # Route selection: random keys over groups, endpoint groups excluded
    # (the directory's avoid_endpoint_groups default); the k_max
    # smallest-keyed candidates in key order are the route's groups, so
    # any variant K reads a prefix.
    route_keys = generator.random((trials, group_count))
    rows = np.arange(trials)
    route_keys[rows, group_of[sources]] = np.inf
    route_keys[rows, group_of[destinations]] = np.inf
    candidates = np.isfinite(route_keys).sum(axis=1)
    if k_max > candidates.min():
        worst = int(candidates.min())
        raise ValueError(
            f"cannot pick K={k_max} distinct groups from {worst} candidates "
            f"(n={n}, g={group_size})"
        )
    route_groups = np.argsort(route_keys, axis=1)[:, :k_max]

    # Copy assignment: a uniform member order per (trial, hop); copy l
    # takes position l mod |group| — distinct members while they last,
    # then wrap-around.
    member_keys = generator.random((trials, k_max, group_size))
    hop_sizes = sizes[route_groups]  # (trials, k_max)
    # Pad slots beyond the true group size out of contention.
    slot = np.arange(group_size)[None, None, :]
    member_keys = np.where(slot < hop_sizes[:, :, None], member_keys, np.inf)
    order = np.argsort(member_keys, axis=2)
    pick = np.arange(l_max)[None, None, :] % hop_sizes[:, :, None]
    slot_of_copy = np.take_along_axis(order, pick, axis=2)
    copy_members = np.take_along_axis(
        members[route_groups], slot_of_copy, axis=2
    )

    return SecurityTrialBlock(
        n=n,
        group_size=group_size,
        sources=sources,
        destinations=destinations,
        copy_members=copy_members,
        compromise_keys=generator.random((trials, n)),
        overlapping=False,
    )


#: Bound on :func:`anonymity_lookup`'s memoization: at most this many
#: distinct ``(n, η, group_size)`` tables stay cached (LRU evicted
#: beyond it), so fused sweeps over arbitrarily many grid shapes can
#: never grow the cache without limit. Each table holds ``η + 1``
#: floats, so the worst case stays a few hundred tiny arrays.
ANONYMITY_CACHE_SIZE = 256


@lru_cache(maxsize=ANONYMITY_CACHE_SIZE)
def anonymity_lookup(n: int, eta: int, group_size: int) -> np.ndarray:
    """``D(φ')`` for every possible observed exposure ``0 … η``.

    The simulation-side anonymity is
    :func:`~repro.analysis.anonymity.path_anonymity_exact` evaluated at an
    *integer* exposure count, so a full Monte Carlo run only ever needs
    these ``η + 1`` values — the kernel replaces per-trial ``lgamma``
    calls with one indexed gather from this table.
    :class:`SecurityBatchKernel` reports its hit/miss traffic against
    this cache in :attr:`~SecurityBatchKernel.stats`.
    """
    table = np.array(
        [
            path_anonymity_exact(
                n=n, eta=eta, group_size=group_size, compromised_on_path=exposed
            )
            for exposed in range(eta + 1)
        ]
    )
    table.setflags(write=False)
    return table


def trial_scores(
    mask: np.ndarray,
    sources: np.ndarray,
    copy_members: np.ndarray,
    onion_routers: int,
    copies: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial Eq. 1 run-length square sums and Eq. 20 exposure counts.

    ``mask`` is the ``(trials, n)`` compromise mask and ``copy_members``
    the block's full ``(trials, k_max, l_max)`` member array; the variant
    reads its leading ``onion_routers`` hop columns and ``copies`` copy
    columns. Returns int64 ``(sums, exposed)``: per trial, the sum of
    squared 1-run lengths over copy 0's η = K + 1 hop-sender bits (source
    first), and the number of path positions the adversary observes on
    any copy (the source is position 0 on every copy's path).

    The η columns are walked once with ``run = (run + 1)·b``: a bit
    extends the current run and a clear bit resets it. Adding ``2·run − b``
    per column adds ``1 + 3 + … + (2ℓ − 1) = ℓ²`` over a run of length ℓ,
    so no run needs closing at the end.
    """
    rows = np.arange(len(sources))
    carriers = mask[rows[:, None, None], copy_members[:, :onion_routers, :copies]]
    source_bits = mask[rows, sources]
    run = source_bits.astype(np.int64)
    sums = run.copy()
    for hop in range(onion_routers):
        bit = carriers[:, hop, 0]
        run = (run + 1) * bit
        sums += 2 * run - bit
    exposed = source_bits + carriers.any(axis=2).sum(axis=1)
    return sums, exposed


class SecurityBatchKernel:
    """Vectorized scorer of one :class:`SecurityTrialBlock`.

    Holds the block plus the compromise model and evaluates sweep variants
    against it. Each ``(c, K, L)`` grid point takes the rate's compromise
    mask from the model's
    :meth:`~repro.adversary.compromise.CompromiseModel.mask_rule` (prepared
    once per block), one :func:`trial_scores` pass for Eq. 1's run-length
    square sums and Eq. 20's exposure counts, and a table gather from
    :func:`anonymity_lookup` for the entropy ratio. :attr:`stats` profiles
    the run (variants scored, anonymity-table and mask-cache hit/miss
    traffic).

    The kernel holds one block and one model, so a variant's compromise
    mask is a pure function of its rate — a fused ``(c, K, L)`` grid that
    revisits each rate once per route shape derives the mask only on the
    first visit (:attr:`MASK_CACHE_SIZE` bounds the memory, evicting
    oldest-first).
    """

    #: Cap on per-rate compromise masks kept across :meth:`score_variant`
    #: calls. Each entry is a ``(trials, n)`` boolean array, so the worst
    #: case stays a few MB at the reference workload while any realistic
    #: rate grid fits entirely.
    MASK_CACHE_SIZE = 32

    #: Scoring runs on numpy whatever backend is selected, and nothing
    #: degrades. The two constants stay because the benchmark's tracer
    #: (``perfbench/tracer.py``) reads them around :meth:`score`.
    backend = "numpy"
    backend_fallbacks: Tuple[str, ...] = ()

    def __init__(self, block: SecurityTrialBlock, model: CompromiseModel):
        if model.n != block.n:
            raise ValueError(
                f"model covers n={model.n} nodes but the block holds n={block.n}"
            )
        self.block = block
        self.model = model
        self._mask_at = None
        self._mask_cache: Dict[float, np.ndarray] = {}
        self.stats = {
            "trials": block.trials,
            "variants_scored": 0,
            "anonymity_lookup_hits": 0,
            "anonymity_lookup_misses": 0,
            "mask_cache_hits": 0,
            "mask_cache_misses": 0,
        }

    def score_variant(
        self, variant: SecuritySweepVariant
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-trial ``(traceable rates, anonymity values)`` for one variant."""
        block = self.block
        onion_routers = variant.onion_routers
        if onion_routers > block.k_max or variant.copies > block.l_max:
            raise ValueError(
                f"variant needs K={onion_routers}, L={variant.copies} but the "
                f"block was sampled at k_max={block.k_max}, l_max={block.l_max}"
            )
        eta = onion_routers + 1

        rate = variant.compromise_rate
        mask = self._mask_cache.get(rate)
        if mask is None:
            self.stats["mask_cache_misses"] += 1
            if self._mask_at is None:
                self._mask_at = self.model.mask_rule(block.compromise_keys)
            mask = self._mask_at(rate)
            if len(self._mask_cache) >= self.MASK_CACHE_SIZE:
                self._mask_cache.pop(next(iter(self._mask_cache)))
            self._mask_cache[rate] = mask
        else:
            self.stats["mask_cache_hits"] += 1
        sums, exposed = trial_scores(
            mask, block.sources, block.copy_members, onion_routers, variant.copies
        )
        traceable = sums / float(eta**2)
        before = anonymity_lookup.cache_info()
        table = anonymity_lookup(block.n, eta, block.group_size)
        after = anonymity_lookup.cache_info()
        self.stats["anonymity_lookup_hits"] += after.hits - before.hits
        self.stats["anonymity_lookup_misses"] += after.misses - before.misses
        self.stats["variants_scored"] += 1
        return traceable, table[exposed]

    def score(
        self, variants: Sequence[SecuritySweepVariant]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Score every variant of a fused sweep against the shared block."""
        return [self.score_variant(variant) for variant in variants]
