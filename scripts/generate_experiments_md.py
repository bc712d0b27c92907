#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the archived benchmark tables.

Run the benches first (they archive their regenerated series):

    pytest benchmarks/ --benchmark-only
    python scripts/generate_experiments_md.py
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "benchmarks" / "output"

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Every table below is regenerated by a benchmark under `benchmarks/`
(`pytest benchmarks/ --benchmark-only` refreshes them; this file is
assembled by `scripts/generate_experiments_md.py`). Absolute numbers are
not expected to match the paper — the contact substrates are re-generated,
and the haggle traces are synthetic stand-ins (DESIGN.md §3) — the
reproduction target is the *shape*: orderings, trends, crossovers, and the
analysis-vs-simulation gaps the paper itself reports. Each entry states
the paper's claim and whether the regenerated data shows it.
"""

# figure id -> (bench file, paper's claim, what we measured / verdict)
COMMENTARY = {
    "fig_4": (
        "test_fig04_delivery_group_size.py",
        "Delivery rate increases with the deadline and with the onion group "
        "size g (more forwarding opportunities); the analysis is a "
        "reasonable approximation of the simulation.",
        "Reproduced. Both analysis and simulation curves increase "
        "monotonically in T and are ordered g=1 < g=5 ≤ g=10 at every "
        "deadline. As in the paper's figure, the analysis lies above the "
        "simulation at small deadlines (the Eq. 4 last-hop anycast "
        "optimism, quantified in tests/test_integration.py) and the curves "
        "converge as T grows.",
    ),
    "fig_5": (
        "test_fig05_delivery_onion_count.py",
        "A smaller number of onion routers results in a higher delivery "
        "rate (shorter paths); a gap exists between numerical and "
        "simulation results but the trend matches.",
        "Reproduced. Delivery falls as K goes 3 → 5 → 10 in both model and "
        "simulation; the model stays optimistic at small T exactly as the "
        "paper describes.",
    ),
    "fig_6": (
        "test_fig06_traceable_compromised.py",
        "Traceable rate increases roughly in proportion to the compromised "
        "percentage and decreases with more onion routers; numerical and "
        "simulation results are close.",
        "Reproduced. Analysis and Monte Carlo simulation agree within a "
        "few percent at every point (the bench asserts |Δ| < 0.05); the "
        "curves grow superlinearly in c/n and are ordered 3 > 5 > 10 "
        "onions.",
    ),
    "fig_7": (
        "test_fig07_traceable_relays.py",
        "Adversaries trace a smaller portion of a path as the number of "
        "onion routers increases, for every compromised percentage.",
        "Reproduced. Traceable rate decreases monotonically in K for c/n ∈ "
        "{10%, 20%, 30%}; analysis ≈ simulation within 0.06 everywhere.",
    ),
    "fig_8": (
        "test_fig08_anonymity_compromised.py",
        "Path anonymity decreases as the compromised rate grows; larger "
        "group sizes preserve more anonymity (the next router hides among "
        "g candidates); analysis approximates simulation with high "
        "accuracy.",
        "Reproduced. Monotone decrease in c/n for every g; ordering "
        "g=1 < g=5 < g=10 at every compromise level in both model and "
        "simulation.",
    ),
    "fig_9": (
        "test_fig09_anonymity_group_size.py",
        "Path anonymity gradually increases with the group size for each "
        "compromised percentage.",
        "Reproduced. Analysis is monotone increasing in g; simulation "
        "tracks it closely, with the paper's ordering across c/n levels.",
    ),
    "fig_10": (
        "test_fig10_delivery_copies.py",
        "With g = 5, delivery rate increases with the number of copies L; "
        "a visible analysis-vs-simulation gap at deadlines below ~360 min, "
        "same trend otherwise.",
        "Reproduced. L=1 < L=3 ≤ L=5 at every deadline in both model "
        "(Eq. 7) and simulation; the model overshoots at small T as in the "
        "paper.",
    ),
    "fig_11": (
        "test_fig11_transmission_cost.py",
        "Transmission cost grows with L and K; the (K+2)·L analytical "
        "bound and the measured cost are very close; the non-anonymous "
        "baseline (2L) is cheapest.",
        "Reproduced. Measured cost is monotone in L, sits below the "
        "(K+2)L bound (the protocol uses ≈ (K+1)L transmissions when all "
        "copies complete), and always above the 2L baseline.",
    ),
    "fig_12": (
        "test_fig12_anonymity_copies.py",
        "Anonymity decreases when L increases (adversaries correlate the "
        "L paths); analysis is close to simulation below ~30% compromise "
        "and drifts beyond (the model assumes c ≪ n).",
        "Reproduced. Ordering L=1 > L=3 > L=5 at every compromise level; "
        "model and Monte Carlo agree tightly at low c/n with the expected "
        "drift at high rates.",
    ),
    "fig_13": (
        "test_fig13_anonymity_group_copies.py",
        "At c/n = 10%, anonymity increases with group size for every L, "
        "and the numerical and simulation results are very close.",
        "Reproduced. Monotone in g for L ∈ {1, 3, 5}; multi-copy curves "
        "sit below single-copy throughout.",
    ),
    "fig_14": (
        "test_fig14_cambridge_delivery.py",
        "On the dense Cambridge trace, messages are delivered within small "
        "delay — delivery reaches ~100% within 1800 s — and the analysis "
        "shows a similar trend.",
        "Reproduced in shape: the simulated delivery curve rises "
        "monotonically and exceeds 90% by 1800 s on the synthetic "
        "Cambridge-like trace; the analysis saturates earlier (last-hop "
        "anycast optimism is amplified at g = 10). Trend match, as the "
        "paper reports.",
    ),
    "fig_15": (
        "test_fig15_cambridge_traceable.py",
        "The traceable-rate analysis provides close approximation even on "
        "real traces because the security model is independent of "
        "inter-contact times.",
        "Reproduced. Analysis and simulation agree within a few percent on "
        "the n=12 topology across the whole compromise sweep.",
    ),
    "fig_16": (
        "test_fig16_cambridge_anonymity.py",
        "Path anonymity decreases (roughly linearly) with the compromised "
        "percentage; simulation and analysis are very close.",
        "Reproduced. Near-linear decrease; model within 0.08 of the Monte "
        "Carlo at every point (Stirling's approximation is coarser at "
        "n=12 than at n=100).",
    ),
    "fig_17": (
        "test_fig17_infocom_delivery.py",
        "On Infocom 2005 the delivery rate increases, plateaus during "
        "off-hours (no contacts at night), and resumes next day; "
        "multi-copy forwarding improves delivery only slightly; the "
        "analysis does not capture the off-hours but matches the trend "
        "for L = 1 otherwise.",
        "Reproduced. The simulated curve shows the plateau across the "
        "night (flat segment in the middle of the log-deadline sweep) and "
        "grows afterwards; L = 3, 5 gains are marginal; the trained-rate "
        "analysis overestimates inside the plateau exactly as the paper "
        "describes.",
    ),
    "fig_18": (
        "test_fig18_infocom_traceable.py",
        "The difference between the traceable-rate analysis and the "
        "simulation results is up to only a few percent.",
        "Reproduced. |analysis − simulation| < 0.05 across the sweep on "
        "the n=41 configuration.",
    ),
    "fig_19": (
        "test_fig19_infocom_anonymity.py",
        "For L = 1 numerical and simulation results match well; L = 3 is "
        "close up to ~30% compromise; L = 5 sits slightly below L = 3 (the "
        "copies' paths do not diversify much on this sparse trace).",
        "Reproduced. L=1 within 0.05 of the model up to 30% compromise "
        "(wider beyond, where the c ≪ n assumption breaks, as in the "
        "paper); at 30% compromise the simulated ordering is "
        "L=1 > L=3 > L=5.",
    ),
}

BENCH_HARNESS = """\
## Engine benchmark harness

`scripts/bench_engine.py` times pairs of live code paths on identical
inputs and reports the ratio between them: event production, the
engine's object loop vs the struct-of-arrays kernels (single-copy,
multi-copy and trace replay), and the numpy vs compiled `cc` backends.
perfbench (`BENCHMARK.json`, `perfbench/`) times the figures, the
stream, the worker pool and the per-layer split end to end; this harness
keeps only the ratios perfbench never runs side by side. The reference
workload is 1000 single-copy sessions on one n=100 random graph,
horizon 720, and the report lands in `BENCH_engine.json` at the repo
root:

    python scripts/bench_engine.py                # every workload
    python scripts/bench_engine.py --quick        # CI smoke (seconds)
    python scripts/bench_engine.py --mode kernel  # columnar + kernel pair only
    python scripts/bench_engine.py --mode multicopy  # L=4 spray kernel pair
    python scripts/bench_engine.py --mode trace   # trace-replay kernel pair
    python scripts/bench_engine.py --mode backend # numpy vs cc kernel sweep
    python scripts/bench_engine.py --repeat 3     # best-of-3 walls

Every arm reports its best-of-`--repeat` wall, and its stats, digest
and delivered count come from that same fastest attempt. Reading
`BENCH_engine.json`:

* `producer` — raw event generation for the workload's stream: the
  legacy lazy iterator vs the columnar window
  (`events_until_columnar`); `columnar_producer_speedup` is the ratio.
* `results.indexed` / `results.columnar` / `results.kernel` — wall
  seconds and dispatched events/second for the engine's object loop fed
  lazily by the event iterator (`consume="iterator"`), the object loop
  consuming one columnar window (`kernel=False`), and the
  struct-of-arrays `BatchKernel` sweep (`kernel=True`; see
  ARCHITECTURE.md "Performance"). Each row is split into
  `generation_seconds` and `dispatch_seconds`.
  `speedup_columnar_vs_indexed` and `speedup_kernel_vs_columnar`
  (quoted on the dispatch phase — the part the kernel replaces) are the
  headline ratios.
* `results.columnar-multicopy` / `results.kernel-multicopy` — the same
  graph and stream with L=4 source-sprayed copies per session: the
  `MultiCopyBatchKernel` workload, with
  `speedup_kernel_multicopy_vs_columnar` quoted on the dispatch phase.
* `results.columnar-trace` / `results.kernel-trace` — single-copy
  sessions replayed over the Infocom-2005-like synthetic trace
  (`TraceReplayProcess` feeding the kernels), with
  `speedup_kernel_trace_vs_columnar`; the "generation" phase here is
  replaying the recorded contacts into a columnar block. Heterogeneous
  inter-contact times load the kernels differently from the exponential
  model, so this pair stays next to the random-graph one.
* `results.backend-numpy` / `results.backend-cc` — the single-copy
  kernel sweep repeated per available compute backend (`numpy` always;
  the embedded-C `cc` backend when a C compiler is present — see
  ARCHITECTURE.md "Compiled backends") on a deeper K=10 route workload
  where per-event kernel cost dominates. Compile warm-up runs outside
  the timed region; `speedup_backend_vs_numpy` is the cc arm's ratio on
  the kernel sweep wall, and `identity_checks.backend` asserts both
  arms produced byte-identical per-session outcome digests.
  `tests/test_kernel_backend.py` proves outcome identity, the
  compiler-missing → numpy fallback, and mid-run degradation.
* `identical_outcomes` — true iff every timed pair (indexed / columnar /
  kernel on the single-copy workload, the columnar/kernel pairs of the
  multicopy and trace workloads, and the backend arms; the per-workload
  verdicts are in `identity_checks`) produced byte-identical outcomes
  (the script exits non-zero otherwise;
  `tests/test_contacts_columnar.py`,
  `tests/test_sim_dispatch_equivalence.py`,
  `tests/test_sim_kernel_equivalence.py`,
  `tests/test_sim_multicopy_kernel_equivalence.py`, and
  `tests/test_adversary_kernel_equivalence.py` prove the same
  invariants, including under faults and mixed kernel-ineligible
  batches).

The batch runners expose the kernels as a knob — `kernel=` on
`run_random_graph_batch` / `run_faulty_graph_batch` / `run_trace_batch`
and the fused sweep runners (on unless `False`); `run_parallel_batch` /
`run_parallel_fused_sweep` pass it to the batch function with its other
keywords and have no knob of their own. The
figure runners take no such knob: they use the kernels wherever a
session is eligible and fall back per session wherever faults,
recovery, or keyrings make it ineligible. Grid figures (4, 5, 10, 11,
14, 17) run *fused*: every grid point's sessions share one engine pass
over one contact window, so the whole grid advances in a single kernel
invocation per kernel class with common random numbers across points
(see ARCHITECTURE.md "Sweep fusion"). The security figures (6–9, 12,
13, 15/16/18/19) always score through the security kernel and carry a
`compromise_model=` strategy selector (`uniform` / `bernoulli` /
`targeted` / `stake`, or an instance; `--compromise-model` on the CLI),
and fuse their whole `(c, K, L)` grid onto one shared trial block per
group size; they score on numpy alone. The delivery kernels' compute
backend comes from the `REPRO_KERNEL_BACKEND` environment variable (the
figure runners and the CLI take no backend option) — numpy by default,
the embedded-C `cc` backend when a C compiler is available,
byte-identical outcomes either way. The variable does not affect the
security figures. perfbench's `security-figs` workload times the
security scoring end to end.

Numbers are machine-dependent: CI archives a `--quick` run plus
reference-workload `--mode kernel --repeat 3` and
`--mode multicopy --repeat 3` runs (best-of-3 to match how the committed
baseline is produced) as build artifacts, and the compiled-backends job
runs `--mode backend --repeat 3` with `cc` compiled, asserting that
the compiled arm ran and that its digests match numpy. `scripts/bench_delta.py` prints a delta table against the
committed baseline — bench modes present on only one side are reported
as "new" / "not in current run" rather than silently skipped. The delta
is a *soft gate*: machine-independent ratio rows (producer,
columnar-vs-indexed, the kernel, multicopy and trace pairs, and the
single-copy backend ratio) that regress more than 25% on a matching
workload fail the step (`--allow-regression` is the escape hatch for
intentional trade-offs landing with a refreshed baseline); absolute
rows and mismatched workloads stay report-only. The broadcast scan the
engine replaced lives on as a test oracle
(`tests.helpers.BroadcastEngine`).
"""

RESILIENCE = """\
## Resilient execution and the chaos harness

Long sweeps run under a supervised execution layer (see ARCHITECTURE.md
"Resilience"): every multi-worker batch runs on a `WorkerPool`, and
every pool carries a `RetryPolicy` (`onion-dtn figure N --workers W`
wraps the whole figure in one; a bare worker count gets a private pool
per call). A chunk that times out, raises, or loses its worker process
is re-executed from its original `SeedSequence.spawn` seed, so the
merged figure is byte-identical to an unfailed run. Incidents are classified (`ChunkTimeout`, `WorkerCrash`,
`ChunkError`, `KernelFallback`, `CheckpointCorrupt`) and surfaced three
ways: a one-line `resilience:` summary on stderr after the run, a
structured `resilience` block inside the figure's `metadata` (saved with
`--save`), and the chaos harness's JSON artifact. Figure metadata always
records `workers_requested` (1 picks the serial path; every larger
count gives the same chunk layout and seeds) next to
`workers_effective` (what the machine allowed: the pool caps its
processes at the CPU count, so `--workers` gives the same figure on
every host).

Checkpoints (`run_checkpointed`) are crash-safe and self-verifying:
atomic writes plus a SHA-256 checksum over the value payload. A corrupt
checkpoint is quarantined to a `.corrupt` sibling and its keys are
recomputed — a damaged resume degrades to a clean full run instead of
crashing or silently trusting rotten data.

`experiments/chaos_harness.py` is the end-to-end proof: it SIGKILLs two
workers, corrupts the checkpoint mid-sweep, hangs a worker past the
chunk timeout, and injects chunk- and kernel-level exceptions into a
live sweep, then requires byte-identical per-key digests against an
uninjected reference plus every failure class in the report. CI runs it
as the `chaos-smoke` job (hard 10-minute timeout) and uploads
`chaos_summary.json`; `tests/test_chaos_injection.py` carries the fast
deterministic versions of each scenario.
"""

ABLATIONS = """\
## Ablations and extension experiments

Beyond the paper's figures, `benchmarks/` isolates the design choices the
models rest on and extends the evaluation:

| bench | question | finding |
|---|---|---|
| `test_ablation_anycast.py` | how much does group anycast (the sum in Eq. 4) buy? | g=5 clearly outperforms g=1 at the same K, L |
| `test_ablation_spray_policy.py` | does the `Forward()` choice (source vs binary spray) matter? | comparable delivery at equal ticket budget; both within the (K+2)L bound |
| `test_ablation_anonymity_approx.py` | how tight is Eq. 19's Stirling closed form? | error shrinks with n; < 0.08 at n=100, < 0.03 at n=1000 |
| `test_ablation_hypoexp.py` | closed form (Eq. 5/6) vs uniformization | agree to 1e-7 when rates are distinct; closed form (and scipy `expm`) fail on near-equal rates, uniformization stays exact |
| `test_ablation_crypto.py` | cost of the layered-encryption substrate | ~0.3 ms per 3-layer build or full peel chain; 72 B overhead per layer |
| `test_ablation_refined_models.py` | how much of the Figs. 4/5 and 12 model gaps do the refined models close? | refined delivery and refined Eq. 20 land strictly closer to protocol simulation (anonymity gap 0.07 → 0.02) |
| `test_ablation_arden_lasthop.py` | what does ARDEN's destination-group last hop cost? | ~6 pp delivery at T=480 and ~0.7 extra transmissions, for last-hop destination anonymity |
| `test_ablation_route_selection.py` | is uniform group selection leaving delivery on the table? | rate-aware best-of-8 selection: 0.56 → 0.75 delivery at T=240 |
| `test_ablation_traffic_mixing.py` | does onion encryption alone resist global traffic analysis? | no: a quiet network is 100% chain-linkable; linkability falls to ~0.1 under busy concurrent traffic |
| `test_comparison_protocols.py` | onion vs TPS vs ALAR vs epidemic on one substrate | onion = leanest cost + no destination exposure; TPS exposes the destination iff the pivot is compromised; flooding schemes expose it always |
| `test_ext_e1_model_comparison.py` | Fig. E1: Eq. 6 vs refined model vs simulation | paper model ≥ refined ≥ simulation at every deadline |
| `test_ext_e2_protocol_curves.py` | Fig. E2: delivery curves across protocols | epidemic ≥ ALAR ≥ onion L=3 ≥ onion L=1; TPS between |
| `test_sensitivity_sweeps.py` | Figs. S1/S2: sensitivity to n and density | absolute entropy grows with n while the D ratio slightly falls; delivery collapses below ~40% contact density |
| `test_robustness_faults.py` | Figs. R1/R2: delivery under node churn and greyhole relays | churn sim ≈ sim on the availability-scaled graph (the `churned_graph` equivalence); survival-scaled Eq. 6 tracks greyhole sim; custody recovery buys back most dropped deliveries |

The robustness figures rest on two analytical equivalences
(`repro.analysis.robustness`): **availability scaling** — a contact
survives churn iff both endpoints are up (probability `a_i · a_j` in
stationarity), so evaluating the *unmodified* Eq. 6 on a graph whose
rates are scaled by `a_i · a_j` predicts delivery under the real on/off
churn process (Fig. R1's two simulation series coinciding is that
equivalence measured; the residual model gap is Eq. 6's usual last-hop
optimism, amplified as thinning slides delivery off the saturated part of
the CDF) — and **survival scaling** — a single copy survives hop *k* of a
greyhole route with probability `1 − f_k · p` independently of the hop's
duration, so `HypoexpCDF(T) · Π_k (1 − f_k · p)` predicts delivery without
recovery (Fig. R2).
"""


EXTENSION_FIGS = {
    "fig_e1": "Extension Fig. E1 — Eq. 6 vs refined model vs simulation",
    "fig_e2": "Extension Fig. E2 — delivery curves across protocols",
    "fig_s1": "Sensitivity Fig. S1 — metrics vs network size n",
    "fig_s2": "Sensitivity Fig. S2 — delivery vs contact-graph density",
    "fig_r1": "Robustness Fig. R1 — delivery vs node availability under churn",
    "fig_r2": "Robustness Fig. R2 — delivery vs greyhole drop probability",
}


def main() -> None:
    sections = [PREAMBLE]
    order = [f"fig_{i}" for i in range(4, 20)]
    missing = []
    for slug in order:
        bench, claim, verdict = COMMENTARY[slug]
        table_path = OUTPUT / f"{slug}.txt"
        sections.append(f"## {slug.replace('_', '. ').replace('fig', 'Fig')}\n")
        sections.append(f"*Bench:* `benchmarks/{bench}`\n")
        sections.append(f"**Paper:** {claim}\n")
        sections.append(f"**Measured:** {verdict}\n")
        if table_path.exists():
            sections.append("```\n" + table_path.read_text().rstrip() + "\n```\n")
        else:
            missing.append(slug)
            sections.append("_(table not yet generated — run the bench)_\n")
    sections.append(BENCH_HARNESS)
    sections.append(RESILIENCE)
    sections.append(ABLATIONS)
    extension_sections = []
    for slug, title in EXTENSION_FIGS.items():
        table_path = OUTPUT / f"{slug}.txt"
        if table_path.exists():
            extension_sections.append(f"### {title}\n")
            extension_sections.append(
                "```\n" + table_path.read_text().rstrip() + "\n```\n"
            )
    if extension_sections:
        sections.append("## Extension figure tables\n")
        sections.extend(extension_sections)
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(sections))
    print(f"wrote EXPERIMENTS.md ({len(order) - len(missing)}/{len(order)} "
          f"figures with tables)")
    if missing:
        print("missing tables:", ", ".join(missing))


if __name__ == "__main__":
    main()
