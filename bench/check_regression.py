#!/usr/bin/env python3
"""Bench regression gate: compare current BENCH_*.json against a committed
baseline and exit nonzero when a key metric regresses.

Usage:
    python3 bench/check_regression.py \
        --current-dir build/bench \
        --baseline-dir bench/BENCH_baseline \
        --out regression_diff.json \
        [--tolerance 0.05] [--timing-slack 3.0]

The manifest below names the metrics that gate the build. Three comparison
modes:

  exact  deterministic values (accuracies, bit-identity flags): the current
         value must match the baseline within a tiny epsilon. These do not
         depend on the host, only on the code, so any drift is a real change.
  min    throughput-style values: current must be >= baseline * (1 - slack).
         Host-dependent, so the slack is generous (--timing-slack scales it);
         the gate catches order-of-magnitude algorithmic regressions, not CI
         machine jitter.
  max    latency-style values: current must be <= baseline * (1 + slack).

Machine-dependent discovery fields (dispatch.supported, dispatch.variants,
absolute wall-clock seconds) are deliberately absent from the manifest;
wall-clock speed gates on same-run ratios instead.

A missing current file fails the gate (the bench did not run); a missing
baseline file is reported and skipped so new benches can land before their
baseline does. The full per-metric comparison is written to --out for CI to
upload as an artifact.
"""

import argparse
import json
import math
import os
import re
import sys

# mode: "exact" (eps), "min"/"max" (relative slack, scaled by --timing-slack
# when host_dependent), "bool" (must equal baseline exactly).
# path syntax: dot-separated keys; [i] indexes a list; [key=value] selects
# the first list element whose `key` field equals `value`.
MANIFEST = [
    # -- search_time: algorithmic health of the RL search ------------------
    ("BENCH_search_time.json", "after.best_reward", "min", 0.02, False),
    ("BENCH_search_time.json", "after.cache_hit_rate", "min", 0.05, False),
    ("BENCH_search_time.json", "after.serial_evals_per_second",
     "min", 0.50, True),
    # DDPG learning speed: the same replayed update sequence timed under the
    # portable RL kernels and under the active variant in one process. A
    # same-host ratio, so it gates without --timing-slack; the floor (half
    # the baseline) still holds on AVX2-only runners. The two runs must also
    # agree bit for bit.
    ("BENCH_search_time.json", "learning_speedup_vs_portable",
     "min", 0.50, False),
    ("BENCH_search_time.json", "learning.identical", "bool", 0.0, False),
    # Robustness-aware search overhead: the measured-MC reward run must stay
    # close to the plain-reward anchor. The gated value is a same-host ratio,
    # so it needs far less slack than absolute wall clock — the tolerance is
    # sized to keep the ceiling near the 2x acceptance bound even with CI
    # timing slack applied.
    ("BENCH_search_time.json", "robust_search.mc_over_plain",
     "max", 0.10, True),
    ("BENCH_search_time.json", "robust_search.mc_memo_hit_rate",
     "min", 0.30, False),
    # -- functional_throughput: kernel + datapath health -------------------
    ("BENCH_functional_throughput.json",
     "kernels.[name=bit_serial].speedup", "min", 0.50, True),
    ("BENCH_functional_throughput.json",
     "forward.[datapath=integer].speedup", "min", 0.50, True),
    ("BENCH_functional_throughput.json",
     "row_block_split.identical", "bool", 0.0, False),
    ("BENCH_functional_throughput.json",
     "monte_carlo.configs.[config=AutoHet (RL)].reports_identical",
     "bool", 0.0, False),
    ("BENCH_functional_throughput.json",
     "monte_carlo.configs.[config=AutoHet (RL)].speedup",
     "min", 0.50, True),
    # -- fault_sweep: deterministic accuracy under injected faults ---------
    ("BENCH_fault_sweep.json",
     "series.[name=AutoHet (RL)].points.[0].accuracy_mean",
     "exact", 1e-9, False),
    ("BENCH_fault_sweep.json",
     "series.[name=AutoHet (RL)].points.[0].mean_logit_error",
     "exact", 1e-9, False),
    ("BENCH_fault_sweep.json",
     "series.[name=AutoHet (RL)].points.[1].accuracy_mean",
     "exact", 1e-9, False),
    ("BENCH_fault_sweep.json",
     "series.[name=AutoHet (RL)].points.[1].stuck_cells",
     "exact", 0.0, False),
    ("BENCH_fault_sweep.json",
     "series.[name=AutoHet (RL)].points.[4].accuracy_mean",
     "exact", 1e-9, False),
    ("BENCH_fault_sweep.json",
     "series.[name=Homo(576x512)].points.[9].accuracy_mean",
     "exact", 1e-9, False),
    # Fixed mode runs exactly the configured budget — no adaptivity here.
    ("BENCH_fault_sweep.json",
     "series.[name=AutoHet (RL)].points.[0].mc_trials_run",
     "exact", 0.0, False),
    # -- fault_sweep (adaptive budget): early-stopping health --------------
    # The adaptive run is fully deterministic (seeded trial stream, chunked
    # stopping decisions), but trial counts may legitimately shift when the
    # stopping rule or budget defaults change — gate the floor, not the bits.
    # The savings floor (baseline ~3.67x, tolerance 0.15 -> >= ~3.1x) keeps
    # the >= 3x acceptance property; the rate-0 row must stop at the min
    # clamp (2 run, 13 of 15 saved).
    ("BENCH_fault_sweep_adaptive.json", "mc_savings_ratio",
     "min", 0.15, False),
    ("BENCH_fault_sweep_adaptive.json",
     "series.[name=AutoHet (RL)].points.[0].mc_trials_run",
     "exact", 0.0, False),
    ("BENCH_fault_sweep_adaptive.json",
     "series.[name=AutoHet (RL)].points.[0].mc_trials_saved",
     "min", 0.30, False),
    ("BENCH_fault_sweep_adaptive.json",
     "series.[name=AutoHet (RL)].points.[0].accuracy_mean",
     "exact", 1e-9, False),
    # -- serving_sim: multi-tenant serving under swap pressure -------------
    # The serving report is fully deterministic (fixed-shape plans, seeded
    # traffic, simulated clock), so counts, percentiles, and energies gate
    # exactly; only the host wall-clock simulation rate gets slack.
    ("BENCH_serving.json", "totals.requests", "exact", 0.0, False),
    ("BENCH_serving.json", "totals.batches", "exact", 0.0, False),
    ("BENCH_serving.json", "totals.swap_ins", "exact", 0.0, False),
    ("BENCH_serving.json", "totals.evictions", "exact", 0.0, False),
    ("BENCH_serving.json", "totals.sustained_qps", "exact", 1e-12, False),
    ("BENCH_serving.json", "totals.latency_ms.p50", "exact", 1e-12, False),
    ("BENCH_serving.json", "totals.latency_ms.p99", "exact", 1e-12, False),
    ("BENCH_serving.json", "totals.energy_per_request_nj",
     "exact", 1e-12, False),
    ("BENCH_serving.json", "models.[network=LeNet5].latency_ms.p99",
     "exact", 1e-12, False),
    ("BENCH_serving.json", "models.[network=AlexNet].latency_ms.p99",
     "exact", 1e-12, False),
    ("BENCH_serving_host.json", "sim_requests_per_s", "min", 0.50, True),
]

_SELECTOR = re.compile(r"^\[(.+?)=(.+)\]$")
_INDEX = re.compile(r"^\[(\d+)\]$")


def resolve(doc, path):
    """Walks `doc` along a dot-separated path; raises KeyError on a miss."""
    node = doc
    for part in path.split("."):
        m = _INDEX.match(part)
        if m:
            node = node[int(m.group(1))]
            continue
        m = _SELECTOR.match(part)
        if m:
            key, want = m.group(1), m.group(2)
            for elem in node:
                if str(elem.get(key)) == want:
                    node = elem
                    break
            else:
                raise KeyError(f"no element with {key}={want} in {part}")
            continue
        node = node[part]
    return node


def compare(mode, tol, baseline, current):
    """Returns (ok, detail) for one metric."""
    if mode == "bool":
        return current == baseline, f"want {baseline}, got {current}"
    b, c = float(baseline), float(current)
    if mode == "exact":
        scale = max(1.0, abs(b))
        ok = math.isfinite(c) and abs(c - b) <= tol * scale
        return ok, f"|{c} - {b}| <= {tol} * {scale}"
    if mode == "min":
        floor = b * (1.0 - tol)
        return c >= floor, f"{c} >= {floor} (baseline {b}, slack {tol})"
    if mode == "max":
        ceil = b * (1.0 + tol)
        return c <= ceil, f"{c} <= {ceil} (baseline {b}, slack {tol})"
    raise ValueError(f"unknown mode {mode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current-dir", required=True,
                    help="directory with freshly produced BENCH_*.json")
    ap.add_argument("--baseline-dir", required=True,
                    help="directory with committed baseline BENCH_*.json")
    ap.add_argument("--out", default="regression_diff.json",
                    help="where to write the per-metric comparison")
    ap.add_argument("--tolerance", type=float, default=1.0,
                    help="multiplier on every manifest tolerance (default 1)")
    ap.add_argument("--timing-slack", type=float, default=1.0,
                    help="extra multiplier on host-dependent tolerances "
                         "(use >1 on noisy CI runners)")
    args = ap.parse_args()

    results = []
    regressions = 0
    skipped = 0
    docs = {}

    def load(directory, name):
        path = os.path.join(directory, name)
        if path not in docs:
            with open(path, "r", encoding="utf-8") as f:
                docs[path] = json.load(f)
        return docs[path]

    for bench_file, path, mode, tol, host_dependent in MANIFEST:
        entry = {"file": bench_file, "metric": path, "mode": mode}
        tol_eff = tol * args.tolerance
        if host_dependent:
            tol_eff *= args.timing_slack
        entry["tolerance"] = tol_eff
        try:
            current = resolve(load(args.current_dir, bench_file), path)
        except FileNotFoundError:
            entry["status"] = "regression"
            entry["detail"] = "current bench output missing"
            regressions += 1
            results.append(entry)
            continue
        except (KeyError, IndexError, TypeError) as exc:
            entry["status"] = "regression"
            entry["detail"] = f"metric missing from current output: {exc}"
            regressions += 1
            results.append(entry)
            continue
        try:
            baseline = resolve(load(args.baseline_dir, bench_file), path)
        except (FileNotFoundError, KeyError, IndexError, TypeError) as exc:
            entry["status"] = "skipped"
            entry["detail"] = f"no baseline: {exc}"
            entry["current"] = current
            skipped += 1
            results.append(entry)
            continue
        ok, detail = compare(mode, tol_eff, baseline, current)
        entry["baseline"] = baseline
        entry["current"] = current
        entry["detail"] = detail
        entry["status"] = "ok" if ok else "regression"
        if not ok:
            regressions += 1
        results.append(entry)

    summary = {
        "checked": len(MANIFEST),
        "regressions": regressions,
        "skipped": skipped,
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    width = max(len(r["metric"]) for r in results)
    for r in results:
        marker = {"ok": "  ok  ", "skipped": " skip ",
                  "regression": " FAIL "}[r["status"]]
        print(f"[{marker}] {r['file']}: {r['metric']:<{width}} "
              f"{r.get('detail', '')}")
    print(f"{len(results)} metrics checked, {regressions} regressions, "
          f"{skipped} skipped -> {args.out}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
