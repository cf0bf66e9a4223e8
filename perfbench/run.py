#!/usr/bin/env python3
"""End-to-end benchmark of the four AutoHet workflows.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py compare <base> <new>

The first form builds the harness (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), runs one workload in one process and
prints a summary followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics. The full result, with provenance, goes to
<build>/results/<workload>-seed<n>-trace<t>.json (and the traced run's
spans to ...-spans.json, a Chrome trace).

The second form compares two results files, or two directories of them,
pairing runs by workload, trace mode and seed. It refuses (exit 3) to
compare runs whose provenance differs in anything but the commit.
"""
import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
HARNESS_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TIME_SCALE = {"_s": (1.0, "s"), "_ms": (1e3, "ms"), "_us": (1e6, "us")}
# Provenance that must match for two runs to be comparable; the commit is
# what a comparison compares, so it may differ.
PROVENANCE_KEYS = ("host_cores", "kernel", "kernel_override", "pool_threads",
                   "build_type", "obs", "seconds")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def time_unit(name):
    """(scale from seconds, unit) of a span named by its unit suffix."""
    for suffix, scale in TIME_SCALE.items():
        if name.endswith(suffix):
            return scale
    raise ValueError("span name without a time-unit suffix: " + name)


def tail_summary(samples):
    """(p50, tail, n) of a sample list.

    The tail is the highest percentile with at least 10 samples beyond it:
    the 11th-largest sample. Below 21 samples that percentile would sit
    under the median, and the tail is the largest sample instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    tail = ordered[n - 11] if n >= 21 else ordered[-1]
    return statistics.median(ordered), tail, n


def part_throughput(parts):
    """Operations per second of one repetition assembled from its parts.

    `parts` holds one {"ops", "seconds"} entry per repetition; every
    repetition ran the run's seed and so did the same work, part by part.
    Each part (a search episode, an MC grid point, a simulate call) counts
    with its fastest time across the repetitions. Host times are read on
    their fast side because, on a shared host, other tenants only ever slow
    a part down, in phases lasting seconds to minutes: the fastest time
    tracks the code, the median tracks the neighbours.
    """
    ops = parts[0]["ops"]
    if not ops or any(p["ops"] != ops or len(p["seconds"]) != len(ops)
                      for p in parts):
        raise ValueError("repetitions differ in their parts")
    columns = zip(*(p["seconds"] for p in parts))
    return sum(ops) / sum(min(c) for c in columns)


def derive_metrics(raw, trace, bench):
    """Turns the harness's raw measurements into BENCHMARK.json's metrics.

    Returns {name: {"value", "unit"}}; raises ValueError when the set of
    names or a unit disagrees with BENCHMARK.json.
    """
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    values = {}
    if not trace:
        values["setup_s"] = min(raw["setup_s"])
        values["ops_per_s"] = part_throughput(raw["parts"])
        values["peak_rss_mb"] = raw["peak_rss_mb"]
        values["sim_energy_nj"] = raw["sim"]["sim_energy_nj"]
        derived_units = dict(units)
    else:
        derived_units = {}
        for name, samples in raw["samples"].items():
            scale, unit = time_unit(name)
            p50, tail, n = tail_summary(samples)
            values[name + ".p50"] = p50 * scale
            values[name + ".tail"] = tail * scale
            values[name + ".n"] = n
            derived_units.update({name + ".p50": unit, name + ".tail": unit,
                                  name + ".n": "count"})
        values.update(raw["values"])
        # Share of the search's time spent in DDPG updates.
        updates = raw["values"].get("rl.updates", 0)
        search = raw["samples"].get("autohet.search_s")
        values["rl.share"] = (
            updates * statistics.median(raw["samples"]["rl.update_us"]) /
            statistics.median(search) if updates and search else 0.0)
        for name in values:
            derived_units.setdefault(name, units.get(name))
    if set(values) != set(units):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "unexpected %s" % (sorted(set(units) - set(values)),
                                            sorted(set(values) - set(units))))
    for name, unit in derived_units.items():
        if unit != units[name]:
            raise ValueError("%s: unit %s, BENCHMARK.json says %s" %
                             (name, unit, units[name]))
    return {name: {"value": values[name], "unit": units[name]}
            for name in sorted(values)}


def source_commit():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no AutoHet sources next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out_dir, "-j", jobs,
              "--target", "perfbench_harness"]]
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out_dir, "perfbench_harness")


def run(args):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        print("perfbench: unknown workload %s (have %s)" %
              (args.workload, ", ".join(workloads)), file=sys.stderr)
        return 2
    out_dir = build_dir()
    harness = build(out_dir)
    if harness is None:
        return 2
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", stem + "-spans.json"]
    else:
        cmd += ["--episode-log", stem + "-episodes.jsonl"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print("perfbench: harness exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout)
    try:
        metrics = derive_metrics(raw, args.trace, bench)
    except (ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    failures = list(raw["failures"])
    if not args.trace:
        for name, m in metrics.items():
            if not m["value"] > 0:
                failures.append("%s is not positive" % name)
    attempted = max(1, raw["attempted"])
    failed = min(len(failures), attempted)
    provenance = dict(raw["provenance"], commit=source_commit(),
                      seconds=args.seconds)
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "provenance": provenance,
              "attempted": attempted, "failed": failed, "failures": failures,
              "sim": raw["sim"], "metrics": metrics,
              "repetitions": {"parts": raw["parts"],
                              "setup_s": raw["setup_s"]}}
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    print("perfbench %s seed %d trace %d: %s" %
          (args.workload, args.seed, args.trace, json.dumps(provenance)))
    for name, m in metrics.items():
        print("  %-40s %14.6g %-6s (%s is better)" %
              (name, m["value"], m["unit"], better[name]))
    print("  simulated: " + json.dumps(raw["sim"], sort_keys=True))
    for failure in failures:
        print("  FAILED: " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def load_results(path):
    paths = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if f.endswith(".json") and not f.endswith("-spans.json"))
    runs = {}
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        runs[(r["workload"], r["trace"], r["seed"])] = r
    return runs


def compare(args):
    """Median of each metric per workload, base vs new, on paired seeds."""
    bench = load_benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load_results(args.base), load_results(args.new)
    keys = sorted(set(base) & set(new))
    if not keys:
        print("perfbench compare: no runs with the same workload, trace "
              "mode and seed", file=sys.stderr)
        return 2
    for key in keys:
        a, b = base[key]["provenance"], new[key]["provenance"]
        differ = [k for k in PROVENANCE_KEYS if a.get(k) != b.get(k)]
        if differ:
            print("perfbench compare: provenance differs for %s seed %d: %s" %
                  (key[0], key[2], ", ".join(
                      "%s %r vs %r" % (k, a.get(k), b.get(k)) for k in differ)),
                  file=sys.stderr)
            return 3
    regressions = 0
    for workload, trace in sorted({(k[0], k[1]) for k in keys}):
        pairs = [(base[k], new[k]) for k in keys if k[:2] == (workload, trace)]
        print("%s trace %d, %d paired seeds" % (workload, trace, len(pairs)))
        for name in sorted(pairs[0][0]["metrics"]):
            m = spec[name]
            old = statistics.median(p[0]["metrics"][name]["value"] for p in pairs)
            cur = statistics.median(p[1]["metrics"][name]["value"] for p in pairs)
            change = (cur - old) / old if old else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if "bound" in m and worse > m["bound"]:
                flag = "  REGRESSION (bound %.0f%%)" % (100 * m["bound"])
                regressions += 1
            print("  %-40s %14.6g -> %14.6g %-6s %+7.2f%%%s" %
                  (name, old, cur, m["unit"], 100 * change, flag))
    return 4 if regressions else 0


def main(argv):
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
