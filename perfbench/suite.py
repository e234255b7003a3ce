"""Run every benchmark workload over several seeds and summarise.

    python3 perfbench/suite.py                      # all workloads, seeds 1-5
    python3 perfbench/suite.py --seeds 1 2 3 --trace
    python3 perfbench/suite.py --smoke              # tiny sizes, contract check

Each run is a fresh ``perfbench/run.py`` process, so peak RSS belongs to one
workload.  For every end-to-end metric the summary gives the median over
seeds and the quartile spread as a share of the median, next to the bound
from BENCHMARK.json; it adds the median op time of each run, which is not
gated, and the op tail pooled over all runs.  ``--trace`` adds one traced
run per workload (first seed): its per-layer metrics, the largest self
times, and the tracing overhead (traced minus untraced op_norm_s on the
same seed).  ``--smoke``
runs every workload at a tiny size, traced and untraced, and fails unless
each result line carries exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(workload, seed, seconds, trace, tiny=False):
    """One run.py process; returns (result dict or None, wall seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, wall
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def run_record(workload, seed, trace):
    path = os.path.join(ROOT, ".perfbench-out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def pooled_tail(times):
    """(percentile, value): the highest percentile of the pooled op times
    with at least ten ops beyond it, or None below eleven ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def smoke(spec):
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, wall = run_one(w["name"], 1, 1, trace, tiny=True)
            good = (result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] >= 1
                    and set(result["metrics"]) == names[trace])
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {w['name']} trace={trace} "
                  f"({wall:.1f} s)")
    return 0 if ok else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke(spec)

    status = 0
    summary = {}
    for workload in args.workloads:
        results, walls, ok_seeds = [], [], []
        for seed in args.seeds:
            result, wall = run_one(workload, seed, args.seconds, 0)
            walls.append(wall)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED {result}")
                status = 1
                continue
            results.append(result)
            ok_seeds.append(seed)
        ops_per_run = [r["attempted"] for r in results]
        print(f"\n{workload}: {len(results)} runs, "
              f"{min(ops_per_run, default=0)}-{max(ops_per_run, default=0)} "
              f"ops each, max process wall {max(walls):.1f} s")
        summary[workload] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            med, rel = spread(values)
            summary[workload][m["name"]] = values
            flag = "" if m["name"] == "setup_s" or rel < m["bound"] / 3 \
                else "  (spread above bound/3)"
            print(f"  {m['name']:<12} {med:12.4f} {m['unit']:<3} "
                  f"spread {100 * rel:5.1f}% bound {100 * m['bound']:.0f}%{flag}")
        records = [run_record(workload, seed, 0) for seed in ok_seeds]
        if len(records) >= 2:
            med, rel = spread([r["op_p50_s"] for r in records])
            print(f"  {'op p50':<12} {med:12.4f} s   spread {100 * rel:5.1f}% "
                  f"(median op of each run; not gated)")
        ops = [t for r in records for t in r["op_times"]]
        tail = pooled_tail(ops)
        if tail:
            print(f"  op tail      {tail[1]:12.4f} s   p{tail[0]:.0f} of "
                  f"{len(ops)} ops pooled over seeds")
        if args.trace and results:
            seed = ok_seeds[0]
            traced, _ = run_one(workload, seed, args.seconds, 1)
            if traced is None:
                status = 1
                continue
            layer = {k: v["value"] for k, v in traced["metrics"].items()}
            untraced = results[0]["metrics"]["op_norm_s"]["value"]
            overhead = layer["trace.op_norm_s"] - untraced
            print(f"  tracing overhead {overhead:+.3f} s per op (traced minus "
                  f"untraced op_norm_s {untraced:.3f} s, seed {seed}; "
                  f"{layer['trace.overhead_s']:.4f} s per op from span count "
                  f"x span cost)")
            for name, value in layer.items():
                if value:
                    print(f"    {name:<46} {value:.6g}")
            rec = run_record(workload, seed, 1)
            op_mean = rec["run_s"] / len(rec["op_times"])
            top = sorted((kv for kv in rec["self_times"].items()
                          if "." in kv[0]), key=lambda kv: -kv[1])[:6]
            print("  largest self times per op: " + ", ".join(
                f"{name} {100 * s / op_mean:.0f}%" for name, s in top))
    with open(os.path.join(ROOT, ".perfbench-out", "suite.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
