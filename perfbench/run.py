"""Run one penflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload newton_fine --seed 1 --seconds 30

Runs from the root of a source checkout and imports penflow from its
``src`` directory.  Ops run one after another until ``--seconds`` have
passed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Times are divided
by a host probe timed around them (see README.md).  A fuller record
(environment, raw op and set-up times, the probes, spans) goes to
``.perfbench-out/<workload>-seed<seed>-trace<trace>.json``.  ``--record``
stores the op fingerprints of a seed-0 run as the reference that later
seed-0 runs must match.
"""

import os

# pin BLAS/OpenMP threads before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
REFERENCE = os.path.join(HERE, "reference")
SETUP_REPEATS = 5   # set-ups per run; setup_s takes their median
IMPORT_REPEATS = 3  # fresh interpreters importing penflow; setup_s takes
                    # the median of their times
PROBE_ITERATIONS = 1_000_000
PROBE_QUIET_S = 0.060  # host_probe() time on a quiet host (see README.md)
IMPORT_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import penflow, penflow.artifacts, penflow.cli")


def import_penflow():
    """Import penflow from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import penflow
    import penflow.artifacts
    import penflow.cli
    if not os.path.abspath(penflow.__file__).startswith(SRC + os.sep):
        raise ImportError(f"penflow imported from {penflow.__file__}, "
                          f"not from {SRC}")
    return penflow


def fresh_import():
    """Start a fresh interpreter that imports penflow from this checkout."""
    subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC], check=True,
                   timeout=120)


def host_probe():
    """Seconds for a fixed pure-Python loop.

    The same work takes longer whenever other tenants of a shared host slow
    this process down, so the probe's time tracks the host's speed.  Of the
    probes tried (interpreter loop, small matrix product, memory gather) the
    interpreter loop tracked the workloads' slowdowns most closely.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def probed(fn):
    """Run fn(); return its wall seconds and that divided by the mean host
    probe just before and after it."""
    before = host_probe()
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    return seconds, seconds / statistics.fmean((before, host_probe()))


def public_api(pf):
    """The penflow callables the workloads invoke; tracing wraps these."""
    return types.SimpleNamespace(
        generate_mesh=pf.generate_mesh, build_spaces=pf.build_spaces,
        extract_submesh=pf.extract_submesh,
        check_admissibility=pf.check_admissibility,
        solve_navier_stokes=pf.solve_navier_stokes, optimize=pf.optimize,
        cli_main=pf.cli.main)


def environment(pf, loadavg):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "penflow": pf.__version__, "loadavg_at_start": loadavg}


def load_reference(name):
    path = os.path.join(REFERENCE, f"{name}.json")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return json.load(fh)["ops"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test problem sizes")
    parser.add_argument("--record", action="store_true",
                        help="store this seed-0 run's fingerprints as the "
                             "reference")
    args = parser.parse_args(argv)
    if args.record and (args.seed != 0 or args.tiny):
        parser.error("--record needs --seed 0 and full sizes")

    loadavg = os.getloadavg()
    pf = import_penflow()
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    api = public_api(pf)
    workload = workloads.WORKLOADS[args.workload](
        pf, api, args.tiny, os.path.join(OUT, f"work-{args.workload}"))
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer, pf, api)

    def setup():
        with tracer.span("setup"):
            workload.setup()

    imports = [probed(fresh_import) for _ in range(IMPORT_REPEATS)]
    setups = [probed(setup) for _ in range(SETUP_REPEATS)]

    compare = args.seed == 0 and not args.tiny and not args.record
    reference = load_reference(workload.name) if compare else []
    op_times, failures, fingerprints, sizes = [], [], [], {}
    probes, ratios, good_ratios = [], [], []
    index = 0
    t_phase = time.perf_counter()
    while index == 0 or time.perf_counter() - t_phase < args.seconds:
        rng = np.random.default_rng([args.seed, index])
        with tracer.span("input"):
            inp = workload.make_input(rng, index, args.seed)
        before = host_probe()
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                out = workload.run_op(inp)
            error = None
        except Exception:
            error = traceback.format_exc(limit=-3)
        dt = time.perf_counter() - t0
        probes.append((before, host_probe()))
        ratios.append(dt / statistics.fmean(probes[-1]))
        op_times.append(dt)
        try:
            with tracer.span("check"):
                problems = [error] if error else workload.check(inp, out)
                if not problems:
                    fp = workload.fingerprint(inp, out)
                    fingerprints.append(fp)
                    if index < len(reference):
                        problems = workloads.compare(reference[index], fp,
                                                     workload.rtol)
                    sizes = workload.sizes(out)
        except Exception:
            problems = [traceback.format_exc(limit=-3)]
        workload.cleanup(inp)
        out = None  # let the op's output go before the next op
        if problems:
            failures.append({"op": index, "problems": problems})
            print(f"op {index} failed: {problems}", file=sys.stderr)
        else:
            good_ratios.append(ratios[-1])
        index += 1
    n_ops = index

    # Other tenants of a shared host slow this process by up to 1.8x for
    # seconds to minutes at a time.  The probes on either side of an op slow
    # alike, so time divided by probe time stays put; scaled by the probe's
    # quiet-host time it reads as seconds on a quiet host.
    op_norm_s = PROBE_QUIET_S * statistics.median(good_ratios or ratios)
    setup_s = PROBE_QUIET_S * (statistics.median(r for _, r in imports)
                               + statistics.median(r for _, r in setups))
    if args.trace:
        metrics, self_times = tracing.layer_metrics(tracer, n_ops)
        metrics["trace.op_norm_s"] = op_norm_s
    else:
        metrics = {"op_norm_s": op_norm_s,
                   "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        self_times = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "env": environment(pf, loadavg), "sizes": sizes,
              "imports": imports, "setups": setups,
              "op_times": op_times, "probes": probes,
              "op_p50_s": statistics.median(op_times),
              "op_min_s": min(op_times), "run_s": sum(op_times),
              "failures": failures, "metrics": metrics,
              "self_times": self_times}
    if args.trace:
        record["spans"] = tracer.spans
    os.makedirs(OUT, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"env": record["env"], "sizes": sizes}), file=sys.stderr)

    if args.record:
        if failures:
            print("not recording a run with failed ops", file=sys.stderr)
            return 1
        os.makedirs(REFERENCE, exist_ok=True)
        with open(os.path.join(REFERENCE, f"{workload.name}.json"), "w") as fh:
            json.dump({"seconds": args.seconds, "ops": fingerprints}, fh,
                      indent=1)

    print(json.dumps({
        "correct": not failures, "attempted": n_ops, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
