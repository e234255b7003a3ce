"""Outside-in layer trace for the penflow benchmark.

Spans are recorded around penflow's public functions at the names their
callers look them up by (for example ``penflow.ns_solver.assemble_trilinear``
or ``spsolve`` as seen from ``ns_solver``), so no program file changes.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
numbers listed in BENCHMARK.json.
"""

import collections
import contextlib
import functools
import time
import types

# Roots whose spans count toward the layer metrics; "setup", "input"
# (building an op's arguments) and "check" (the output oracle) are recorded
# but excluded, so every layer metric describes the timed ops.
COUNTED_ROOTS = ("op",)


class Tracer:
    """Span recorder: each span is [name, start, end, parent index, root index]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.counts = collections.Counter()
        self.maxima = collections.Counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        root = idx if parent is None else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def counting(self):
        """True while the innermost open span belongs to a counted root."""
        return bool(self._open) and \
            self.spans[self.spans[self._open[-1]][4]][0] in COUNTED_ROOTS

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a spanned call; after(tracer, args, result)."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None and self.counting():
                after(self, args, result)
            return result

        # a classmethod fetched from its class is already bound
        setattr(owner, attr,
                staticmethod(traced) if isinstance(raw, classmethod) else traced)


def span_cost(calls=20000):
    """Seconds one traced call adds over a plain call, measured here."""
    tracer = Tracer()
    plain = types.SimpleNamespace(f=abs)
    traced = types.SimpleNamespace(f=abs)
    tracer.wrap(traced, "f", "calibration")
    times = []
    for owner in (plain, traced):
        t0 = time.perf_counter()
        for i in range(calls):
            owner.f(i)
        times.append(time.perf_counter() - t0)
    return max(0.0, (times[1] - times[0]) / calls)


def _spsolve_size(tr, args, _result):
    K = args[0]
    tr.maxima["ns_solver.spsolve.n"] = max(tr.maxima["ns_solver.spsolve.n"],
                                           K.shape[0])
    tr.maxima["ns_solver.spsolve.nnz"] = max(
        tr.maxima["ns_solver.spsolve.nnz"], K.nnz)


def _newton_iters(report_index):
    def after(tr, _args, result):
        tr.counts["ns_solver.newton_iters"] += result[report_index].iterations
    return after


def _mesh_size(tr, _args, mesh):
    if mesh.num_triangles > tr.maxima["mesh.T"]:
        tr.maxima["mesh.T"] = mesh.num_triangles
        tr.maxima["mesh.V"] = mesh.num_vertices


def _descent_counts(tr, _args, result):
    history = result[0]
    tr.counts["topopt.iterations"] += len(history) - 1
    tr.counts["topopt.backtracks"] += sum(r.backtracks for r in history)


def _value_eval(tr, _args, _result):
    tr.counts["topopt.value_evals"] += 1


def _sweep_points(tr, _args, records):
    tr.counts["error_study.points"] += len(records)


def _written_bytes(tr, args, _result):
    tr.counts["artifacts.bytes"] += len(args[1].encode())


def install(tracer, pf, api):
    """Wrap every layer boundary the benchmark measures.

    pf is the imported penflow package; api is the namespace through which
    the benchmark itself calls penflow.
    """
    ns, fem, topopt = pf.ns_solver, pf.fem, pf.topopt
    es, cli, art = pf.error_study, pf.cli, pf.artifacts

    # spsolve as ns_solver sees it, without touching scipy for anyone else
    ns.spla = types.SimpleNamespace(**vars(ns.spla))
    tracer.wrap(ns.spla, "spsolve", "ns_solver.spsolve", _spsolve_size)

    for module in (ns, topopt):
        for fn in ("evaluate_coefficients", "assemble_bilinear",
                   "assemble_trilinear", "assemble_load"):
            after = _value_eval if (module is topopt and
                                    fn == "evaluate_coefficients") else None
            tracer.wrap(module, fn, f"fem.{fn}", after)
    tracer.wrap(fem.SpaceLayout, "geometry", "fem.geometry")
    tracer.wrap(es, "compute_norm", "fem.compute_norm")

    for owner in (api, topopt, es):
        tracer.wrap(owner, "solve_navier_stokes",
                    "ns_solver.solve_navier_stokes", _newton_iters(1))
    tracer.wrap(es, "solve_reference_flux_constrained",
                "ns_solver.solve_reference_flux_constrained", _newton_iters(2))

    for owner in (api, es):
        tracer.wrap(owner, "generate_mesh", "mesh.generate_mesh", _mesh_size)
        tracer.wrap(owner, "extract_submesh", "mesh.extract_submesh")
    tracer.wrap(pf.levelset.LevelField, "interpolate", "levelset.interpolate")
    for owner in (api, topopt):
        tracer.wrap(owner, "check_admissibility",
                    "levelset.check_admissibility")

    tracer.wrap(api, "optimize", "topopt.optimize", _descent_counts)
    tracer.wrap(cli, "run_sweep", "error_study.run_sweep", _sweep_points)
    tracer.wrap(api, "cli_main", "cli.main")
    for owner in (cli, art):
        tracer.wrap(owner, "atomic_write_text", "artifacts.atomic_write_text",
                    _written_bytes)
    for fn in ("svg_loglog", "write_manifest"):
        tracer.wrap(cli, fn, f"artifacts.{fn}")


def layer_metrics(tracer, n_ops):
    """Per-layer metrics over the spans under counted roots.

    Times and counts are per op (run totals divided by n_ops), so runs that
    fit different numbers of ops compare; sizes (n, nnz, V, T) are the
    largest seen.  Returns (metrics, self seconds per op by span name).
    """
    spans = tracer.spans
    child = collections.Counter()  # time covered by direct children, by span
    for name, t0, t1, parent, _root in spans:
        if parent is not None:
            child[parent] += t1 - t0
    total = collections.Counter()
    calls = collections.Counter()
    selfs = collections.Counter()
    outer_artifacts = 0.0
    for i, (name, t0, t1, parent, root) in enumerate(spans):
        if spans[root][0] not in COUNTED_ROOTS:
            continue
        total[name] += t1 - t0
        calls[name] += 1
        selfs[name] += t1 - t0 - child[i]
        if name.startswith("artifacts.") and \
                not spans[parent][0].startswith("artifacts."):
            outer_artifacts += t1 - t0

    m = {}
    m["ns_solver.spsolve.s"] = total["ns_solver.spsolve"]
    m["ns_solver.spsolve.calls"] = calls["ns_solver.spsolve"]
    m["ns_solver.spsolve.n"] = tracer.maxima["ns_solver.spsolve.n"]
    m["ns_solver.spsolve.nnz"] = tracer.maxima["ns_solver.spsolve.nnz"]
    for fn in ("solve_navier_stokes", "solve_reference_flux_constrained"):
        m[f"ns_solver.{fn}.s"] = total[f"ns_solver.{fn}"]
    m["ns_solver.self_s"] = (selfs["ns_solver.solve_navier_stokes"]
                             + selfs["ns_solver.solve_reference_flux_constrained"])
    m["ns_solver.newton_iters"] = tracer.counts["ns_solver.newton_iters"]
    for fn in ("assemble_trilinear", "evaluate_coefficients",
               "assemble_bilinear", "assemble_load", "compute_norm"):
        m[f"fem.{fn}.s"] = total[f"fem.{fn}"]
        m[f"fem.{fn}.calls"] = calls[f"fem.{fn}"]
    m["fem.geometry.s"] = total["fem.geometry"]
    m["topopt.optimize.s"] = total["topopt.optimize"]
    m["topopt.self_s"] = selfs["topopt.optimize"]
    for key in ("iterations", "backtracks", "value_evals"):
        m[f"topopt.{key}"] = tracer.counts[f"topopt.{key}"]
    m["mesh.generate_mesh.s"] = total["mesh.generate_mesh"]
    m["mesh.generate_mesh.calls"] = calls["mesh.generate_mesh"]
    m["mesh.extract_submesh.s"] = total["mesh.extract_submesh"]
    m["mesh.V"] = tracer.maxima["mesh.V"]
    m["mesh.T"] = tracer.maxima["mesh.T"]
    m["levelset.interpolate.s"] = total["levelset.interpolate"]
    m["levelset.check_admissibility.s"] = total["levelset.check_admissibility"]
    m["error_study.run_sweep.s"] = total["error_study.run_sweep"]
    m["error_study.self_s"] = selfs["error_study.run_sweep"]
    m["error_study.points"] = tracer.counts["error_study.points"]
    m["cli.main.s"] = total["cli.main"]
    m["cli.self_s"] = selfs["cli.main"]
    m["artifacts.s"] = outer_artifacts
    m["artifacts.bytes"] = tracer.counts["artifacts.bytes"]
    m["trace.spans"] = sum(calls.values())
    m["trace.overhead_s"] = m["trace.spans"] * span_cost()
    sizes = ("ns_solver.spsolve.n", "ns_solver.spsolve.nnz", "mesh.V",
             "mesh.T")
    m = {k: v if k in sizes else v / n_ops for k, v in m.items()}
    return m, {k: v / n_ops for k, v in selfs.items()}
