"""The penflow benchmark workloads.

Each workload builds what a real run would reuse in ``setup``, draws fresh
inputs for every op from the seed in ``make_input`` (so nothing can be
memoized across ops), times only ``run_op``, and checks the op's output in
``check`` afterwards.  ``fingerprint`` reduces an output to a few numbers
that are compared with values recorded when the benchmark was added.

Why these: newton_fine is dominated by the sparse direct solve,
descent_test1 by assembly with almost no factorization, and sweep_cli runs
the same solver and assembly on many small fresh conforming meshes through
the CLI.  A change aimed at one layer therefore has a workload where it
should win and workloads where it should change nothing.
"""

import contextlib
import io
import math
import os
import shutil

import numpy as np

JITTER = 0.02  # obstacle-centre offset bound; keeps every geometry admissible


def _jitter(rng, index, seed, centers):
    """Seed 0, op 0 is the paper geometry; every other op moves each centre."""
    if seed == 0 and index == 0:
        return [tuple(c) for c in centers]
    offsets = rng.uniform(-JITTER, JITTER, size=(len(centers), 2))
    return [(c[0] + dx, c[1] + dy) for c, (dx, dy) in zip(centers, offsets)]


def _norms(prefix, v):
    return {f"{prefix}_l2": float(np.linalg.norm(v)),
            f"{prefix}_l1": float(np.abs(v).sum()),
            f"{prefix}_max": float(np.abs(v).max())}


class Workload:
    name = ""
    rtol = 1e-10  # seed-0 fingerprint tolerance (relative)

    def __init__(self, pf, api, tiny, workdir):
        self.pf = pf
        self.api = api
        self.tiny = tiny
        self.workdir = workdir

    def setup(self):
        pass

    def cleanup(self, inp):
        pass


class NewtonFine(Workload):
    """A new obstacle placement on a fine fixed mesh: interpolate its level
    field, then one penalized Navier-Stokes Newton solve."""

    name = "newton_fine"

    def setup(self):
        from penflow.presets import flow_cell_spec
        h = 0.08 if self.tiny else 0.03
        mesh = self.api.generate_mesh(flow_cell_spec(h))
        self.layout = self.api.build_spaces(mesh)
        self.layout.geometry(5)

    def sizes(self, out):
        lay = out[1].layout
        return {"V": lay.V, "T": lay.T, "unknowns": lay.M}

    def make_input(self, rng, index, seed):
        from penflow.presets import SEC31_OBSTACLES, sec31_assembly
        centers = _jitter(rng, index, seed, [c for _, c, _ in SEC31_OBSTACLES])
        radii = [r for _, _, r in SEC31_OBSTACLES]
        eps = 0.025 if (seed == 0 and index == 0) else rng.uniform(0.02, 0.03)
        return {"config": sec31_assembly(eps=float(eps)),
                "level": self.pf.compose_disks(centers, radii,
                                               signed_distance=True)}

    def run_op(self, inp):
        g = self.pf.LevelField.interpolate(self.layout.mesh, inp["level"])
        return (g,) + self.api.solve_navier_stokes(self.layout, inp["config"],
                                                   g)

    def check(self, inp, out):
        pf = self.pf
        g, state, report = out
        if not report.converged:
            return [f"Newton did not converge: {report.message}"]
        F = pf.assemble_load(self.layout, inp["config"], g)
        tol = 1e-10 * (1.0 + np.abs(F).max())
        res = pf.residual_max_norm(self.layout, inp["config"], g, state)
        if not res <= tol:
            return [f"re-evaluated residual {res:.3e} above {tol:.3e}"]
        return []

    def fingerprint(self, inp, out):
        _, state, report = out
        return {"newton_iters": report.iterations, **_norms("Y", state.Y),
                **_norms("P", state.P)}


class DescentTest1(Workload):
    """30 penalty-descent iterations on the test1 dissipated-energy problem."""

    name = "descent_test1"
    rtol = 1e-8
    iterations = 30

    def setup(self):
        from penflow.presets import test1_problem
        self.problem = test1_problem(h_mesh=0.1 if self.tiny else 0.08,
                                     max_iter=self.iterations)
        mesh = self.api.generate_mesh(self.problem.domain_spec)
        self.layout = self.api.build_spaces(mesh)
        self.layout.geometry(5)
        self.opt = self.problem.opt
        # plateau stop off, so every op runs exactly `iterations` steps
        self.opt.plateau_tol = 0.0
        self.opt.plateau_steps = self.iterations + 1

    def sizes(self, out):
        lay = self.layout
        return {"V": lay.V, "T": lay.T, "unknowns": lay.N}

    def make_input(self, rng, index, seed):
        from penflow.presets import TEST1_CENTERS, TEST1_RADII
        pf = self.pf
        centers = _jitter(rng, index, seed, TEST1_CENTERS)
        g0 = pf.LevelField.interpolate(
            self.layout.mesh, pf.compose_disks(centers, TEST1_RADII,
                                               signed_distance=True))
        return {"g0": g0}

    def run_op(self, inp):
        return self.api.optimize(inp["g0"], self.problem.build_cost(self.layout),
                                 self.opt, self.layout, self.problem.config)

    def check(self, inp, out):
        history = out[0]
        problems = []
        if len(history) != self.iterations + 1:
            problems.append(f"{len(history) - 1} iterations, "
                            f"expected {self.iterations}")
        c = self.opt.armijo_c
        for prev, rec in zip(history, history[1:]):
            slack = 1e-12 * (1.0 + abs(prev.j_rho))
            if rec.j_rho > prev.j_rho + slack:
                problems.append(f"j_rho increased at iteration {rec.iteration}")
            if rec.accepted and rec.j_rho > (
                    prev.j_rho - c * rec.step * rec.grad_norm2 + slack):
                problems.append(f"Armijo violated at iteration {rec.iteration}")
        return problems

    def fingerprint(self, inp, out):
        history = out[0]
        return {"iterations": len(history) - 1,
                "backtracks": sum(r.backtracks for r in history),
                "j_rho": [r.j_rho for r in history],
                "j_h": [r.j_h for r in history]}


class SweepCli(Workload):
    """`penflow error-study` mesh sweep through the CLI entry point."""

    name = "sweep_cli"
    # error ratios amplify a 1e-12 solution change by 1/l2_rel (about 1e4)
    rtol = 1e-6

    def __init__(self, *args):
        super().__init__(*args)
        # capture each reference solve so its obstacle fluxes can be checked
        self.references = []
        es = self.pf.error_study
        solve = es.solve_reference_flux_constrained

        def capture(mesh, *args, **kwargs):
            result = solve(mesh, *args, **kwargs)
            self.references.append((mesh, result[0]))
            return result

        es.solve_reference_flux_constrained = capture

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)

    def sizes(self, out):
        mesh, state = self.references[-1]  # the finest sweep point
        return {"V": mesh.num_vertices, "T": mesh.num_triangles,
                "unknowns": state.layout.M}

    def make_input(self, rng, index, seed):
        from penflow.presets import SEC31_OBSTACLES
        centers = _jitter(rng, index, seed, [c for _, c, _ in SEC31_OBSTACLES])
        shapes = "; ".join(f"disk {float(x)!r} {float(y)!r} {r!r}"
                           for (x, y), (_, _, r)
                           in zip(centers, SEC31_OBSTACLES))
        values = "0.12 0.1" if self.tiny else "0.08 0.057"
        path = os.path.join(self.workdir, f"sweep{index}.ini")
        with open(path, "w") as fh:
            fh.write(f"[mesh]\nobstacles = {shapes}\n"
                     f"[level]\nshapes = {shapes}\n"
                     f"[study]\nkind = mesh\nvalues = {values}\n")
        out = os.path.join(self.workdir, f"sweep{index}")
        shutil.rmtree(out, ignore_errors=True)
        self.references.clear()
        return {"argv": ["error-study", "--preset", "sec31", "--config", path,
                         "--out", out], "out": out, "config": path}

    def run_op(self, inp):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = self.api.cli_main(inp["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, sink.getvalue()

    def _records(self, inp):
        with open(os.path.join(inp["out"], "records.csv")) as fh:
            lines = fh.read().splitlines()
        cols = lines[0].split(",")
        return [dict(zip(cols, line.split(","))) for line in lines[1:]]

    def check(self, inp, out):
        pf = self.pf
        code, text = out
        if code != 0:
            tail = text.strip().splitlines()[-1:] or [""]
            return [f"exit code {code}: {tail[0]}"]
        problems = []
        ok, mismatches = pf.artifacts.verify_manifest(inp["out"])
        if not ok:
            problems.append(f"manifest: {mismatches}")
        l2 = [float(r["l2_rel"]) for r in self._records(inp)]
        if any(b >= a for a, b in zip(l2, l2[1:])):
            problems.append(f"l2_rel does not decrease with h: {l2}")
        for mesh, state in self.references:
            scale = np.abs(state.Y).max()
            for label in mesh.labels():
                if label.startswith("Obstacle"):
                    flux = pf.boundary_flux(mesh, state, label)
                    if not abs(flux) <= 1e-9 * scale:
                        problems.append(f"{label} flux {flux:.3e}")
        return problems

    def fingerprint(self, inp, out):
        fp = {}
        for i, r in enumerate(self._records(inp)):
            fp[f"newton_iters{i}"] = int(r["newton_iters"])
            for key in ("l2_rel", "h1_rel", "div_norm_omega", "p_l2_rel"):
                fp[f"{key}{i}"] = float(r[key])
        return fp

    def cleanup(self, inp):
        shutil.rmtree(inp["out"], ignore_errors=True)
        os.remove(inp["config"])


WORKLOADS = {w.name: w for w in (NewtonFine, DescentTest1, SweepCli)}


def compare(reference, actual, rtol):
    """Mismatches between a recorded fingerprint and a new one."""
    problems = []
    for key, want in reference.items():
        got = actual.get(key)
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                problems.append(f"{key}: length differs")
                continue
            pairs = list(zip(want, got))
        else:
            pairs = [(want, got)]
        for w, g in pairs:
            if isinstance(w, int):
                bad = g != w
            else:
                bad = g is None or not math.isclose(g, w, rel_tol=rtol,
                                                    abs_tol=0.0)
            if bad:
                problems.append(f"{key}: recorded {w!r}, got {g!r}")
                break
    return problems
