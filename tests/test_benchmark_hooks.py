import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = ('import sys; sys.path[:0] = ["perfbench"]; import run, tracing; '
           'pf = run.import_penflow(); '
           'tracing.install(tracing.Tracer(), pf, run.public_api(pf))')


def test_benchmark_trace_hooks_install():
    # every penflow name the benchmark trace wraps must still exist
    done = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
