"""The README's Library example, run as a user would run it."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```$", f.read(),
                            re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", blocks[0]], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
