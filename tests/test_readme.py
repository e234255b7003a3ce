"""The README's Library example, run as a user would run it, and its config
example, parsed as the command line parses it."""

import os
import re
import subprocess
import sys

import penflow.cli as cli

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


def test_readme_config_example_parses(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"^```ini\n(.*?)^```$", f.read(),
                            re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    path = tmp_path / "run.ini"
    path.write_text(blocks[0])
    sections = cli._read_config_file(str(path))
    for command in cli.COMMANDS:  # parsed and checked, nothing run
        cli.RunConfig(command, sections, str(tmp_path / "out"))
