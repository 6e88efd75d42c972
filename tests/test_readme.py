import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cyclecovers.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    # The first python block after the "## Library" heading, run as a user
    # would, in a fresh interpreter against the source tree.
    text = (ROOT / "README.md").read_text()
    library = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


# Every line of the README's sh blocks that runs the CLI.
SH_BLOCKS = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
COMMANDS = [line for block in SH_BLOCKS for line in block.splitlines()
            if line.startswith("cyclecovers ")]


def test_readme_shows_its_commands():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(command, tmp_path, capsys):
    # Through main, with a fresh directory for --out; exit 0, no stderr.
    argv = shlex.split(command)[1:]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    assert (main(argv), capsys.readouterr().err) == (0, "")
