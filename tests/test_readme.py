import re
import shlex
import subprocess
import sys
import types
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


def test_package_exports_the_names_of_the_library_example():
    # The names the example imports from the package, read from the block
    # test_library_example_runs runs, and __version__ beside them.
    import cyclecovers

    text = (ROOT / "README.md").read_text()
    library = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    imported = re.search(r"from cyclecovers import \((.*?)\)", code, re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    # Submodules become attributes of the package as they are imported.
    public = {name for name, value in vars(cyclecovers).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(names) == 9 and public == names
    assert cyclecovers.__version__ == "0.1.0"


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
