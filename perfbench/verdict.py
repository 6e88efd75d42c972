"""Check a job's verdict: its exit code, the stdout fields the paper gives,
the fields and file digests recorded from the seed code (recorded.json)."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from workloads import Job

RECORDED_PATH = Path(__file__).with_name("recorded.json")


def load_recorded() -> dict:
    return json.loads(RECORDED_PATH.read_text())


def lookup(doc: Any, path: str) -> Any:
    """Value at a dotted path; a "*" part maps over every key or index."""
    parts = path.split(".")

    def walk(node: Any, i: int) -> Any:
        if i == len(parts):
            return node
        key = parts[i]
        if key == "*":
            if isinstance(node, dict):
                return {k: walk(v, i + 1) for k, v in node.items()}
            return [walk(v, i + 1) for v in node]
        return walk(node[int(key)] if isinstance(node, list) else node[key], i + 1)

    return walk(doc, 0)


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def observe(job: Job, stdout: str) -> dict:
    """The values of a job's output that recorded.json holds for it."""
    if job.writes_files:
        files = {}
        for line in stdout.splitlines():
            path = Path(line)
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return {"files": files}
    doc = json.loads(stdout)
    out: dict = {}
    if job.recorded:
        out["fields"] = {path: lookup(doc, path) for path in job.recorded}
    if job.digested:
        out["digests"] = {path: digest(lookup(doc, path)) for path in job.digested}
    return out


def check(job: Job, recorded: dict | None, exit_code: int, timed_out: bool,
          stdout: str) -> tuple[list[str], dict]:
    """Problems with one job's run, empty when its verdict is right, and the
    values observe() saw. recorded is the job's recorded.json entry; with
    None only the exit code and the paper's fields are checked."""
    if timed_out:
        return ["timed out"], {}
    if exit_code != job.exit_code:
        return [f"exit code {exit_code}, expected {job.exit_code}"], {}
    problems = []
    try:
        seen = observe(job, stdout)
        doc = None if job.writes_files else json.loads(stdout)
        for path, want in job.paper.items():
            got = lookup(doc, path)
            if got != want:
                problems.append(f"{path} is {got!r}, the paper gives {want!r}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return problems + [f"unreadable output: {exc!r}"], {}
    if recorded is None:
        return problems, seen
    for kind in sorted(set(recorded) | set(seen)):
        want_values, got_values = recorded.get(kind, {}), seen.get(kind, {})
        for key in sorted(set(want_values) | set(got_values)):
            if got_values.get(key) != want_values.get(key):
                problems.append(f"{kind} {key} is {got_values.get(key)!r}, "
                                f"recorded {want_values.get(key)!r}")
    return problems, seen
