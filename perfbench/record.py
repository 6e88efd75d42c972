"""Record the values verdict.py compares job outputs against.

usage: python3 perfbench/record.py    (from the root of a checkout)

Runs every job of every workload once with the code in the checkout, checks
the fields the paper gives, and rewrites recorded.json with the girths,
sizes, multiplicities and sha256 digests the jobs print or write. Edge
lists, fiber maps and reports are a byte contract (ROADMAP), so re-record
only for a change that is meant to alter them, and say so.
"""

import json
import sys
from pathlib import Path

from run import Runner, SetupError, now, prepare, scratch_dir
from verdict import RECORDED_PATH
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    try:
        env, _ = prepare(root)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recorded = {}
    with scratch_dir(root) as work:
        for workload in WORKLOADS.values():
            runner = Runner(root, work, env, None, now())
            for index, job in enumerate(workload.jobs):
                run = runner.run(job, index, traced=False)
                if run.problems:
                    print(f"error: {job.id}: {'; '.join(run.problems)}", file=sys.stderr)
                    return 1
                recorded[job.id] = run.observed
                print(f"{run.result.job_s:8.2f} s  {job.id}", flush=True)
    RECORDED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
