"""Run one cyclecovers CLI job in its own process, as a user would.

usage: python3 child.py STAMP_FILE TRACE_FILE JOB_ID -- CLI_ARGS...

Writes to STAMP_FILE the CLOCK_MONOTONIC time at which ``cyclecovers.cli``
finished importing, runs the CLI with CLI_ARGS and exits with its code.
With TRACE_FILE other than "-", the job is traced (see spans.py) and its
spans are written to TRACE_FILE when the CLI returns.
"""

import sys
import time


def main() -> int:
    stamp_path, trace_path, job, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: child.py STAMP_FILE TRACE_FILE JOB_ID -- CLI_ARGS...")
    import cyclecovers.cli as cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(stamp_path, "w") as f:
        f.write(repr(imported))
    if trace_path == "-":
        return cli.main(cli_args)
    import spans

    tracer = spans.Tracer(int(job))
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
