"""Run one macsums CLI command in this fresh process and report what it cost.

Usage: python3 child.py MODE ROOT [ARGV...]

MODE is "import" (time the import only), "run" (time the command) or
"trace" (time the command with every layer wrapped in spans).  ROOT is the
checkout whose src/ holds the macsums package under test.

The first line of standard output is a JSON header; in "run" and "trace"
mode the command's captured standard output follows it unchanged.  Only
sys, os and time are loaded before the timed import, so setup_s includes
every standard-library module that importing macsums.cli pulls in.
"""

import os
import sys
import time


def main():
    mode, root, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import macsums.cli as cli
    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import resource
    import traceback

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"macsums imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    header = {"setup_s": setup_s}
    if mode == "import":
        print(json.dumps(header))
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed command, reported with its traceback
        traceback.print_exc()
        rc = None
    header["wall_s"] = time.perf_counter() - wall0
    header["cpu_s"] = time.process_time() - cpu0
    header["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    header["rc"] = rc
    if tracer is not None:
        header["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(header) + "\n")
    sys.stdout.write(captured.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
