"""Record what every default-seed command of the benchmark outputs.

Usage, from the root of a checkout whose outputs are known to be right:

    python3 bench/record_reference.py

Writes bench/reference.json: for each command line, the meaning of its
output as checks.meaning reduces it.  run.py compares later runs with it.
"""

import json
import sys

import checks
from run import DEFAULT_SEED, WORKLOADS, commands, run_child


def main():
    reference = {}
    for workload in WORKLOADS:
        for argv in commands(workload, DEFAULT_SEED):
            header, body = run_child("run", argv)
            if header is None or header["rc"] != 0:
                print(f"error: {' '.join(argv)} failed: {body if header is None else header['rc']}",
                      file=sys.stderr)
                return 1
            reference[" ".join(argv)] = checks.meaning(argv, body)
    lines = [f"{json.dumps(key)}: {json.dumps(reference[key])}" for key in sorted(reference)]
    checks.REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(reference)} commands in {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
