"""Output checks for the benchmark's macsums commands.

A command's output is reduced to what it means, not its bytes, so a later
formatting change does not count as a failure:

- coeffs: a digest of the (n, value) pairs and the row count;
- scan: the sorted (family, t, p, step, offset, status, depth) tuples;
- verify: the case count and how many cases reported PASS.

`check` compares that meaning with the recorded reference when the command
has one (every default-seed command does), and otherwise, or in addition,
applies checks that need no reference: every verify case passes, no scan
claim is refuted, every table has all its rows, and tables and prospect
survivors agree with a second formula route on a prefix.  The second route
runs in this process, outside any timed region.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# prefix length checked against a second formula route
CROSS_ORDER = 300
# coefficient route a table is cross-checked against; never the route the
# command itself used, and never the theta quotient that mod-p MO streams use
_SECOND_ROUTE = {
    ("M", "multisum"): "single-sum",
    ("M", None): "multisum",
    ("MO", None): "recurrence",
}
_TAGS = {"PASS": "verified-to-depth", "EVIDENCE": "evidence-to-depth", "FAIL": "refuted"}
_CLAIM = re.compile(
    r"^(?P<tag>[A-Z]+)\s+(?P<family>MO|M)\s+t=(?P<t>\d+)\s+p=(?P<p>\d+)\s+"
    r"progression\s+(?P<step>\d+)n\+(?P<offset>\d+).*?depth=(?P<depth>-?\d+)"
)


def options(argv):
    """The --key value pairs of a command line (flags map to True)."""
    out = {}
    for i, arg in enumerate(argv):
        if arg.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            out[arg[2:]] = nxt if nxt is not None and not nxt.startswith("--") else True
    return out


def parse_range(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def meaning(argv, text):
    """What a command's standard output says, as plain data."""
    command = argv[0]
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    if command == "coeffs":
        digest = hashlib.sha256()
        rows = 0
        for line in lines:
            n, value = line.split()[:2]
            if int(n) != rows:
                raise ValueError(f"row {rows} is labelled {n}")
            digest.update(f"{int(n)} {int(value)}\n".encode())
            rows += 1
        return {"rows": rows, "sha256": digest.hexdigest()}
    if command == "scan":
        claims = []
        for line in lines:
            m = _CLAIM.match(line)
            if m is None:
                raise ValueError(f"unreadable claim line {line!r}")
            claims.append([m["family"], int(m["t"]), int(m["p"]), int(m["step"]), int(m["offset"]),
                           _TAGS.get(m["tag"], m["tag"]), int(m["depth"])])
        return sorted(claims)
    if command == "verify":
        status = [line.split()[0] for line in lines]
        return {"cases": len(status), "passed": status.count("PASS")}
    raise ValueError(f"no output check for {command!r}")


def load_reference():
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}


def check(argv, rc, text, reference):
    """Return None if the command's exit code and output are right, else the
    reason it is wrong."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        got = meaning(argv, text)
    except ValueError as exc:
        return f"output not understood: {exc}"
    key = " ".join(argv)
    if key in reference and reference[key] != got:
        return f"output differs from the recorded reference: {json.dumps(got)[:200]}"
    opts = options(argv)
    if argv[0] == "coeffs" and got["rows"] != int(opts["n"]) + 1:
        return f"{got['rows']} rows, expected {int(opts['n']) + 1}"
    if argv[0] == "verify" and (got["cases"] == 0 or got["passed"] != got["cases"]):
        return f"{got['passed']}/{got['cases']} cases passed"
    if argv[0] == "scan" and any(claim[5] == "refuted" for claim in got):
        return "a claim was refuted"
    if key not in reference:
        return cross_check(argv, text, got)
    return None


def _second_route_table(family, t, order, formula=None):
    from macsums import macmahon

    route = _SECOND_ROUTE.get((family, formula)) or _SECOND_ROUTE[(family, None)]
    return macmahon.coefficient_table(family, t, order, route).values


def cross_check(argv, text, got):
    """Compare a table prefix, or prospect survivors, with a second route."""
    opts = options(argv)
    if argv[0] == "coeffs":
        family, t, n = opts["family"], int(opts["t"]), int(opts["n"])
        order = min(n, CROSS_ORDER)
        expected = _second_route_table(family, t, order, opts.get("formula"))
        rows = [line.split()[:2] for line in text.splitlines() if line.strip() and not line.startswith("#")]
        for n_text, value in rows[: order + 1]:
            if int(value) != expected[int(n_text)]:
                return f"coefficient {n_text} disagrees with a second formula route"
        return None
    if argv[0] == "scan" and "prospect" in opts:
        family, order = opts["family"], int(opts["order"])
        reported = {(c[1], c[2], c[4]): c[6] for c in got}
        for t in parse_range(opts["t"]):
            values = _second_route_table(family, t, min(order, CROSS_ORDER))
            for p in parse_range(opts["p"]):
                for b in range(p):
                    vanishes = all(v % p == 0 for v in values[b::p])
                    depth = reported.get((t, p, b))
                    if depth is not None and (not vanishes or depth != (order - b) // p):
                        return f"survivor {family} t={t} p={p} b={b} contradicts a second formula route"
        return None
    return "no reference recorded for this command"

