"""The macsums benchmark: cold CLI workloads, measured from outside.

Usage, from the root of a checkout:

    python3 bench/run.py --workload congruence-scan --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each command of a workload runs in a fresh interpreter with empty program
caches, one at a time, exactly as a user's invocation runs; its time is
taken around `cli.main(argv)` inside that process with stdout captured.  A
pass runs the workload's whole command list.  Passes repeat until the next
one would overrun --seconds (at least MIN_PASSES), and every timing is
reported as the median over passes with its quartiles and sample count.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s, setup_s (import of
macsums.cli in a fresh interpreter) and peak_rss_mb.  --trace 1 alternates
untraced passes with passes in which every layer is wrapped in spans
(spans.py), and reports the per-layer metrics and the tracing overhead.
Times are scaled to a reference host speed measured by a fixed kernel
(REF_KERNEL_S below); the raw medians are printed as well.

Every command's exit code and output meaning are checked (checks.py).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; failed / attempted is the failed-operation
ratio.  The exit code is 1 if any check failed, 2 if the checkout holds no
macsums sources.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 4
# Host-speed calibration.  On a shared host the CPU speed drifts by tens of
# percent over minutes, and every timing drifts with it; cpu_s drifts as much
# as wall_s, so it is speed, not scheduling.  A fixed kernel runs in this
# process between commands, once per KERNEL_EVERY_S of command time.
# The timings are reported at the host speed at which the kernel's median
# time is REF_KERNEL_S.
REF_KERNEL_S = 0.04
KERNEL_EVERY_S = 0.25
CHILD_TIMEOUT_S = 150
# Commands import macsums with its bytecode cached, as an installed package
# does: the warm-up import writes src/macsums/__pycache__ in the checkout.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# The identity catalog as registered today (registry.known_ids()).  Fixed
# here so the workload does not grow when ids are added; a removed id fails.
CATALOG = (
    "FGH-recurrence", "G-forms", "T-inversion", "U-agreement", "V-agreement", "V1-eisenstein",
    "atidB", "closed-form-U3-minus-V3", "closed-form-U4", "closed-form-V2", "closed-form-V3",
    "closed-form-V3-ode", "conjugate-M-form", "conjugate-chain", "cor52", "cor53", "dilcher",
    "eisenstein-ramanujan", "excess-V2-U2", "jacobi-specialization", "mss", "mss-precursor",
    "rational-FGH-limit", "rational-hypothesis", "rational-master", "sigma1-convolution",
    "stirling-lambert", "symmetric-relation", "theorem-FGH", "umbral-compact",
    "umbral-square-product", "umbral-tail", "wz-certificates",
)
PRIMES = (5, 7, 11, 13)


# ---------------------------------------------------------------------------
# workloads: command lists drawn from the seed
#
# The default seed gives the lists below exactly.  Other seeds only draw
# inputs whose cost is close to the default's, so the spread between seeds
# stays inside the benchmark's bounds: primes (stream cost does not depend
# on p), MO t windows (the theta quotient's cost barely depends on t),
# table t values in 5..7, and the order in which the catalog runs.  The M
# prospect keeps t = 1..6 because its binomials grow with t.


def _primes(rng):
    return ",".join(map(str, sorted(rng.sample(PRIMES, 3)))) if rng else "5,7,11"


def congruence_scan(rng):
    mo_t = rng.randint(1, 3) if rng else 1
    return [
        ["scan", "--suite", "paper", "--order", "20000"],
        ["scan", "--prospect", "--family", "MO", "--t", f"{mo_t}..{mo_t + 5}", "--p", _primes(rng),
         "--order", "5000"],
        ["scan", "--prospect", "--family", "M", "--t", "1..6", "--p", _primes(rng), "--order", "20000"],
    ]


def deep_tables(rng):
    m_t, mo_t = (rng.randint(5, 7), rng.randint(5, 7)) if rng else (6, 6)
    n = rng.randint(790, 810) if rng else 800
    return [
        ["coeffs", "--family", "M", "--t", str(m_t), "--n", "20000"],
        ["coeffs", "--family", "MO", "--t", str(mo_t), "--n", "20000"],
        ["coeffs", "--family", "M", "--t", "3", "--n", str(n), "--formula", "multisum"],
    ]


def identity_catalog(rng):
    ids = list(CATALOG)
    if rng:
        rng.shuffle(ids)
    return [["verify", "--id", ident, "--order", "40"] for ident in ids]


WORKLOADS = {
    "congruence-scan": congruence_scan,
    "deep-tables": deep_tables,
    "identity-catalog": identity_catalog,
}


def commands(workload, seed):
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng)


# ---------------------------------------------------------------------------
# running commands in fresh processes


def kernel():
    """Time one schoolbook product of two 500-term integer lists: the same
    kind of work as Series.__mul__, but fixed, so no program change moves it."""
    a = [(i * 7919) % 10007 for i in range(500)]
    b = [(i * 104729) % 10009 for i in range(500)]
    out = [0] * 999
    start = time.perf_counter()
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return time.perf_counter() - start


def run_child(mode, argv=()):
    """Run child.py in a fresh interpreter; return (header, stdout text), or
    (None, reason) if the process crashed or timed out."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, str(ROOT), *argv],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    head, _, body = proc.stdout.partition("\n")
    if proc.returncode != 0 or not head.startswith("{"):
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    header = json.loads(head)
    if mode != "import" and header["rc"] is None:
        return None, f"command raised: {proc.stderr.strip()[-500:]}"
    return header, body


class Run:
    """Passes of one workload, with every command's outcome checked."""

    def __init__(self, workload, seed):
        self.cmds = commands(workload, seed)
        self.reference = checks.load_reference()
        self.verdicts = {}  # (command index, output digest) -> failure reason or None
        self.attempted = 0
        self.failures = []
        self.setup_s = []  # import times of untraced processes
        self._kernel_owed_s = 0.0  # command time not yet matched by a kernel run

    def verdict(self, i, header, body):
        if header is None:
            return body
        key = (i, header["rc"], hash(body))
        if key not in self.verdicts:
            argv = self.cmds[i]
            try:
                self.verdicts[key] = checks.check(argv, header["rc"], body, self.reference)
            except Exception as exc:  # a broken program must fail the check, not the benchmark
                self.verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        return self.verdicts[key]

    def run_pass(self, mode):
        """Run every command once; return their (header, stdout bytes) and
        the calibration kernel times taken between them."""
        if mode == "run":
            for _ in range(SETUP_SAMPLES_PER_PASS):
                header, _ = run_child("import")
                if header is not None:
                    self.setup_s.append(header["setup_s"])
        results, kernels = [], []
        for i, argv in enumerate(self.cmds):
            header, body = run_child(mode, argv)
            self.attempted += 1
            if header is not None:
                if mode == "run":
                    self.setup_s.append(header["setup_s"])
                self._kernel_owed_s += header["wall_s"]
                while self._kernel_owed_s >= KERNEL_EVERY_S:
                    self._kernel_owed_s -= KERNEL_EVERY_S
                    kernels.append(kernel())
            reason = self.verdict(i, header, body)
            if reason is not None:
                self.failures.append(f"{' '.join(argv)}: {reason}")
            results.append((header, len(body.encode()) if header else 0))
        return results, kernels

    def passes(self, seconds, modes):
        """Run passes, cycling through modes, until the next would overrun."""
        done = []
        start = time.perf_counter()
        while True:
            mode = modes[len(done) % len(modes)]
            done.append((mode, *self.run_pass(mode)))
            elapsed = time.perf_counter() - start
            if len(done) >= max(MIN_PASSES, len(modes)) and elapsed * (len(done) + 1) / len(done) > seconds:
                return done


# ---------------------------------------------------------------------------
# metrics


def summary(values):
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def pass_totals(results):
    headers = [h for h, _ in results if h is not None]
    if len(headers) != len(results):
        return None
    return {
        "wall_s": sum(h["wall_s"] for h in headers),
        "cpu_s": sum(h["cpu_s"] for h in headers),
        "peak_rss_mb": max(h["maxrss_kb"] for h in headers) / 1024,
    }


def speed_factor(kernels):
    """REF_KERNEL_S over the median kernel time: the factor that scales raw
    times to the reference host speed."""
    return REF_KERNEL_S / statistics.median(kernels) if kernels else 1.0


def end_to_end(run, seconds):
    done = run.passes(seconds, ["run"])
    totals = [t for t in (pass_totals(r) for _, r, _ in done) if t]
    kernels = [k for _, _, ks in done for k in ks]
    stats = {name: summary([t[name] for t in totals]) for name in ("wall_s", "cpu_s", "peak_rss_mb") if totals}
    if run.setup_s:
        stats["setup_s"] = summary(run.setup_s)
    speed = speed_factor(kernels)
    print(f"  host speed factor {speed:.4f}: kernel median {REF_KERNEL_S / speed:.5f} s over "
          f"{len(kernels)} runs; timings below are raw times x {speed:.4f}")
    print("  raw median wall_s per command:")
    for i, argv in enumerate(run.cmds):
        walls = [results[i][0]["wall_s"] for _, results, _ in done if results[i][0] is not None]
        if walls:
            print(f"    {statistics.median(walls):9.4f} s  {' '.join(argv)}")
    for name in ("wall_s", "cpu_s", "setup_s"):
        if name in stats:
            stats[name] = {k: (v * speed if k != "n" else v) for k, v in stats[name].items()}
    return stats, {name: unit for name, unit in END_TO_END}


def per_layer(run, seconds):
    done = run.passes(seconds, ["run", "trace"])
    walls = {"run": [], "trace": []}
    layers, traces = [], []
    for mode, results, kernels in done:
        totals = pass_totals(results)
        if totals is None:
            continue
        speed = speed_factor(kernels)
        walls[mode].append(totals["wall_s"] * speed)
        if mode == "trace":
            table, edges, counts = spans.merge(h["trace"] for h, _ in results)
            metrics = spans.layer_metrics(table, counts, sum(size for _, size in results))
            layers.append({k: v * speed if k.endswith("_s") else v for k, v in metrics.items()})
            traces.append((table, edges))
    stats = {}
    if layers:
        stats = {name: summary([m[name] for m in layers]) for name in layers[0]}
    if walls["run"] and walls["trace"]:
        ratio = statistics.median(walls["trace"]) / statistics.median(walls["run"]) - 1
        stats["trace.overhead_ratio"] = summary([ratio])
    if traces:
        print_spans(*traces[0])
    return stats, {name: unit for name, unit, _, _ in spans.LAYER_METRICS}


def print_spans(table, edges, limit=25):
    """The first traced pass's spans by self time, and its heaviest
    caller -> callee edges by total time."""
    print(f"  spans by self time (first traced pass, top {limit}):")
    print(f"    {'span':56} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    ranked = sorted((item for item in table.items() if item[1][0]), key=lambda item: -item[1][2])
    for name, (calls, total, self_s) in ranked[:limit]:
        print(f"    {name:56} {calls:9d} {total:10.4f} {self_s:10.4f}")
    print(f"  caller -> callee by total time (top {limit}):")
    for (parent, name), (calls, total) in sorted(edges.items(), key=lambda item: -item[1][1])[:limit]:
        print(f"    {parent + ' -> ' + name:78} {calls:9d} {total:10.4f}")


def measure(workload, seed, seconds, trace):
    run = Run(workload, seed)
    run_child("import")  # compiles and caches bytecode; not a sample
    print(f"workload {workload}  seed {seed}  trace {trace}  {len(run.cmds)} commands per pass")
    stats, units = (per_layer if trace else end_to_end)(run, seconds)
    for name, unit in units.items():
        s = stats.get(name)
        if s is not None:
            print(f"  {name:34} {s['median']:14.6g} {unit:6} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    failed = len(run.failures)
    ratio = failed / run.attempted if run.attempted else 1.0
    print(f"  {'ops_failed_ratio':34} {ratio:14.6g} ratio  ({failed} of {run.attempted} commands)")
    for reason in run.failures[:10]:
        print(f"  FAILED {reason}")
    missing = [name for name in units if name not in stats]
    if missing:
        print(f"  no value for {', '.join(missing)}")
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items() if name in stats}
    correct = failed == 0 and not missing
    return {"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "macsums" / "cli.py").is_file():
        print(f"error: no macsums sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # for the second-route output checks
    if hasattr(os, "sched_setaffinity"):
        # the kernel and every command (children inherit this) share one CPU,
        # so the host speed factor is measured where the commands run
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
