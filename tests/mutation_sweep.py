"""A pinned mutation sweep over the proved widths and guards of the kernels.

Run from any directory, with pytest and hypothesis installed:

    python tests/mutation_sweep.py

Each mutant changes one line of `src/macsums` by exact text.  For each
mutant the script copies `src/`, `tests/` and `pyproject.toml` to a fresh
temporary directory, applies the mutant there (the checkout is never
edited), runs `TEST_FILES` of the copy and prints "killed" or "survived".
A mutant whose text is missing, or found more than once, is an error.  The
script exits 1 when some result differs from the one pinned below, and 0
when every result matches.  Hypothesis runs with a fixed seed, so a result
does not depend on the draw.

A mutant pinned to survive is equivalent: its reason says why no test can
kill it.  Every other mutant must be killed.  Add a mutant whenever a
change adds a proved width or a guard.  pytest does not collect this file:
its name does not start with `test_`.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_FILES = ("tests/test_series.py", "tests/test_macmahon.py", "tests/test_congruences.py", "tests/test_cli.py")
TIMEOUT_S = 900

# (name, file under src/macsums, exact text, replacement, pinned result, reason if equivalent)
MUTANTS = (
    ("W one bit short", "series.py",
     "size = (top + sum(abs(c) for _, c in tail).bit_length() + 9) // 8",
     "size = (top + sum(abs(c) for _, c in tail).bit_length() + 8) // 8",
     "killed", None),
    ("W eight bits short", "series.py",
     "size = (top + sum(abs(c) for _, c in tail).bit_length() + 9) // 8",
     "size = (top + sum(abs(c) for _, c in tail).bit_length() + 1) // 8",
     "killed", None),
    ("W from max|c| instead of S", "series.py",
     "size = (top + sum(abs(c) for _, c in tail).bit_length() + 9) // 8",
     "size = (top + max((abs(c) for _, c in tail), default=0).bit_length() + 9) // 8",
     "killed", None),
    ("leaf guard |v| > 2^b", "series.py",
     "if max(solved) >= bias or min(solved) <= -bias:",
     "if max(solved) > bias or min(solved) <= -bias:",
     "killed", None),
    ("MO slot one bit short", "macmahon.py",
     "widths = [(L * spread).bit_length() + 1 for L in products]",
     "widths = [(L * spread).bit_length() for L in products]",
     "killed", None),
    ("mo_slot_bound divided by 4", "macmahon.py",
     "return primorial**t * comb(order + t - 1, 2 * t - 1) // (totient**t * factorial(t))",
     "return primorial**t * comb(order + t - 1, 2 * t - 1) // (4 * totient**t * factorial(t))",
     "killed", None),
    ("primorial loop < for <=", "macmahon.py",
     "while primorial * p <= order:",
     "while primorial * p < order:",
     "killed", None),
    ("period proof checks two fewer differences", "macmahon.py",
     "exact = single_sum_weights(t, period + r)",
     "exact = single_sum_weights(t, period + r - 2)",
     "killed", None),
    ("M slot sized from K m_t", "macmahon.py",
     "spans = [-(-(2 * terms * m).bit_length() // b) for m in moduli.values()]",
     "spans = [-(-(terms * m).bit_length() // b) for m in moduli.values()]",
     "killed", None),
    ("K one short in the term count", "macmahon.py",
     "while k * (k + 1) // 2 + lo * (k + 1) <= order:",
     "while k * (k + 1) // 2 + lo * (k + 1) < order:",
     "killed", None),
    ("K one short in the M slot bias and size only, where the last term lands on q^order", "macmahon.py",
     "terms = max(_term_count(lo, order), 1)",
     "terms = max(_term_count(lo, order - 1), 1)",
     "survived",
     "the signs alternate, so of the K terms at most ceil(K/2) add and floor(K/2) take off a residue below m_t:"
     " the signed slot value v lies in [-floor(K/2)(m_t - 1), ceil(K/2)(m_t - 1)], and K' m_t + v stays in"
     " [0, 2 K' m_t) for K' = max(K - 1, 1), a multiple of m_t as well"),
    ("MO reduce skips a slot with L = 1", "macmahon.py",
     "for shift, mask, h, L in slots:",
     "for shift, mask, h, L in (s for s in slots if s[3] > 1):",
     "survived",
     "a slot with L = 1 holds residues mod 1, all 0, and a skipped slot leaves 0 in the repacked value"),
)


def apply(tree: Path, file: str, old: str, new: str) -> None:
    """Replace the one occurrence of old in tree/src/macsums/file, or raise
    ValueError if old is missing or found more than once."""
    path = tree / "src" / "macsums" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{file}: mutant text found {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def run(file: str, old: str, new: str) -> str:
    """'killed' or 'survived': whether TEST_FILES fail on a copy of the
    repository with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        apply(tree, file, old, new)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                   *TEST_FILES]
        try:
            done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"  # a mutant that hangs the tests fails them
        return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    mismatches = 0
    for name, file, old, new, pinned, reason in MUTANTS:
        try:
            result = run(file, old, new)
        except ValueError as error:
            print(f"error     {name}: {error}")
            mismatches += 1
            continue
        mark = "" if result == pinned else f"   <- pinned {pinned}"
        note = f" (equivalent: {reason})" if reason and result == pinned else ""
        print(f"{result:9} {name} [{file}]{note}{mark}", flush=True)
        mismatches += result != pinned
    killed = sum(pinned == "killed" for *_, pinned, _ in MUTANTS)
    print(f"{len(MUTANTS)} mutants, {killed} pinned killed; {mismatches} differ from the pin")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
