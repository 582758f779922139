"""End-to-end tests for the command-line interface and the registry."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from macsums import registry
from macsums.cli import main, parse_range


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("1..4") == range(1, 5)
    assert parse_range("5,7,11") == [5, 7, 11]
    assert parse_range(None) is None


def test_coeffs_table_m24(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--family", "M", "--t", "2", "--n", "10")
    assert code == 0
    rows = dict(
        line.split("\t")[:2] for line in out.splitlines() if line and not line.startswith("#")
    )
    assert rows["4"] == "14"


def test_coeffs_mo_prefix(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--family", "MO", "--t", "1", "--n", "6")
    assert code == 0
    values = [line.split("\t")[1] for line in out.splitlines() if not line.startswith("#")]
    assert values == ["0", "1", "3", "4", "7", "6", "12"]


def test_coeffs_with_modulus_csv(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--family", "M", "--t", "2", "--n", "30", "--mod", "5",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "t", "n", "value", "modulus", "residue"]
    for row in rows[1:]:
        n, residue = int(row[2]), int(row[5])
        if n % 5 in (1, 3):
            assert residue == 0


def test_coeffs_rejects_unknown_family(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--family", "Q", "--t", "1", "--n", "4")
    assert code == 2
    assert "family" in err


def test_coeffs_rejects_unknown_formula(capsys):
    code, _, err = run_cli(
        capsys, "coeffs", "--family", "M", "--t", "1", "--n", "4", "--formula", "nope"
    )
    assert code == 2
    assert "multisum" in err  # the message names the registry keys


def test_verify_pass_and_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "theorem-FGH", "--t", "1..2", "--n", "1..3", "--order", "30"
    )
    assert code == 0
    assert "6/6 cases passed" in out


def test_verify_closed_form(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "closed-form-V3", "--order", "50")
    assert code == 0 and "PASS" in out


def test_verify_conjugate_form(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "conjugate-M-form", "--t", "2", "--order", "40"
    )
    assert code == 0


def test_verify_unknown_id_lists_registry(capsys):
    # one error line, the ids comma-separated on it
    code, out, err = run_cli(capsys, "verify", "--id", "no-such-thing", "--order", "10")
    assert_usage_error(code, out, err)
    assert f"known ids: {', '.join(registry.known_ids())}\n" in err


def test_verify_json_reports(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "dilcher", "--t", "1..2", "--n", "1..2",
        "--order", "20", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert all(r["passed"] for r in payload["results"])


def test_scan_requires_order(capsys):
    code, _, err = run_cli(capsys, "scan")
    assert code == 2
    assert "order" in err


def test_scan_single_claim(capsys):
    code, out, _ = run_cli(capsys, "scan", "--claim", "M,3,7,8,4", "--order", "200")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "claim, tag, kind, label",
    [
        ("MO,10,11,11,7", "EVIDENCE", "conjecture", "11 | MO(10, 11n+7)  [open]"),
        ("M,3,7,8,4", "PASS", "theorem", "7 | M(3, 8n+4)"),
        ("M,7,3,3,2", "EVIDENCE", "ad-hoc", ""),  # true for t = 1 mod 3, but not a claim of the paper
    ],
    ids=["conjecture", "theorem", "not-in-the-paper"],
)
def test_a_claim_reads_verified_only_with_a_theorem_behind_it(capsys, tmp_path, claim, tag, kind, label):
    # a typed claim of the paper takes its kind and label; a report claim
    # with no kind is ad-hoc; only a theorem reads verified, on --claim and
    # on --recheck alike
    status = {"PASS": "verified-to-depth", "EVIDENCE": "evidence-to-depth"}[tag]
    code, out, _ = run_cli(capsys, "scan", "--claim", claim, "--order", "62")
    assert code == 0
    assert out.startswith(f"{tag}  ") and f"[{kind}]" in out and out.endswith(f"{label}\n")
    code, out, _ = run_cli(capsys, "scan", "--claim", claim, "--order", "62", "--format", "json")
    payload = json.loads(out)
    (result,) = payload["results"]
    assert (code, result["kind"], result["label"], result["status"]) == (0, kind, label, status)
    report = tmp_path / "report.json"
    for recorded in (result, {k: v for k, v in result.items() if k != "kind"}):
        report.write_text(json.dumps(dict(payload, results=[recorded])))
        code, out, _ = run_cli(capsys, "scan", "--input", str(report), "--recheck", "--format", "json")
        (fresh,) = json.loads(out)["results"]
        assert (code, fresh["kind"], fresh["status"]) == (0, kind, status)


def test_scan_refuted_claim_exits_nonzero(capsys):
    code, out, _ = run_cli(capsys, "scan", "--claim", "M,1,5,5,1", "--order", "60")
    assert code == 1
    assert "FAIL" in out


def test_scan_suite_and_recheck_round_trip(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "scan", "--suite", "paper", "--order", "120",
        "--format", "json", "--output", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1 and payload["order"] == 120
    statuses = {(r["family"], r["t"], r["p"], r["step"], r["offset"]): r["status"]
                for r in payload["results"]}

    code, out, err = run_cli(capsys, "scan", "--input", str(report), "--recheck")
    assert code == 0
    # statuses reproduced identically at the recorded order
    for line in out.splitlines():
        assert not line.startswith("status changed")
    assert "conjecture" in out.lower() or "EVIDENCE" in out


def test_scan_prospect_report_rechecks_unchanged(capsys, tmp_path):
    # a prospect survivor is evidence, in its own report and on recheck
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "scan", "--prospect", "--family", "MO", "--t", "2..3", "--p", "5,7",
        "--order", "200", "--format", "json", "--output", str(report),
    )
    assert code == 0
    results = json.loads(report.read_text())["results"]
    assert len(results) == 4 and {r["status"] for r in results} == {"evidence-to-depth"}

    code, out, err = run_cli(capsys, "scan", "--input", str(report), "--recheck")
    assert code == 0
    assert "status changed" not in err
    lines = out.splitlines()
    assert len(lines) == 4 and all(line.startswith("EVIDENCE") for line in lines)


def test_scan_prospect(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--prospect", "--family", "MO", "--t", "2", "--p", "5",
        "--order", "120", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    found = {(r["p"], r["offset"]) for r in payload["results"]}
    assert found == {(5, 1), (5, 2)}


def test_scan_prospect_wide_grid_includes_mod11_claim(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--prospect", "--family", "MO", "--t", "1..6", "--p", "5,7,11",
        "--order", "200", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert any(r["t"] == 4 and r["p"] == 11 and r["offset"] == 6 for r in payload["results"])


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--suite", "paper", "--order", "120"],
        ["scan", "--prospect", "--family", "MO", "--t", "1..3", "--p", "5,7", "--order", "120"],
        ["scan", "--claim", "MO,1,5,5,1", "--order", "7"],
        ["scan", "--claim", "M,3,7,8,4", "--order", "200"],
    ],
    ids=["suite", "prospect", "claim-refuted", "claim-passed"],
)
def test_scan_text_lines_end_without_whitespace(capsys, argv):
    # an ad-hoc claim has no label, and its line used to end in the two
    # spaces that separate one
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1)
    lines = out.splitlines()
    assert lines and [line for line in lines if line != line.rstrip()] == []


def test_scan_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "scan", "--suite", "everything", "--order", "50")
    assert code == 2
    assert "paper" in err


def test_registry_runs_every_id_smoke():
    # tiny order, each declared grid trimmed to one value: just prove each
    # case function executes and returns reports
    small_grids = {"t": [1], "n": [1], "x": [0], "z": [0], "c": [4]}
    for ident_id in registry.known_ids():
        grids = {name: small_grids[name] for name in registry.REGISTRY[ident_id].grids}
        reports = registry.run_identity(ident_id, grids, 20)
        assert reports, ident_id
        assert all(r.passed for r in reports), ident_id


def test_registry_unknown_id():
    with pytest.raises(KeyError):
        registry.run_identity("bogus", {}, 10)


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_rejects_grid_the_id_does_not_declare(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "theorem-FGH", "--order", "20", "--x", "7")
    assert_usage_error(code, out, err)
    assert "x" in err and "t, n" in err


def test_verify_rejects_empty_grid(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "dilcher", "--order", "20", "--t", "5..1")
    assert_usage_error(code, out, err)
    assert "empty" in err


@pytest.mark.parametrize("option", ["--t", "--p"])
def test_prospect_names_a_reversed_range(capsys, option):
    grids = {"--t": "1..2", "--p": "5,7", option: "3..1"}
    code, out, err = run_cli(capsys, "scan", "--prospect", *sum(grids.items(), ()), "--order", "60")
    assert_usage_error(code, out, err)
    assert f"error: {option} 3..1 is a reversed range" in err


def test_verify_rejects_non_integer_grid(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "dilcher", "--order", "20", "--t", "abc")
    assert_usage_error(code, out, err)
    assert "abc" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--claim", "M,2,5,5,7", "--order", "50"],  # offset >= step
        ["scan", "--claim", "M,2,4,5,1", "--order", "50"],  # modulus not prime
        ["scan", "--claim", "Q,2,5,5,1", "--order", "50"],  # unknown family
        ["scan", "--claim", "M,x,5,5,1", "--order", "50"],
        ["scan", "--prospect", "--t", "a", "--order", "50"],
        ["scan", "--prospect", "--family", "MO", "--t", "2,2", "--p", "5", "--order", "60"],  # repeated t
        ["scan", "--prospect", "--family", "M", "--t", "1..3", "--p", "5,7,5", "--order", "60"],  # repeated p
        # a table zero through the order: every offset would survive on structural zeros
        ["scan", "--prospect", "--family", "M", "--t", "30", "--p", "5", "--order", "20"],
        ["scan", "--prospect", "--family", "MO", "--t", "6", "--p", "5,7", "--order", "20"],
        ["scan", "--order", "-5"],
        ["verify", "--id", "dilcher", "--order", "-1"],
        ["verify", "--id", "mss", "--order", "3", "--n", "4635", "--x", "7"],  # q-Pascal recursion depth
        # ranges past sys.maxsize: checked value by value, never built as a list
        ["verify", "--id", "dilcher", "--order", "5", "--t", "1..10000000000000000000"],
        ["scan", "--prospect", "--t", "1", "--p", "3..10000000000000000000", "--order", "5"],
        ["scan", "--prospect", "--family", "M", "--t", "1..100000000", "--p", "5", "--order", "5"],  # stops at t = 6
        ["coeffs", "--family", "M", "--t", "0", "--n", "10"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_malformed_input_exits_2_without_traceback(capsys, argv):
    assert_usage_error(*run_cli(capsys, *argv))


SUITE_CLAIM = {"family": "M", "t": 2, "p": 5, "step": 5, "offset": 1, "status": "verified-to-depth"}
NOT_IN_THE_PAPER = {"family": "M", "t": 7, "p": 3, "step": 3, "offset": 2, "status": "verified-to-depth"}


@pytest.mark.parametrize(
    "report",
    [
        [SUITE_CLAIM],  # not an object
        {"schema": 1, "command": "scan", "order": 50, "results": 5},  # no results list
        {"schema": 1, "command": "scan", "order": 50, "results": [{"family": "M", "t": 2}]},
        {"schema": 1, "command": "scan", "order": 50, "results": [dict(SUITE_CLAIM, p=4)]},
        {"schema": 1, "command": "scan", "order": 50, "results": [dict(SUITE_CLAIM, t="2")]},
        {"schema": 1, "command": "scan", "order": 50, "results": [dict(SUITE_CLAIM, kind=["x"])]},
        {"schema": 1, "command": "scan", "order": 50, "results": [dict(SUITE_CLAIM, kind="lemma")]},
        {"schema": 1, "command": "scan", "order": 50, "results": [dict(SUITE_CLAIM, label=5)]},
        {"schema": 1, "command": "scan", "order": 50,
         "results": [dict(SUITE_CLAIM, label="5 | M(2, 5n+1)\nPASS  M t=7 p=3 progression 3n+2  [theorem]")]},
        {"schema": 1, "command": "scan", "order": 50, "results": [dict(NOT_IN_THE_PAPER, kind="theorem")]},
        {"schema": 1, "command": "scan", "order": 50, "results": [dict(NOT_IN_THE_PAPER, kind="conjecture")]},
    ],
    ids=["not-an-object", "no-results-list", "missing-keys", "modulus-not-prime", "string-t", "kind-not-a-string",
         "unknown-kind", "label-not-a-string", "two-line-label", "theorem-not-in-the-paper",
         "conjecture-not-in-the-paper"],
)
def test_recheck_rejects_malformed_report(capsys, tmp_path, report):
    # a kind outside the four, a theorem or conjecture the paper does not
    # state, or a label that is not one line of text is malformed too
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert_usage_error(*run_cli(capsys, "scan", "--input", str(path), "--recheck"))


@pytest.mark.parametrize(
    "claim, forged, kind, status, label",
    [
        (("MO", 10, 11, 11, 7), "theorem", "conjecture", "evidence-to-depth", "11 | MO(10, 11n+7)  [open]"),
        (("MO", 4, 11, 11, 6), "conjecture", "theorem", "verified-to-depth", "11 | MO(4, 11n+6)"),
    ],
    ids=["conjecture-as-theorem", "theorem-as-conjecture"],
)
def test_recheck_gives_a_paper_claim_the_papers_kind_and_label(capsys, tmp_path, claim, forged, kind, status,
                                                                label):
    # a hand-edited report cannot make the open conjecture read verified:
    # a claim of the paper takes the paper's kind and label, and a recorded
    # status that then differs is reported and exits 1
    recorded = dict(zip(("family", "t", "p", "step", "offset"), claim), kind=forged, label="forged",
                    status="verified-to-depth")
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema": 1, "command": "scan", "order": 200, "results": [recorded]}))
    code, out, err = run_cli(capsys, "scan", "--input", str(path), "--recheck", "--format", "json")
    (fresh,) = json.loads(out)["results"]
    assert (fresh["kind"], fresh["label"], fresh["status"]) == (kind, label, status)
    assert code == (0 if status == "verified-to-depth" else 1)
    assert ("status changed" in err) == (code == 1)


@pytest.mark.parametrize(
    "modes",
    [
        ["--suite", "paper", "--claim", "M,3,7,8,4"],
        ["--prospect", "--suite", "paper"],
        ["--claim", "M,3,7,8,4", "--prospect"],
        ["--input", "REPORT", "--suite", "paper"],
    ],
    ids=" ".join,
)
def test_scan_rejects_more_than_one_mode(capsys, tmp_path, modes):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"schema": 1, "command": "scan", "order": 50, "results": [SUITE_CLAIM]}))
    argv = [str(report) if arg == "REPORT" else arg for arg in modes]
    assert_usage_error(*run_cli(capsys, "scan", *argv, "--order", "50"))


@pytest.mark.parametrize(
    "argv, names",
    [
        (["--recheck", "--order", "20"], ["--recheck", "--input"]),
        (["--input", "REPORT", "--recheck", "--order", "5"], ["--recheck", "--order", "order 30"]),
        (["--input", "REPORT"], ["order 30", "--order", "--recheck"]),
    ],
    ids=["recheck-without-input", "recheck-with-order", "input-without-order-or-recheck"],
)
def test_scan_order_flags_are_never_ignored(capsys, tmp_path, argv, names):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"schema": 1, "command": "scan", "order": 30, "results": [SUITE_CLAIM]}))
    argv = [str(report) if arg == "REPORT" else arg for arg in argv]
    code, out, err = run_cli(capsys, "scan", *argv)
    assert_usage_error(code, out, err)
    for name in names:
        assert name in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["coeffs", "--family", "M", "--t", "2", "--n", "10"], "missing/x.txt"),
        (["verify", "--id", "dilcher", "--order", "5"], "."),  # a directory
        (["scan", "--claim", "M,3,7,8,4", "--order", "50", "--format", "json"], "missing/r.json"),
    ],
    ids=["coeffs", "verify", "scan"],
)
def test_unwritable_output_exits_2(capsys, tmp_path, argv, target):
    output = tmp_path / target
    code, out, err = run_cli(capsys, *argv, "--output", str(output))
    assert_usage_error(code, out, err)
    assert str(output) in err


def test_error_inside_a_case_is_not_a_usage_error(monkeypatch):
    def case(order, t):
        raise ValueError("broken case")

    monkeypatch.setitem(
        registry.REGISTRY, "broken", registry.IdentitySpec("broken", "raises", {"t": (1,)}, case)
    )
    with pytest.raises(ValueError, match="broken case"):
        main(["verify", "--id", "broken", "--order", "5"])


@pytest.mark.parametrize(
    "argv, named, smallest",
    [
        (["--suite", "paper", "--order", "0"], "11 | MO(10, 11n+7)", 62),
        (["--suite", "paper", "--order", "6"], "11 | MO(10, 11n+7)", 62),
        (["--claim", "MO,4,11,11,6", "--order", "5"], "11 | MO(4, 11n+6)", 17),
        (["--input", "REPORT", "--recheck"], "5 | M(2, 5n+1)", 6),
        (["--suite", "paper", "--order", "60"], "11 | MO(10, 11n+7)", 62),
        (["--claim", "MO,40,7,8,4", "--order", "30"], "7 | MO(40, 8n+4)", 820),
        (["--claim", "MO,3,2147483647,2147483647,5", "--order", "200"], "2147483647 | MO(3, 2147483647n+5)",
         2147483652),
    ],
    ids=["suite-order-0", "suite-order-6", "claim", "recheck", "suite-order-60", "claim-on-zeros", "wide-on-zeros"],
)
def test_scan_rejects_a_claim_the_order_checks_nowhere(capsys, tmp_path, argv, named, smallest):
    # a claim with offset > order used to report PASS with depth=-1 and no
    # coefficient checked; one whose indices <= order all lie below its
    # leading window used to report EVIDENCE on structural zeros
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"schema": 1, "command": "scan", "order": 0, "results": [SUITE_CLAIM]}))
    argv = [str(report) if arg == "REPORT" else arg for arg in argv]
    code, out, err = run_cli(capsys, "scan", *argv)
    assert_usage_error(code, out, err)
    assert named in err and f"order {smallest} is the smallest" in err


def test_python_dash_m_runs_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "macsums", "--help"], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: macsums")


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "--id", "T-inversion", "--order", "20", "--format", "csv"], "verify-T-inversion-order20.csv"),
        (["verify", "--id", "T-inversion", "--order", "20", "--format", "json"], "verify-T-inversion-order20.json"),
        (["coeffs", "--family", "M", "--t", "2", "--n", "30", "--mod", "7", "--format", "csv"],
         "coeffs-M-t2-n30-mod7.csv"),
        (["coeffs", "--family", "M", "--t", "2", "--n", "30", "--mod", "7", "--format", "json"],
         "coeffs-M-t2-n30-mod7.json"),
        (["scan", "--suite", "paper", "--order", "62", "--format", "csv"], "scan-suite-paper-order62.csv"),
        (["scan", "--prospect", "--family", "MO", "--t", "1..3", "--p", "5,7", "--order", "60", "--format", "json"],
         "scan-prospect-MO-t1-3-p5-7-order60.json"),
        *((["verify", "--id", ident, "--order", "30"], f"verify-{ident}-order30.txt")
          for ident in ("theorem-FGH", "FGH-recurrence", "G-forms", "mss", "mss-precursor", "atidB", "cor52",
                        "cor53", "wz-certificates")),
        # the benchmark's congruence commands, at orders a test can afford
        (["scan", "--suite", "paper", "--order", "3000", "--format", "json"], "scan-suite-paper-order3000.json"),
        (["scan", "--prospect", "--family", "M", "--t", "1..6", "--p", "5,7,11", "--order", "2000", "--format", "json"],
         "scan-prospect-M-t1-6-p5-7-11-order2000.json"),
        (["scan", "--prospect", "--family", "MO", "--t", "1..6", "--p", "5,7,11", "--order", "1000", "--format",
          "json"], "scan-prospect-MO-t1-6-p5-7-11-order1000.json"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_machine_readable_output_is_byte_identical_to_golden(capsys, argv, name):
    # csv rows end in \r\n and verify's params column is json.dumps(params, default=str)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


# sha256 of the json output of every catalog id at order 40, in id order
CATALOG_JSON_SHA256 = "1ca419db74446476be2928bf11605d36dbd37304092a445cb22086d5f2767aa4"


def test_catalog_output_is_byte_identical_to_golden(capsys):
    # every id at its default grids: the text is the golden, the json (which
    # alone shows each report's order) is pinned by its digest
    text, digest = [], hashlib.sha256()
    for ident in registry.known_ids():
        argv = ["verify", "--id", ident, "--order", "40"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, ident
        text.append(f"$ macsums {' '.join(argv)}\n{out}")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, ident
        digest.update(out.encode())
    assert "".join(text).encode() == (GOLDEN / "verify-catalog-order40.txt").read_bytes()
    assert digest.hexdigest() == CATALOG_JSON_SHA256


# the same digest at order 120: a term shifted past order 40 shows only here
CATALOG_JSON_SHA256_ORDER120 = "c52c2f64f4bb8a651293468552e703944fbdca72b5a70a5bd7b600d0a0f1f9b6"


def test_catalog_json_at_order_120_is_pinned(capsys):
    digest = hashlib.sha256()
    for ident in registry.known_ids():
        code, out, _ = run_cli(capsys, "verify", "--id", ident, "--order", "120", "--format", "json")
        assert code == 0, ident
        digest.update(out.encode())
    assert digest.hexdigest() == CATALOG_JSON_SHA256_ORDER120


@pytest.mark.parametrize("command", [None, "coeffs", "verify", "scan"])
def test_help_is_byte_identical_to_golden(capsys, monkeypatch, command):
    # each subcommand's parser gets its arguments only when it runs; the help must not show it
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / ("help.txt" if command is None else f"help-{command}.txt")).read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify", "--id", "dilcher", "--help"], "help-verify.txt"),
        (["coeffs", "--family=M", "--t", "-2", "-h"], "help-coeffs.txt"),
        (["scan", "--prospect", "--order", "5", "--help", "--bogus"], "help-scan.txt"),
        (["-h", "verify"], "help.txt"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_help_after_other_options_is_the_command_help(capsys, monkeypatch, argv, golden):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_unknown_command_is_an_invalid_choice(capsys):
    code, out, err = run_cli(capsys, "bogus", "--order", "5")
    assert_usage_error(code, out, err)
    assert "'bogus'" in err
    assert all(name in err for name in ("coeffs", "verify", "scan"))


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "no command"),
        (["--order", "5", "verify"], "'--order'"),
        (["verify", "--id", "dilcher", "--ord", "20"], "'--ord'"),  # no abbreviations
        (["verify", "--id", "dilcher", "--order", "20", "--bogus=1"], "'--bogus=1'"),
        (["verify", "-i", "dilcher", "--order", "20"], "'-i'"),
        (["verify", "--id", "dilcher", "--order"], "--order needs a value"),
        (["verify", "--id", "--order", "20"], "--id needs a value"),
        (["verify", "--id", "dilcher", "--order", "x"], "'x'"),
        (["coeffs", "--family", "M", "--t=2.5", "--n", "4"], "'2.5'"),
        (["verify", "--id", "dilcher", "--order", "20", "--format", "xml"], "'xml'"),
        (["verify", "--order", "20"], "--id"),
        (["coeffs", "--family", "M"], "--t, --n"),
        (["scan", "--prospect=yes", "--order", "20"], "--prospect"),
        (["scan", "--input", "report.json", "--recheck=1"], "--recheck"),
        (["verify", "stray", "--id", "dilcher", "--order", "20"], "'stray'"),
        (["verify", "--id", "dilcher", "--order", "20", "stray"], "'stray'"),
    ],
    ids=lambda v: (" ".join(v) or "no command") if isinstance(v, list) else None,
)
def test_parse_errors_are_one_error_line(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert_usage_error(code, out, err)
    assert named in err


def test_cli_imports_no_dataclasses_typing_json_or_csv():
    # the start-up cost of every command: a text-format verify, coeffs table
    # or suite scan loads none of these either; only a command that computes
    # an exact rational loads fractions, and with it decimal and numbers.
    # The import loads no struct either: only a division's packed middle
    # product uses it (site start-up would load it, hence -S)
    src = Path(__file__).resolve().parent.parent / "src"
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "HEAVY = ('dataclasses', 'inspect', 'typing', 'json', 'csv', 'argparse', 'gettext', 'locale',",
        "         'fractions', 'decimal', 'numbers', '__future__')",
        "import macsums.cli",
        "print('import', *[m for m in HEAVY + ('struct',) if m in sys.modules])",
        "for argv in (['verify', '--id', 'T-inversion', '--order', '10'],",
        "             ['coeffs', '--family', 'MO', '--t', '2', '--n', '50'],",
        "             ['scan', '--suite', 'paper', '--order', '200']):",
        "    rc = macsums.cli.main(argv)",
        "    print('main', argv[0], rc, *[m for m in HEAVY if m in sys.modules])",
        "rc = macsums.cli.main(['verify', '--id', 'rational-hypothesis', '--order', '10'])",
        "print('rational', rc)",
    ])
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "import"
    assert "# 4/4 cases passed" in lines
    assert [line for line in lines if line.startswith("main")] == ["main verify 0", "main coeffs 0", "main scan 0"]
    assert lines[-2:] == ["# 30/30 cases passed", "rational 0"]


def test_coeffs_for_a_t_past_the_order_answer_at_once():
    # t = 100000 is zero through q^5 on every route, and the route is not
    # run; the M recurrence and the MO symmetric and umbral routes used to
    # take time growing with t.  A child runs all nine, so a regression fails
    # on the timeout instead of hanging the suite.
    src = Path(__file__).resolve().parent.parent / "src"
    script = "\n".join([
        "import contextlib, io, sys, time",
        f"sys.path.insert(0, {str(src)!r})",
        "from macsums import cli, macmahon",
        "for family, table in (('M', macmahon.M_FORMULAS), ('MO', macmahon.MO_FORMULAS)):",
        "    for formula in table:",
        "        out = io.StringIO()",
        "        start = time.perf_counter()",
        "        with contextlib.redirect_stdout(out):",
        "            rc = cli.main(['coeffs', '--family', family, '--t', '100000', '--n', '5', '--formula', formula])",
        "        elapsed = time.perf_counter() - start",
        "        values = [line.split('\\t')[1] for line in out.getvalue().splitlines()[1:]]",
        "        print(family, formula, rc, elapsed < 0.5, *values)",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert len(rows) == 9
    for family, formula, *rest in rows:
        assert rest == ["0", "True"] + ["0"] * 6, (family, formula)


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--family", "M", "--t", "2", "--n", "100000000000"],
        ["scan", "--suite", "paper", "--order", "100000000000"],
        ["verify", "--id", "dilcher", "--order", "100000000000"],
        ["scan", "--prospect", "--family", "MO", "--t", "1..3", "--p", "5", "--order", "100000000000"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_memory_exhaustion_exits_2_without_traceback(argv):
    # an order too large for memory is a usage error, not a refutation (exit
    # 1); the child alone runs under a 512 MB address-space limit, and every
    # command builds its output whole, so nothing reaches stdout
    src = Path(__file__).resolve().parent.parent / "src"
    script = "\n".join([
        "import resource, sys",
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))",
        f"sys.path.insert(0, {str(src)!r})",
        "from macsums import cli",
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error: ")]
    assert errors == ["error: out of memory; try a smaller order or grid"]
    assert "Traceback" not in done.stderr
