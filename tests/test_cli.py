"""End-to-end tests for the command-line interface and the registry."""

import csv
import io
import json

import pytest

from macsums import registry
from macsums.cli import main, parse_range


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("1..4") == [1, 2, 3, 4]
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
    code, _, err = run_cli(capsys, "verify", "--id", "no-such-thing", "--order", "10")
    assert code == 2
    assert "theorem-FGH" in err and "dilcher" in err


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
        ["scan", "--order", "-5"],
        ["verify", "--id", "dilcher", "--order", "-1"],
        ["verify", "--id", "mss", "--order", "3", "--n", "4635", "--x", "7"],  # q-Pascal recursion depth
        ["coeffs", "--family", "M", "--t", "0", "--n", "10"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_malformed_input_exits_2_without_traceback(capsys, argv):
    assert_usage_error(*run_cli(capsys, *argv))


def test_error_inside_a_case_is_not_a_usage_error(monkeypatch):
    def case(order, t):
        raise ValueError("broken case")

    monkeypatch.setitem(
        registry.REGISTRY, "broken", registry.IdentitySpec("broken", "raises", {"t": (1,)}, case)
    )
    with pytest.raises(ValueError, match="broken case"):
        main(["verify", "--id", "broken", "--order", "5"])
