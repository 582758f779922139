"""The identity catalog's shape and its grid contract."""

import pytest

from macsums import registry

# Cases each id runs on its default grids; a changed default grid shows here.
CASE_COUNTS = {
    "FGH-recurrence": 27, "G-forms": 9, "T-inversion": 4, "U-agreement": 12,
    "V-agreement": 9, "V1-eisenstein": 1, "atidB": 27, "closed-form-U3-minus-V3": 1,
    "closed-form-U4": 1, "closed-form-V2": 1, "closed-form-V3-ode": 1, "closed-form-V3": 1,
    "conjugate-M-form": 3, "conjugate-chain": 3, "cor52": 24, "cor53": 27, "dilcher": 16,
    "eisenstein-ramanujan": 3, "excess-V2-U2": 1, "jacobi-specialization": 3,
    "mss-precursor": 18, "mss": 27, "rational-FGH-limit": 18, "rational-hypothesis": 30,
    "rational-master": 500, "sigma1-convolution": 1, "stirling-lambert": 4,
    "symmetric-relation": 4, "theorem-FGH": 12, "umbral-compact": 4,
    "umbral-square-product": 4, "umbral-tail": 4, "wz-certificates": 12,
}


def test_case_table_covers_the_catalog():
    assert sorted(CASE_COUNTS) == registry.known_ids()
    assert sum(CASE_COUNTS.values()) == 812


@pytest.mark.parametrize("ident_id", sorted(CASE_COUNTS))
def test_default_grids_case_count(ident_id):
    reports = registry.run_identity(ident_id, {}, 40)
    assert len(reports) == CASE_COUNTS[ident_id]
    assert all(r.passed for r in reports)


@pytest.fixture
def probe(monkeypatch):
    """A catalogued id whose case function records the grid points it sees."""
    calls = []

    def case(order, t, n):
        calls.append((t, n))
        return []

    spec = registry.IdentitySpec("probe", "records its calls", {"t": (1, 2), "n": (3, 4)}, case)
    monkeypatch.setitem(registry.REGISTRY, "probe", spec)
    return calls


def test_runner_walks_grids_in_declared_order(probe):
    registry.run_identity("probe", {}, 10)
    assert probe == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_runner_honours_passed_grids(probe):
    registry.run_identity("probe", {"n": [7]}, 10)
    assert probe == [(1, 7), (2, 7)]


@pytest.mark.parametrize(
    "grids, message",
    [
        ({"x": [0]}, "no grid x"),
        ({"t": []}, "grid t is empty"),
        ({"n": [5, 0]}, "grid n takes an integer in 1..16, got 0"),
        ({"t": [2, 17]}, "grid t takes an integer in 1..16, got 17"),
    ],
)
def test_bad_grid_is_rejected_before_any_case_runs(probe, grids, message):
    with pytest.raises(registry.GridError, match=message):
        registry.run_identity("probe", grids, 10)
    assert probe == []


def test_every_declared_grid_has_a_domain():
    for spec in registry.REGISTRY.values():
        assert set(spec.grids) <= set(registry.GRID_DOMAINS), spec.ident
        for name, defaults in spec.grids.items():
            domain, admits = registry.GRID_DOMAINS[name]
            assert defaults and all(admits(v) for v in defaults), (spec.ident, name)
