"""The result records: positional and keyword construction with defaults,
field-wise equality, and immutability of the frozen ones."""

import copy
import pickle

import pytest

from macsums.macmahon import CoefficientTable, coefficient_table
from macsums.registry import REGISTRY, IdentitySpec
from macsums.reports import CongruenceClaim, IdentityReport, ProspectResult


def test_identity_report_defaults_order_and_equality():
    r = IdentityReport("dilcher", {"t": 1}, 40, True)
    assert r == IdentityReport(ident="dilcher", params={"t": 1}, order=40, passed=True,
                               mismatch_at=None, lhs=None, rhs=None, note="")
    assert r != IdentityReport("dilcher", {"t": 1}, 40, False)
    assert r != ("dilcher", {"t": 1}, 40, True, None, None, None, "")
    r.note = "set after construction"  # reports stay mutable
    assert r.note == "set after construction"
    assert "note='set after construction'" in repr(r)


def test_congruence_claim_checks_its_progression():
    claim = CongruenceClaim("M", 2, 5, 5, 1)
    assert (claim.kind, claim.label, claim.status, claim.depth, claim.checked, claim.first_violation) == (
        "theorem", "", "", -1, 0, None)
    assert claim == CongruenceClaim(family="M", t=2, p=5, step=5, offset=1)
    assert claim != CongruenceClaim("M", 2, 5, 5, 1, status="refuted")
    for offset in (-1, 5, 6):
        with pytest.raises(ValueError, match="0 <= b < a"):
            CongruenceClaim("M", 2, 5, 5, offset)


def test_prospect_result_gets_a_fresh_claims_list():
    a, b = ProspectResult("MO", 10), ProspectResult("MO", 10)
    a.claims.append(1)
    assert b.claims == [] and b.chance_level == 0.0 and b.note == ""


@pytest.mark.parametrize("record, name", [
    (coefficient_table("M", 2, 10), "values"),
    (REGISTRY["T-inversion"], "case"),
], ids=["CoefficientTable", "IdentitySpec"])
def test_frozen_records_cannot_be_changed(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_frozen_records_compare_and_hash_by_field():
    table = coefficient_table("MO", 2, 12)
    same = CoefficientTable("MO", 2, 12, "andrews-rose", table.values)
    assert table == same and hash(table) == hash(same) and table[5] == table.values[5]
    assert pickle.loads(pickle.dumps(table)) == table
    assert table != CoefficientTable("MO", 2, 12, "umbral", table.values)
    spec = IdentitySpec("probe", "a probe", {"t": (1,)}, print)
    assert spec == IdentitySpec(ident="probe", description="a probe", grids={"t": (1,)}, case=print)
