"""Result records shared by the identity catalog and the congruence scanner.

An IdentityReport carries its own case data (identity id, parameters,
truncation order) next to the outcome, so a failing report is a complete,
reproducible instance on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IdentityReport:
    ident: str
    params: dict
    order: int | None
    passed: bool
    mismatch_at: int | None = None
    lhs: str | None = None
    rhs: str | None = None
    note: str = ""

    def as_dict(self):
        return {
            "id": self.ident,
            "params": {k: str(v) for k, v in self.params.items()},
            "order": self.order,
            "passed": self.passed,
            "mismatch_at": self.mismatch_at,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "note": self.note,
        }


def series_report(ident, params, order, lhs, rhs, upto=None, note=""):
    """Compare two series coefficientwise and wrap the outcome."""
    idx = lhs.first_mismatch(rhs, upto)
    if idx is None:
        return IdentityReport(ident, dict(params), order, True, note=note)
    return IdentityReport(
        ident,
        dict(params),
        order,
        False,
        mismatch_at=idx,
        lhs=str(lhs[idx]),
        rhs=str(rhs[idx]),
        note=note,
    )


def value_report(ident, params, lhs, rhs, note=""):
    """Compare two exact scalars and wrap the outcome."""
    if lhs == rhs:
        return IdentityReport(ident, dict(params), None, True, note=note)
    return IdentityReport(
        ident, dict(params), None, False, mismatch_at=None, lhs=str(lhs), rhs=str(rhs), note=note
    )


def merge_reports(ident, params, order, reports, note=""):
    """Collapse pairwise sub-reports into one, keeping the first failure."""
    for r in reports:
        if not r.passed:
            out = IdentityReport(
                ident, dict(params), order, False, r.mismatch_at, r.lhs, r.rhs,
                note=(r.note if not note else f"{note}; {r.note}"),
            )
            return out
    return IdentityReport(ident, dict(params), order, True, note=note)


VERIFIED = "verified-to-depth"
EVIDENCE = "evidence-to-depth"
REFUTED = "refuted"


@dataclass
class CongruenceClaim:
    """p divides coeff(step*n + offset) for all n, for a named family stream."""

    family: str  # "M", "MO" or "sigma"
    t: int | None
    p: int
    step: int
    offset: int
    kind: str = "theorem"  # "theorem" | "conjecture" | "control" | "prospect"
    label: str = ""
    status: str = ""
    depth: int = -1  # largest progression index n that was checked
    checked: int = 0
    first_violation: int | None = None  # coefficient index of the violation

    def __post_init__(self):
        if not (0 <= self.offset < self.step):
            raise ValueError("progression offset must satisfy 0 <= b < a")

    def key(self):
        return (self.family, self.t, self.p, self.step, self.offset)

    def as_dict(self):
        return {
            "family": self.family,
            "t": self.t,
            "p": self.p,
            "step": self.step,
            "offset": self.offset,
            "kind": self.kind,
            "label": self.label,
            "status": self.status,
            "depth": self.depth,
            "checked": self.checked,
            "first_violation": self.first_violation,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            family=d["family"],
            t=d["t"],
            p=d["p"],
            step=d["step"],
            offset=d["offset"],
            kind=d.get("kind", "theorem"),
            label=d.get("label", ""),
            status=d.get("status", ""),
            depth=d.get("depth", -1),
            checked=d.get("checked", 0),
            first_violation=d.get("first_violation"),
        )


@dataclass
class ProspectResult:
    """Progressions that survived a vanishing scan, plus the chance baseline."""

    family: str
    order: int
    claims: list = field(default_factory=list)
    # expected number of surviving (t, p, b) triples under uniform residues
    chance_level: float = 0.0
    note: str = ""
