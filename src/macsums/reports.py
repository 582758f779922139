"""Result records shared by the identity catalog and the congruence scanner.

An IdentityReport carries its own case data (identity id, parameters,
truncation order) next to the outcome, so a failing report is a complete,
reproducible instance on its own.  Only the catalog's runner in `registry`
builds one, from the two sides a case computed.

The records are plain `__slots__` classes rather than dataclasses: the
`dataclasses` module imports `inspect`, `ast` and `dis`, which took more of
every command's start-up than the rest of `import macsums.cli` together.
"""


class InputError(ValueError):
    """Input rejected before any work starts: an undeclared or empty grid
    or a value outside its domain, a claim that checks no coefficient, or a
    repeated prospect grid value.  The command line reports it as a usage
    error."""


class Record:
    """A record whose fields are its `__slots__`, in constructor order,
    compared field by field and listed in that order by `as_dict`."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class FrozenRecord(Record):
    """A Record whose fields cannot be set or deleted after `__init__`,
    which sets them with `_freeze`."""

    __slots__ = ()

    def _freeze(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting the slots
        return type(self), self._values()


class IdentityReport(Record):
    __slots__ = ("ident", "params", "order", "passed", "mismatch_at", "lhs", "rhs", "note")

    def __init__(self, ident: str, params: dict, order: int | None, passed: bool,
                 mismatch_at: int | None = None, lhs: str | None = None, rhs: str | None = None,
                 note: str = ""):
        self.ident = ident
        self.params = params
        self.order = order
        self.passed = passed
        self.mismatch_at = mismatch_at
        self.lhs = lhs
        self.rhs = rhs
        self.note = note

    def as_dict(self):
        d = super().as_dict()
        d["params"] = {k: str(v) for k, v in self.params.items()}
        return {"id": d.pop("ident"), **d}


VERIFIED = "verified-to-depth"
EVIDENCE = "evidence-to-depth"
REFUTED = "refuted"


def claim_status(kind: str, first_violation: int | None) -> str:
    """The one status rule for a checked congruence claim: refuted at a
    violation; otherwise verified-to-depth only for a theorem, and
    evidence-to-depth for a conjecture, a prospect or an ad-hoc claim that
    no theorem stands behind."""
    if first_violation is not None:
        return REFUTED
    return VERIFIED if kind == "theorem" else EVIDENCE


class CongruenceClaim(Record):
    """p divides coeff(step*n + offset) for all n, for a named coefficient family."""

    __slots__ = ("family", "t", "p", "step", "offset", "kind", "label", "status", "depth", "checked",
                 "first_violation")

    def __init__(
        self,
        family: str,  # "M" or "MO"
        t: int | None,
        p: int,
        step: int,
        offset: int,
        kind: str = "theorem",  # "theorem" | "conjecture" | "ad-hoc" | "prospect"; see `claim_status`
        label: str = "",
        status: str = "",
        depth: int = -1,  # largest progression index n that was checked
        checked: int = 0,
        first_violation: int | None = None,  # coefficient index of the violation
    ):
        if not (0 <= offset < step):
            raise ValueError("progression offset must satisfy 0 <= b < a")
        self.family = family
        self.t = t
        self.p = p
        self.step = step
        self.offset = offset
        self.kind = kind
        self.label = label
        self.status = status
        self.depth = depth
        self.checked = checked
        self.first_violation = first_violation

    def key(self):
        return (self.family, self.t, self.p, self.step, self.offset)


class ProspectResult(Record):
    """Progressions that survived a vanishing scan, plus the chance baseline."""

    __slots__ = ("family", "order", "claims", "chance_level", "note")

    def __init__(self, family: str, order: int, claims: list | None = None, chance_level=0, note: str = ""):
        self.family = family
        self.order = order
        self.claims = [] if claims is None else claims
        # expected number of surviving (t, p, b) triples under uniform residues, exact
        self.chance_level = chance_level
        self.note = note
