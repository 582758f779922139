"""The identity catalog's shape and its grid contract."""

import sys
from collections import Counter
from pathlib import Path

import pytest

from macsums import identities, macmahon, rational, registry
from macsums.series import Series

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


def test_cor53_runs_points_mss_does_not():
    # cor53 is `mss_sides` with the shift named z, so a default z grid
    # inside mss's x grid would only compute mss's cases again
    assert not set(registry.REGISTRY["cor53"].grids["z"]) & set(registry.REGISTRY["mss"].grids["x"])


def test_every_declared_grid_has_a_domain():
    for spec in registry.REGISTRY.values():
        assert set(spec.grids) <= set(registry.GRID_DOMAINS), spec.ident
        for name, defaults in spec.grids.items():
            domain, admits = registry.GRID_DOMAINS[name]
            assert defaults and all(admits(v) for v in defaults), (spec.ident, name)


def test_symmetric_route_catches_a_corrupted_strict_multisum(monkeypatch):
    # the "symmetric" route must not be built from the series it is checked
    # against: one bumped coefficient of the strict chains fails its row
    strict_multisum = macmahon.strict_multisum

    def bumped(t, order):
        coeffs = list(strict_multisum(t, order).coeffs)
        coeffs[20] += 1
        return Series(coeffs, order)

    monkeypatch.setattr(macmahon, "strict_multisum", bumped)
    reports = registry.run_identity("U-agreement", {}, 40)
    symmetric = {r.params["t"]: r.passed for r in reports if r.params["formula"] == "symmetric"}
    assert symmetric == {1: False, 2: False, 3: False}


@pytest.mark.parametrize("level", [1, 3])
def test_agreement_catches_a_multisum_level_corrupted_at_depth(monkeypatch, level):
    # level 1 is written directly and the levels above through the kernel:
    # one coefficient bumped at q^(order - 1) on either fails every row of
    # that t, and only those
    multisums = macmahon.multisums

    def bumped(T, order, strict=False):
        hs = multisums(T, order, strict)
        if len(hs) >= level:
            coeffs = list(hs[level - 1].coeffs)
            coeffs[order - 1] += 1
            hs[level - 1] = Series(coeffs, order)
        return hs

    monkeypatch.setattr(macmahon, "multisums", bumped)
    reports = registry.run_identity("U-agreement", {}, 60)
    assert {r.params["t"] for r in reports if not r.passed} == {level}
    assert all(not r.passed for r in reports if r.params["t"] == level)


def test_agreement_catches_a_corrupted_direct_chain_write(monkeypatch):
    # the chain engine writes its last position from the binomial weights
    # C(j+r-1, r-1); one bumped low weight changes h_1 at q^2 and every level
    # above it, and the conjugate chain's own last write.  The single-sum and
    # theta routes share no code with the engine, so they catch it at every t.
    weights = macmahon.geometric_pow

    def bumped(k, r, order, shift=0):
        coeffs = list(weights(k, r, order, shift).coeffs)
        coeffs[1] += 1
        return Series(coeffs, order)

    monkeypatch.setattr(macmahon, "geometric_pow", bumped)
    for ident_id, independent in (("V-agreement", "single-sum"), ("U-agreement", "andrews-rose")):
        reports = registry.run_identity(ident_id, {}, 60)
        rows = {r.params["t"]: r.passed for r in reports if r.params["formula"] == independent}
        assert rows == {1: False, 2: False, 3: False}, ident_id


def test_catalog_builds_no_inverse_series(monkeypatch):
    # a q-rational term is one exact division of its numerator by its
    # denominator, never an inverse series (the constant 1 divided by a
    # series) multiplied back in
    calls = []
    divide = Series.__truediv__

    def counted(self, other):
        if self.coeffs[0] == 1 and not any(self.coeffs[1:]):
            calls.append(self.order)
        return divide(self, other)

    monkeypatch.setattr(Series, "__truediv__", counted)
    for ident_id in registry.known_ids():
        assert all(r.passed for r in registry.run_identity(ident_id, {}, 12)), ident_id
    assert calls == []


def test_identities_divide_no_series(monkeypatch):
    # a finite identity's q-rational term, the Jacobi product and theta
    # sides among them, is kernel steps on one coefficient list, and the
    # theta and umbral quotients call `divide_coeffs` directly with their
    # proved widths, so no `Series / Series` is left.  Exact divisions by
    # an int are not counted.
    callers = Counter()
    divide = Series.__truediv__

    def recorded(self, other):
        if isinstance(other, Series):
            callers[Path(sys._getframe(1).f_code.co_filename).name] += 1
        return divide(self, other)

    monkeypatch.setattr(Series, "__truediv__", recorded)
    for ident_id in registry.known_ids():
        assert all(r.passed for r in registry.run_identity(ident_id, {}, 12)), ident_id
    assert dict(callers) == {}


def bumped(module, name, at=0):
    """Install one corrupted route: `module.name` returning one more at q^at
    of its series, or one more for a scalar."""
    def install(monkeypatch):
        fn = getattr(module, name)

        def route(*args, **kwargs):
            value = fn(*args, **kwargs)
            if not isinstance(value, Series):
                return value + 1
            coeffs = list(value.coeffs)
            coeffs[at] += 1
            return Series(coeffs, value.order)

        monkeypatch.setattr(module, name, route)
    return install


def jacobi_step_doubled(monkeypatch):
    monkeypatch.setitem(identities._JACOBI_PRODUCT_STEPS, 4, ((1, -4), (3, 2)))


def lemma51_certificate_doubled(monkeypatch):
    # the q-series certificate G(m, k) doubles at k = 3, so G(m,3) - G(m,2)
    # no longer equals F(m,2); a bump at every k would cancel in the difference
    certificate = identities._wz_lemma51_G
    monkeypatch.setattr(identities, "_wz_lemma51_G",
                        lambda m, k, z, order: certificate(m, k, z, order) * (2 if k == 3 else 1))


def binomial_step_doubled(monkeypatch):
    # the running binomials C(z+k, k) take one wrong step at k = 3, which
    # every later one inherits
    running = rational._running_binomials
    monkeypatch.setattr(rational, "_running_binomials",
                        lambda z, kmax: [b * 2 if k >= 3 else b for k, b in enumerate(running(z, kmax))])


def theta_moment_3_bumped(monkeypatch):
    # the umbral route's weight-3 theta series gains 1 at q^5: its exact
    # division by 4^t (2t+1)! then leaves a remainder there
    theta = macmahon.theta_moment

    def bumped(s, order):
        coeffs = list(theta(s, order).coeffs)
        coeffs[5] += s == 3
        return Series(coeffs, order)

    monkeypatch.setattr(macmahon, "theta_moment", bumped)


def qbin_step_dropped(monkeypatch):
    # qbin(n,k)^p loses its last step, the (1-q)^((n-k)p) of 1/[n-k]_q!^p;
    # in qbin(n,k)/qbin(n+k,k) the two lost steps differ unless k = 0
    qbin = identities._qbin
    monkeypatch.setattr(identities, "_qbin", lambda *args: qbin(*args)[:-1])


# (id, grids, order, corruption, first failing report: id, params, order, mismatch_at, lhs, rhs, note)
FAILURES = {
    "merged-series-pair": (
        "theorem-FGH", {"t": [2], "n": [3]}, 30, bumped(identities, "harmonic_paired_sum", 9),
        ("theorem-FGH", {"t": 2, "n": 3}, 30, 9, "-39", "-38", "single-sum vs paired-sum")),
    "jacobi-product-step": (
        "jacobi-specialization", {"c": [4]}, 30, jacobi_step_doubled,
        ("jacobi-specialization", {"c": 4}, 30, 2, "2", "4", "product vs theta")),
    "qbin-builder-step": (
        "theorem-FGH", {"t": [2], "n": [3]}, 30, qbin_step_dropped,
        ("theorem-FGH", {"t": 2, "n": 3}, 30, 3, "1", "0", "multisum vs single-sum")),
    "merged-scalar-pair": (
        "rational-FGH-limit", {"t": [2], "n": [3]}, 40, bumped(rational, "_weak_chain_sum"),
        ("rational-FGH-limit", {"t": 2, "n": 3}, None, None, "3193/1296", "1897/1296", "multisum vs single sum")),
    "wz-walk": (
        "wz-certificates", {}, 30, bumped(identities, "_wz52_F"),
        ("wz-cor52", {"x": 0, "nmax": 3}, 30, None, None, None, "row sum differs from 1 at n=1")),
    "wz-q-certificate": (
        "wz-certificates", {}, 30, lemma51_certificate_doubled,
        ("wz-lemma51", {"z": 1, "nmax": 4}, 30, None, None, None, "pair relation fails at m=1, k=2")),
    "wz-running-binomial": (
        "wz-certificates", {}, 30, binomial_step_doubled,
        ("wz-master", {"z": "0", "nmax": 6}, None, None, None, None, "pair relation fails at m=1, k=2")),
    "inexact-division": (
        "U-agreement", {}, 20, theta_moment_3_bumped,
        ("U-agreement", {"t": 1}, 20, None, None, None, "non-integer coefficient 143/24 at q^5")),
    "case-note": (
        "mss-precursor", {"t": [1], "n": [2], "x": [1]}, 30, bumped(identities, "_bounded_x_multisum", 7),
        ("mss-precursor", {"t": 1, "n": 2, "x": 1}, 30, 9, "-1", "-2",
         "inverse-pair reading; literal printed form fails (first mismatch at q^6)")),
}


@pytest.mark.parametrize("ident_id, grids, order, corrupt, expected", FAILURES.values(), ids=FAILURES)
def test_a_corrupted_route_fails_its_case_with_both_values(monkeypatch, ident_id, grids, order, corrupt,
                                                           expected):
    # a failing series pair names the coefficients where it differs and a
    # scalar pair both values; a WZ walk names only its failing step
    corrupt(monkeypatch)
    failed = [r for r in registry.run_identity(ident_id, grids, order) if not r.passed]
    first = failed[0]
    got = (first.ident, first.params, first.order, first.mismatch_at, first.lhs, first.rhs, first.note)
    assert got == expected


def test_an_inexact_division_is_a_refutation(monkeypatch, capsys):
    # the failing case is reported, and verify exits 1, not with a traceback
    from macsums.cli import main

    theta_moment_3_bumped(monkeypatch)
    assert main(["verify", "--id", "U-agreement", "--order", "20"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  U-agreement {'t': 1}  (non-integer coefficient 143/24 at q^5)" in out


@pytest.mark.parametrize("row", ["merged-scalar-pair", "wz-running-binomial", "inexact-division"])
def test_a_failure_without_a_coefficient_index_prints_no_none(monkeypatch, capsys, row):
    # a scalar pair prints its two values and no q^i; a failed WZ walk or an
    # inexact division prints only its note
    from macsums.cli import main

    ident_id, grids, order, corrupt, (first_id, params, _, _, lhs, rhs, note) = FAILURES[row]
    corrupt(monkeypatch)
    argv = ["verify", "--id", ident_id, "--order", str(order)]
    for name, values in grids.items():
        argv += [f"--{name}", ",".join(map(str, values))]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "None" in line] == []
    values = "" if lhs is None else f"  {lhs} vs {rhs}"
    assert next(line for line in lines if line.startswith("FAIL")) == f"FAIL  {first_id} {params}  ({note}){values}"


def theta_constant_doubled(monkeypatch):
    # the weight-1 theta series, the MO theta quotient's divisor, gets the
    # constant term 2: the first nonzero numerator, 1 at q^3 for t = 2, is odd
    theta = macmahon.theta_moment

    def doubled(s, order):
        coeffs = list(theta(s, order).coeffs)
        coeffs[0] += s == 1
        return Series(coeffs, order)

    monkeypatch.setattr(macmahon, "theta_moment", doubled)


@pytest.mark.parametrize(
    "argv, corrupt, message",
    [
        (["coeffs", "--family", "MO", "--t", "1", "--n", "20", "--formula", "umbral"], theta_moment_3_bumped,
         "non-integer coefficient 143/24 at q^5"),
        # past LEAF the umbral quotient packs at MO's proved width, which the
        # corrupted quotient passes in its first leaf
        (["coeffs", "--family", "MO", "--t", "1", "--n", "100", "--formula", "umbral"], theta_moment_3_bumped,
         "a quotient coefficient in q^0..q^49 needs more than its proved 15 bits"),
        (["scan", "--claim", "MO,2,5,5,1", "--order", "50"], theta_constant_doubled,
         "non-integer coefficient 1/2 at q^3"),
    ],
    ids=["coeffs-umbral", "coeffs-umbral-at-depth", "scan-claim"],
)
def test_a_route_left_with_a_remainder_is_one_error_line(monkeypatch, capsys, argv, corrupt, message):
    # coeffs and scan have no case to fail: a remainder, or a packed
    # quotient past its proved width, prints one error line and exits 1,
    # the code of a refutation, with nothing on stdout
    from macsums.cli import main

    corrupt(monkeypatch)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_a_zero_division_or_overflow_in_a_command_propagates(monkeypatch, error):
    from macsums.cli import main

    def table(*args):
        raise error("raised by the route")

    monkeypatch.setattr(macmahon, "coefficient_table", table)
    with pytest.raises(error, match="raised by the route"):
        main(["coeffs", "--family", "M", "--t", "1", "--n", "5"])


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError, ValueError])
def test_other_errors_in_a_case_propagate(monkeypatch, error):
    # only a remainder left by an exact division fails a case; a zero
    # division or any other error is a fault of the program, not a refutation
    def case(order, t):
        raise error("raised by the case")

    monkeypatch.setitem(registry.REGISTRY, "raiser", registry.IdentitySpec("raiser", "raises", {"t": (1,)}, case))
    with pytest.raises(error, match="raised by the case"):
        registry.run_identity("raiser", {}, 10)
