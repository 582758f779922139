"""Property tests for the command-line input contract: 0 pass, 1 refutation,
2 usage error, and never an uncaught exception."""

import contextlib
import io
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from macsums import registry
from macsums.cli import COMMANDS, build_parser, main, parse_args, parse_range
from macsums.macmahon import leading_window

# Grid values are small, or beyond the grids' cap of 16: a valid value near the
# cap makes one case take minutes.  Free text always holds a letter, so it
# tests the parser, not the identities.
small = st.integers(min_value=-3, max_value=6)
value = st.one_of(small, st.integers(min_value=17, max_value=10**6))
grid_text = st.one_of(
    value.map(str),
    st.builds(lambda a, b: f"{a}..{b}", small, small),
    st.lists(value, min_size=1, max_size=3).map(lambda vs: ",".join(map(str, vs))),
    st.text(alphabet="0123456789.,-ax ", max_size=6).filter(lambda s: "a" in s or "x" in s),
)
primes = st.sampled_from([3, 5, 7, 11, 13])
prime_text = st.one_of(
    grid_text, st.lists(primes, min_size=1, max_size=3).map(lambda ps: ",".join(map(str, ps)))
)
claim_text = st.one_of(
    st.builds(  # well-formed claims: they pass or are refuted
        lambda family, t, p, step_offset: f"{family},{t},{p},{step_offset[0]},{step_offset[1]}",
        st.sampled_from(["M", "MO"]), st.integers(1, 6), primes,
        st.integers(1, 12).flatmap(lambda step: st.tuples(st.just(step), st.integers(0, step - 1))),
    ),
    st.builds(
        lambda *fields: ",".join(map(str, fields)),
        st.sampled_from(["M", "MO", "Q", ""]),
        st.integers(-1, 8), st.integers(-1, 40), st.integers(-1, 12), st.integers(-1, 12),
    ),
    st.text(alphabet="MOQ0123456789,-x ", max_size=12),
)
order = st.integers(min_value=-2, max_value=8)


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    event(f"exit {code}")
    if code == 2:
        assert err.getvalue().startswith("error: "), argv


def option_value(kind):
    """A valid value of an option of this kind, as a command-line word: an
    int may be negative; text never starts with '-', which argparse would
    read as an option."""
    if kind is int:
        return st.integers(-10**6, 10**6).map(str)
    if kind is str:
        return st.text(alphabet="aMO019.,=_- ", max_size=6).filter(lambda s: not s.startswith("-"))
    return st.sampled_from(kind)


@st.composite
def valid_argv(draw, command):
    # every required option at least once, any option repeated, in any order,
    # each value as `--name value` or `--name=value`
    options = COMMANDS[command][1]
    names = [name for name, (_, required, _, _) in options.items() if required]
    names += draw(st.lists(st.sampled_from(sorted(options)), max_size=8))
    argv = [command]
    for name in draw(st.permutations(names)):
        kind = options[name][0]
        if kind is bool:
            argv.append(f"--{name}")
            continue
        value = draw(option_value(kind))
        argv += [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]
    return argv


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)).flatmap(valid_argv))
def test_parser_matches_argparse_on_valid_argv(argv):
    # argparse, built from the same option table, is the reference
    expected = vars(build_parser(argv[0]).parse_args(argv[1:]))
    assert vars(parse_args(argv)) == dict(expected, command=argv[0])


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_parse_range_round_trips_ranges(lo, hi):
    assert parse_range(f"{lo}..{hi}") == range(lo, hi + 1)


@given(st.lists(st.integers(-10**6, 10**6), max_size=8))
def test_parse_range_round_trips_lists(values):
    assert parse_range(",".join(map(str, values))) == values


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(registry.known_ids()),
    st.dictionaries(st.sampled_from(sorted(registry.GRID_DOMAINS)), grid_text, max_size=3),
    order,
)
def test_verify_grids_never_raise(ident_id, grids, order):
    argv = ["verify", "--id", ident_id, "--order", str(order)]
    for name, text in grids.items():
        argv += [f"--{name}={text}"]
    run(argv)


@settings(max_examples=60, deadline=None)
@given(claim_text, st.integers(-2, 30))
def test_scan_claims_never_raise(claim, order):
    run(["scan", f"--claim={claim}", "--order", str(order)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["M", "MO", "X"]), grid_text, prime_text, st.integers(-2, 30))
def test_scan_prospect_grids_never_raise(family, t, p, order):
    run(["scan", "--prospect", "--family", family, f"--t={t}", f"--p={p}", "--order", str(order)])


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["M", "MO"]), st.integers(1, 4), primes,
    st.integers(1, 12).flatmap(lambda step: st.tuples(st.just(step), st.integers(0, step - 1))),
    st.integers(0, 40),
)
def test_scan_report_rechecks_to_the_same_results(tmp_path_factory, family, t, p, step_offset, order):
    step, offset = step_offset
    first = tmp_path_factory.mktemp("scan") / "report.json"
    again = first.with_name("recheck.json")
    claim = f"--claim={family},{t},{p},{step},{offset}"
    code = main(["scan", claim, "--order", str(order), "--format", "json", "--output", str(first)])
    window = leading_window(family, t)
    if all(n < window for n in range(offset, order + 1, step)):  # no coefficient in range but structural zeros
        assert code == 2 and not first.exists()
        return
    assert code in (0, 1)
    with contextlib.redirect_stderr(io.StringIO()):
        recode = main(["scan", "--input", str(first), "--recheck", "--format", "json", "--output", str(again)])
    assert recode == code
    assert json.loads(again.read_text())["results"] == json.loads(first.read_text())["results"]
