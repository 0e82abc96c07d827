"""The command line surface: output shapes, determinism, exit codes."""

import argparse
import contextlib
import errno
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import terwilliger
from terwilliger import algebra, center, cli, quotient, radical
from terwilliger.algebra import dimension
from terwilliger.center import center_summary
from terwilliger.quotient import wedderburn_summary
from terwilliger.radical import radical_summary
from terwilliger.scheme import SchemeSpec
from terwilliger.verify import CheckResult

REPORT_23_P5 = """\
sizes: 2,3
characteristic: 5
points: 6
dim_T: 20
dim_Z: 2
rad_dim: 0
nilpotent_index: 1
center_rad_dim: 0
center_nilpotent_index: 1
block: signature=00 size=4 rows=00,01,10,11
block: signature=01 size=2 rows=01,11
verdicts: frobenius=true semisimple=true symmetric=true
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_text_golden(capsys):
    code, out, err = run(capsys, "report", "--sizes", "2,3", "--char", "5")
    assert code == 0
    assert err == ""
    assert out == REPORT_23_P5


def test_report_output_is_deterministic(capsys):
    first = run(capsys, "report", "--sizes", "2,3,3", "--char", "2", "--json")
    second = run(capsys, "report", "--sizes", "2,3,3", "--char", "2", "--json")
    assert first == second
    assert first[0] == 0


def test_report_json_contents(capsys):
    code, out, _ = run(capsys, "report", "--sizes", "2,3", "--char", "2", "--json")
    assert code == 0
    got = json.loads(out)
    assert got["spec"] == {"sizes": [2, 3], "characteristic": 2}
    assert got["dim_T"] == 20
    assert got["rad_dim"] == 12
    assert got["nilpotent_index"] == 3
    assert got["dim_T"] == got["rad_dim"] + sum(b["size"] ** 2 for b in got["blocks"])
    assert got["verdicts"] == {"semisimple": False, "frobenius": False, "symmetric": False}
    assert got["radical"]["witness"] == [["11", "01", "10"], ["10", "01", "11"]]
    assert json.loads(json.dumps(got)) == got


def test_report_rejects_bad_spec(capsys):
    code, out, err = run(capsys, "report", "--sizes", "2,1", "--char", "2")
    assert code == 2
    assert out == ""
    assert "at least 2" in err
    code, _, err = run(capsys, "report", "--sizes", "2,3", "--char", "9")
    assert code == 2
    assert "prime" in err
    code, _, err = run(capsys, "report", "--sizes", "2;3", "--char", "2")
    assert code == 2
    assert "sizes" in err


@pytest.mark.parametrize("sizes", ["", "2,,3", "a,3"])
def test_unparsable_sizes_are_refused_with_one_message(capsys, sizes):
    code, out, err = run(capsys, "report", "--sizes", sizes, "--char", "2")
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse sizes from {sizes!r}; expected e.g. '2,3,3'\n"


def test_sizes_may_carry_blanks_around_each_part(capsys):
    assert cli.parse_sizes(" 2 , 3 ") == (2, 3)
    assert run(capsys, "report", "--sizes", " 2 , 3 ", "--char", "5") == (0, REPORT_23_P5, "")


def test_equal_spec_text_gives_one_spec_object():
    spec = cli.spec_from_args(argparse.Namespace(sizes="2,3,3", char=2))
    assert cli.spec_from_args(argparse.Namespace(sizes="2,3,3", char=2)) is spec
    # other text for the same sizes is another key, with an equal spec
    other = cli.spec_from_args(argparse.Namespace(sizes=" 2,3,3", char=2))
    assert other == spec and other is not spec
    assert cli.spec_from_args(argparse.Namespace(sizes="2,3,3", char=3)) != spec


@pytest.mark.parametrize("argv", [
    ["mul", "--sizes", "2,3", "--char", "5", "01,11,11", "11,01,11"],
    ["mul", "--sizes", "2,3,3", "--json", "011,111,111", "111,011,111"],
    ["report", "--sizes", "2,3,3", "--char", "2", "--json"],
    ["report", "--sizes", "2,2,3", "--char", "3"],
])
def test_a_cold_spec_cache_prints_what_a_warm_one_does(capsys, argv):
    cli._spec.cache_clear()
    cold = run(capsys, *argv)
    assert cli._spec.cache_info().currsize == 1
    assert run(capsys, *argv) == cold
    assert cli._spec.cache_info().hits >= 1
    assert cold[0] == 0 and cold[1]


@pytest.mark.parametrize("option, value, message", [
    ("--sizes", "2.0,3", "error: cannot parse sizes from '2.0,3'; expected e.g. '2,3,3'\n"),
    ("--sizes", "1,3", "error: every factor size must be at least 2, got (1, 3)\n"),
    ("--char", "4", "error: characteristic must be 0 or prime, got 4\n"),
])
def test_a_refused_spec_is_refused_alike_on_every_repeat(capsys, option, value, message):
    args = {"--sizes": "2,3", "--char": "2", option: value}
    argv = ["mul", *itertools.chain(*args.items()), "01,11,11", "11,01,11"]
    cli._spec.cache_clear()
    for _ in range(3):
        assert run(capsys, *argv) == (2, "", message)
        assert cli._spec.cache_info().currsize == 0


def test_a_float_characteristic_never_meets_the_cached_int_spec():
    # lru_cache keys 2 and 2.0 alike unless typed; the spec refuses the float
    cli._spec("2,3", 2)
    with pytest.raises(ValueError, match="must be integers"):
        cli._spec("2,3", 2.0)


def test_mul_golden(capsys):
    code, out, _ = run(capsys, "mul", "--sizes", "2,3", "01,11,11", "11,01,11")
    assert code == 0
    assert out == "2 · (01,11,11)\n"


def test_mul_json(capsys):
    code, out, _ = run(capsys, "mul", "--sizes", "2,3", "--json", "01,11,11", "11,01,11")
    assert code == 0
    assert json.loads(out) == {"terms": [{"triple": ["01", "11", "11"], "coeff": "2"}]}


def test_mul_zero_product(capsys):
    code, out, _ = run(capsys, "mul", "--sizes", "2,3", "--char", "2", "01,01,01", "01,01,01")
    assert code == 0
    assert out == "zero\n"


def test_mul_rejects_non_basis_triples(capsys):
    code, out, err = run(capsys, "mul", "--sizes", "2,3", "11,11,11", "11,01,11")
    assert code == 2
    assert out == ""
    assert "does not index a basis element" in err
    code, _, err = run(capsys, "mul", "--sizes", "2,3", "11,01", "11,01,11")
    assert code == 2
    assert "three comma-separated masks" in err


def test_mul_validates_each_operand_once(capsys, monkeypatch):
    calls, check = [], algebra.check_triple

    def counting(spec, t):
        calls.append(t)
        return check(spec, t)

    monkeypatch.setattr(cli, "check_triple", counting)
    monkeypatch.setattr(algebra, "check_triple", counting)
    code, out, _ = run(capsys, "mul", "--sizes", "2,3", "--char", "5", "11,00,11", "11,01,11")
    assert (code, out) == (0, "1 · (11,01,11)\n")
    assert calls == [(0b11, 0b00, 0b11), (0b11, 0b10, 0b11)]
    # The JSON result is built from the product as it comes, without checking its triple again.
    calls.clear()
    code, out, _ = run(capsys, "mul", "--sizes", "2,3", "--char", "5", "--json", "11,00,11", "11,01,11")
    assert (code, json.loads(out)) == (0, {"terms": [{"triple": ["11", "01", "11"], "coeff": "1"}]})
    assert calls == [(0b11, 0b00, 0b11), (0b11, 0b10, 0b11)]


def call(argv, main=None):
    """Exit code, stdout and stderr of one main call, with check timings blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = (main or cli.main)(argv)
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r"\(\d+\.\d+s\)", "(s)", out.getvalue()), err.getvalue()


def test_parser_is_built_once_and_reused_safely():
    calls = [
        ["report", "--sizes", "2,3", "--char", "2", "--with-checks"],
        ["report", "--sizes", "2,3", "--char", "2"],
        ["mul", "--sizes", "2,3", "--json", "01,11,11", "11,01,11"],
        ["mul", "--sizes", "2,3", "01,11,11", "11,01,11"],
        ["mul", "--sizes", "2,3", "--with-checks", "01,11,11", "11,01,11"],
        ["report", "--sizes", "2,3", "--char", "5"],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    cli.build_parser.cache_clear()
    reused = [call(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]


def test_verify_passes_on_a_small_scheme(capsys):
    code, out, err = run(capsys, "verify", "--sizes", "2,2", "--char", "2", "--seed", "7")
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "seed: 7"
    assert lines[-1] == "all checks passed"
    assert all(line.startswith("PASS ") for line in lines[1:-1])
    assert len(lines) == 17  # seed line, fifteen checks, summary line


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--sizes", "2,2", "--char", "3", "--json")
    assert code == 0
    got = json.loads(out)
    assert got["all_passed"] is True
    assert got["seed"] == 1729
    assert len(got["checks"]) == 15
    for check in got["checks"]:
        assert set(check) == {"name", "passed", "count", "seconds", "detail"}


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    def fake_run_all(spec, base_points=2, seed=0, cap=0):
        return [CheckResult(name="made-up", passed=False, count=1, seconds=0.0, detail="forced")]

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    code, out, err = run(capsys, "verify", "--sizes", "2,3", "--char", "2")
    assert code == 1
    assert "FAIL made-up" in out
    assert "verification failed: made-up: forced" in err


def test_report_with_checks_embeds_verification(capsys):
    code, out, _ = run(
        capsys, "report", "--sizes", "2,3", "--char", "5", "--with-checks", "--json"
    )
    assert code == 0
    got = json.loads(out)
    assert got["verification"]["all_passed"] is True
    assert got["verification"]["seed"] == 1729
    assert len(got["verification"]["checks"]) == 15


def test_oracle_cap_flag_is_honored(capsys):
    code, _, err = run(
        capsys, "verify", "--sizes", "2,3", "--char", "2", "--oracle-cap", "4"
    )
    assert code == 2
    assert "cap" in err


def test_verify_refuses_a_basis_stack_beyond_its_bound_quickly(capsys):
    # (3,)*6 under a raised cap: 15,625 basis matrices of 729^2 entries, about 8.3 GB.
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--sizes", "3,3,3,3,3,3", "--char", "2", "--oracle-cap", "1000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "8303765625 bytes" in err


def test_verify_refuses_oracle_work_beyond_its_point_bound_quickly(capsys):
    # (50,50) under a raised cap: a 156 MB stack, within its bound, but every dense
    # product of 2500 x 2500 matrices takes 2500^3 multiply-adds.
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--sizes", "50,50", "--char", "2", "--oracle-cap", "5000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "15625000000 multiply-adds" in err


def test_one_base_point_is_refused_as_invalid_input(capsys):
    for argv in (
        ["verify", "--sizes", "2,3", "--char", "2", "--base-points", "1"],
        ["report", "--sizes", "2,3", "--char", "2", "--with-checks", "--base-points", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "at least two base points" in err


def test_large_prime_characteristic_reports_quickly(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "report", "--sizes", "2,3", "--char", "1000000000000000003")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert err == ""
    assert "characteristic: 1000000000000000003" in out


def test_large_composite_characteristic_is_refused(capsys):
    code, out, err = run(capsys, "report", "--sizes", "2,3", "--char", "1000000000000000001")
    assert code == 2
    assert out == ""
    assert "prime" in err


def test_characteristic_beyond_the_exact_primality_bound_is_refused(capsys):
    code, out, err = run(capsys, "report", "--sizes", "2,3", "--char", str(2**89 - 1))
    assert code == 2
    assert out == ""
    assert "bound" in err


# Size lists the fuzz test may verify: at most 6 points, so the oracle runs fast.
CHECKABLE_SIZES = st.sampled_from(["2", "3", "4", "2,2", "2,3", "3,2"])
SIZES = st.lists(st.integers(2, 4), min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))
JUNK_SIZES = ["", ",", "2,,3", "2;3", "a", " 2 , 3 ", "2.0", "0x2", "\u0663", "1", "0", "-2", "2,1"]
JUNK_INTS = ["", "x", "1e3", "2.5", "0x10", " 7 "]


def mostly(data, valid, junk):
    """A draw from the strategy valid, or one time in four a junk string."""
    return data.draw(st.sampled_from(junk) if data.draw(st.integers(0, 3)) == 0 else valid)


def any_argv(data):
    """An argv for one command, with each option present or not and one draw in four junk."""
    command = data.draw(st.sampled_from(["report", "verify", "mul"]))
    argv = [command]
    with_checks = command == "report" and data.draw(st.booleans())
    if with_checks:
        argv.append("--with-checks")
    sizes = "2"
    if data.draw(st.integers(0, 9)):
        valid = CHECKABLE_SIZES if command == "verify" or with_checks else SIZES
        sizes = mostly(data, valid, JUNK_SIZES)
        argv += ["--sizes", sizes]
    options = {"--char": [0, 2, 3, 5, 1048583, 10**18 + 3, 2**64 + 13, 4, 1, -3, 2**89 - 1]}
    if command != "mul":
        options["--base-points"] = [-1, 0, 1, 2, 3, 1000]
        options["--seed"] = [-5, 0, 1729, 10**20]
        options["--oracle-cap"] = [-1, 0, 4, 6, 200, 10**6]
    for flag, values in options.items():
        if data.draw(st.booleans()):
            argv += [flag, mostly(data, st.sampled_from(values).map(str), JUNK_INTS)]
    argv += data.draw(st.lists(st.sampled_from(["--json", "--text"]), max_size=2))
    if command == "mul":
        n = sizes.count(",") + 1
        masks = st.lists(st.text(alphabet="01", min_size=n, max_size=n), min_size=3, max_size=3)
        count = data.draw(st.sampled_from([2, 2, 2, 1, 3]))
        argv += [mostly(data, masks.map(",".join), JUNK_SIZES) for _ in range(count)]
    return argv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_answers_or_refuses_any_argv(data):
    argv = any_argv(data)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        assert code == 2, argv
    assert code in (0, 2), argv


def parsed_whole(argv):
    """main as it was before each command parsed its own arguments: the whole parser reads argv."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


MUL_ARGV = ["mul", "--sizes", "2,3", "01,11,11", "11,01,11"]
PARITY_ARGVS = [
    [], ["-h"], ["--help"], ["mul", "-h"], ["report", "--sizes", "2", "-h", "bogus"], ["frob"], ["mu"],
    ["--", *MUL_ARGV], MUL_ARGV + ["extra"], MUL_ARGV[:3] + ["--"] + MUL_ARGV[3:],
    ["mul", "--", *MUL_ARGV[1:]],
    ["report"], ["mul", "01,11,11", "11,01,11"], ["report", "--sizes", "2", "--char", "x"], MUL_ARGV,
    ["report", "--sizes=2,3", "--json", "--text"], ["verify", "--sizes", "2,2", "--char", "2", "--seed", "7"],
]


def assert_answers_alike(argv):
    """main and parsed_whole give one exit code, stdout and stderr, check timings aside."""
    seconds = re.compile(r'"seconds": [0-9.e-]+')
    got, want = (call(argv, main) for main in (cli.main, parsed_whole))
    assert [seconds.sub("", str(part)) for part in got] == [seconds.sub("", str(part)) for part in want], argv


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=map(" ".join, PARITY_ARGVS))
def test_main_answers_as_the_whole_parser_does(argv):
    assert_answers_alike(argv)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_main_answers_any_argv_as_the_whole_parser_does(data):
    assert_answers_alike(any_argv(data))


@pytest.mark.parametrize("argv", [
    ["verify", "--sizes", "2,2,2,2,2,2,2", "--char", "3"],
    ["report", "--sizes", "2,2,2,2,2,2,2", "--char", "3", "--with-checks"],
])
@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 2.00 GiB")])
def test_running_out_of_memory_is_refused_with_the_command_and_spec(monkeypatch, argv, exc):
    def run_all(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_all", run_all)
    code, out, err = call(argv)
    detail = f": {exc}" if str(exc) else ""
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} ran out of memory at sizes 2,2,2,2,2,2,2, characteristic 3{detail}\n"


def test_report_refuses_algebras_beyond_the_dimension_bound_quickly(capsys):
    for sizes, char in (("3," * 8 + "3", "2"), ("2," * 19 + "2", "0")):
        started = time.perf_counter()
        code, out, err = run(capsys, "report", "--sizes", sizes, "--char", char)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert str(cli.MAX_REPORT_DIMENSION) in err


def reference_report(spec):
    """The full report dict, from the library's summaries, in the key order reports print."""
    c, r, w = center_summary(spec), radical_summary(spec), wedderburn_summary(spec)
    return {
        "spec": {"sizes": list(spec.sizes), "characteristic": spec.characteristic},
        "points": spec.num_points,
        "dim_T": dimension(spec),
        "dim_Z": c["dim"],
        "rad_dim": r["dim"],
        "nilpotent_index": r["nilpotent_index"],
        "center_rad_dim": c["rad_dim"],
        "center_nilpotent_index": c["nilpotent_index"],
        "blocks": w["blocks"],
        "verdicts": w["verdicts"],
        "center": c,
        "radical": r,
    }


def report_argv(spec, *flags):
    sizes = ",".join(map(str, spec.sizes))
    return ["report", "--sizes", sizes, "--char", str(spec.characteristic), *flags]


def assert_same_long_text(got, want):
    """got == want, naming the first difference: a full diff of a megabyte takes minutes."""
    if got != want:
        at = next(k for k, pair in enumerate(zip(got + "\1", want + "\2")) if pair[0] != pair[1])
        pytest.fail(f"texts differ at offset {at}: {got[at:at + 60]!r} != {want[at:at + 60]!r}")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 7]), min_size=1, max_size=4),
    st.sampled_from([0, 2, 3, 5]),
)
# The benchmark's larger report rungs, beyond the drawn sizes.
@example([3] * 5, 2)
@example([2, 2, 3, 3, 4, 5], 3)
@example([2] * 7, 0)
@example([3] * 6, 2)
def test_report_json_is_json_dumps_of_the_full_report(sizes, char):
    spec = SchemeSpec(sizes=tuple(sizes), characteristic=char)
    code, out, err = call(report_argv(spec, "--json"))
    assert (code, err) == (0, "")
    assert_same_long_text(out, json.dumps(reference_report(spec), indent=2) + "\n")


def test_report_json_with_checks_is_json_dumps_of_the_full_report():
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    code, out, err = call(report_argv(spec, "--with-checks", "--json"))
    assert (code, err) == (0, "")
    # Check timings differ between runs, so the verification block is taken from the output.
    ref = {**reference_report(spec), "verification": json.loads(out)["verification"]}
    assert out == json.dumps(ref, indent=2) + "\n"


def test_text_report_enumerates_no_basis(capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("a text report enumerated basis triples")

    for module in (algebra, center, cli, quotient, radical):
        for name in ("basis_triples", "radical_triples"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code, out, err = run(capsys, "report", "--sizes", "2,3", "--char", "5")
    assert (code, out, err) == (0, REPORT_23_P5, "")
    for sizes, char in (("2,3", "2"), ("3,3,3,3,3,3", "2"), ("2,3,4,5,7", "3")):
        code, out, err = run(capsys, "report", "--sizes", sizes, "--char", char)
        assert (code, err) == (0, "")
        assert "rad_dim: " in out


class Writes(list):
    """A stdout that keeps each write apart."""

    def write(self, text):
        self.append(text)
        return len(text)

    def flush(self):  # main flushes stdout before it returns
        pass


def test_report_json_is_the_same_when_the_listing_spans_several_writes(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3, 4, 5), characteristic=2)
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 7)
    writes = Writes()
    with contextlib.redirect_stdout(writes):
        assert cli.main(report_argv(spec, "--json")) == 0
    # The head, then 420 radical triples in slices of 7, then the tail.
    assert len(writes) == 1 + 420 // 7 + 1
    assert_same_long_text("".join(writes), json.dumps(reference_report(spec), indent=2) + "\n")


def listing_writes(monkeypatch, spec, rows=None):
    """The writes of spec's JSON report, checked against json.dumps of the full report,
    with the listing written `rows` triples at a time (the default slice when None)."""
    if rows is not None:
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows)
    writes = Writes()
    with contextlib.redirect_stdout(writes):
        assert cli.main(report_argv(spec, "--json")) == 0
    assert_same_long_text("".join(writes), json.dumps(reference_report(spec), indent=2) + "\n")
    return writes


# rad_dim 15, 12 and 21: one row below, at, and one row above a multiple of 4
@pytest.mark.parametrize("sizes, char", [((3, 4), 3), ((2, 3), 2), ((3, 3), 2)])
def test_report_json_listing_ends_next_to_a_slice_boundary(monkeypatch, sizes, char):
    spec = SchemeSpec(sizes=sizes, characteristic=char)
    writes = listing_writes(monkeypatch, spec, 4)
    # the head, a write per slice of 4 triples, the tail
    assert len(writes) == -(-radical.rad_dim(spec) // 4) + 2


def test_report_json_listing_one_triple_per_write(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    writes = listing_writes(monkeypatch, spec, 1)
    assert len(writes) == 12 + 2
    assert writes[1] == '      [\n        "00",\n        "01",\n        "01"\n      ],\n'
    assert writes[-2].endswith('"\n      ]')


@pytest.mark.parametrize("rows", [None, 1, 2, 3])
def test_report_json_listing_of_one_coordinate(monkeypatch, rows):
    spec = SchemeSpec(sizes=(3,), characteristic=2)
    writes = listing_writes(monkeypatch, spec, rows)
    assert json.loads("".join(writes))["radical"]["basis"] == [["0", "1", "1"], ["1", "1", "0"], ["1", "1", "1"]]
    assert len(writes) == -(-3 // (rows or cli._ROWS_PER_WRITE)) + 2


def test_report_json_top_benchmark_rung_goes_out_in_default_slices(monkeypatch):
    spec = SchemeSpec(sizes=(3,) * 6, characteristic=2)
    writes = listing_writes(monkeypatch, spec)
    assert radical.rad_dim(spec) == 15561
    assert len(writes) == -(-15561 // cli._ROWS_PER_WRITE) + 2


def test_report_json_refuses_a_wrong_rad_dim_before_writing(monkeypatch):
    build = cli.build_report

    def off_by_one(*args, **kwargs):
        report = build(*args, **kwargs)
        return {**report, "rad_dim": report["rad_dim"] + 1}

    monkeypatch.setattr(cli, "build_report", off_by_one)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(RuntimeError, match="rad_dim triples"):
        cli.main(report_argv(SchemeSpec(sizes=(2, 3), characteristic=2), "--json"))
    assert out.getvalue() == ""


REPORT_ARGV_36_P2 = ["report", "--json", "--sizes", "3,3,3,3,3,3", "--char", "2"]


def cli_process(stdout) -> subprocess.Popen:
    """`python -m terwilliger` on REPORT_ARGV_36_P2, with stdout as given and stderr piped."""
    src = os.path.dirname(os.path.dirname(terwilliger.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen(
        [sys.executable, "-m", "terwilliger", *REPORT_ARGV_36_P2], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_a_closed_pipe_ends_the_output_quietly():
    # `report ... | head -c 10`: the reader leaves after 10 bytes of a report of
    # some 800 kB, far past a pipe's buffer, so a later write meets the closed pipe.
    proc = cli_process(subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) in (1, 141, -signal.SIGPIPE)
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_device_ends_the_output_with_one_error_line():
    with open("/dev/full", "wb") as full:
        proc = cli_process(full)
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class FailingStdout(io.StringIO):
    """A stdout whose every write raises exc."""

    def __init__(self, exc: OSError):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize("argv", [REPORT_ARGV_36_P2, ["report", "--sizes", "2,3"], ["mul", "--sizes", "3", "1,1,1", "1,1,1"]])
def test_a_write_that_fails_ends_the_command_with_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", FailingStdout(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))))
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: cannot write the output: {os.strerror(errno.ENOSPC)}\n"


def test_a_broken_pipe_in_process_ends_the_command_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FailingStdout(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))))
    assert cli.main(["report", "--sizes", "2,3"]) == 1
    assert capsys.readouterr().err == ""
