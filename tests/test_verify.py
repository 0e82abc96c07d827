"""The self-check harness: plumbing, determinism, and the small-scheme sweep."""

import random

import pytest

from terwilliger import quotient, radical, verify
from terwilliger.scheme import SchemeSpec
from terwilliger.verify import ALL_CHECKS, CheckResult, pick_base_points, run_all


def test_check_result_json():
    r = CheckResult(name="sample", passed=True, count=3, seconds=0.01234, detail="")
    got = r.to_json()
    assert got["name"] == "sample"
    assert got["passed"] is True
    assert got["count"] == 3
    assert isinstance(got["seconds"], float)


def test_pick_base_points_spread():
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    got = pick_base_points(spec, 3)
    assert len(got) == len(set(got)) == 3
    assert got[0] == (0, 0)
    assert got[-1] == (1, 2)
    assert pick_base_points(spec, 1) == [(0, 0)]


def test_run_all_passes_and_is_deterministic():
    spec = SchemeSpec(sizes=(2, 2), characteristic=2)
    first = run_all(spec, seed=11)
    second = run_all(spec, seed=11)
    assert [r.name for r in first] == [name for name, _ in ALL_CHECKS]
    assert all(r.passed for r in first)
    assert [(r.name, r.passed, r.count, r.detail) for r in first] == [
        (r.name, r.passed, r.count, r.detail) for r in second
    ]


def test_run_all_rejects_oversized_schemes():
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    with pytest.raises(ValueError):
        run_all(spec, cap=4)


def run_check(name, spec):
    check = dict(ALL_CHECKS)[name]
    return check(spec, pick_base_points(spec, 2), random.Random(0), verify.DEFAULT_ORACLE_CAP)


def test_radical_dimension_is_checked_against_its_closed_form(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    # A radical predicate that is wrong wherever it is used must still be caught.
    monkeypatch.setattr(radical, "p_divides_valency", lambda spec, g: False)
    monkeypatch.setattr(verify, "p_divides_valency", lambda spec, g: False)
    assert run_check("radical-nilpotency", spec) == (
        False, 0, "radical basis filter is inconsistent"
    )


def test_corner_nilpotent_index_is_checked_against_the_corner_radical(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    # An index formula that forgets to restrict to the corner's mask.
    monkeypatch.setattr(
        verify,
        "corner_nilpotent_index",
        lambda spec, g: 1 + len(radical.qualifying_coordinates(spec)),
    )
    passed, _, detail = run_check("corner-structure", spec)
    assert not passed
    assert detail == "corner nilpotent index formula fails at 00"


def test_block_bookkeeping_catches_a_dropped_block_row(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    blocks = verify.wedderburn_blocks(spec)
    dropped = [quotient.WedderburnBlock(blocks[0].signature, blocks[0].rows[1:]), *blocks[1:]]
    monkeypatch.setattr(verify, "wedderburn_blocks", lambda spec: dropped)
    assert run_check("block-bookkeeping", spec) == (
        False, 0, "block sizes do not square-sum to the quotient dimension"
    )


def test_radical_nilpotency_realizes_each_radical_triple_once(monkeypatch):
    spec = SchemeSpec(sizes=(3, 3), characteristic=2)
    calls = []
    realize_triple = verify.oracle.realize_triple
    monkeypatch.setattr(
        verify.oracle, "realize_triple", lambda *args: calls.append(args[1]) or realize_triple(*args)
    )
    passed, count, _ = run_check("radical-nilpotency", spec)
    assert passed and count > verify.ORACLE_SAMPLE
    assert len(calls) == len(set(calls)) <= len(radical.radical_triples(spec))
