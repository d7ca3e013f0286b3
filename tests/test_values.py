import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from setasp.values import (
    EMPTY_SET,
    UNDEF,
    FinSet,
    HTerm,
    contains_undef,
    finset,
    format_value,
    value_key,
    value_to_json,
)


def test_finset_is_canonical():
    a = FinSet([(1,), (2,), (1,)])
    b = FinSet([(2,), (1,)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.sorted_tuples() == ((1,), (2,))


@given(st.lists(st.integers(-5, 5), max_size=6))
def test_finset_equality_ignores_order_and_duplicates(xs):
    forward = finset(xs)
    backward = finset(reversed(xs))
    assert forward == backward
    assert len(forward) == len(set(xs))


def test_mixed_arity_rejected():
    with pytest.raises(ValueError):
        FinSet([(1,), (1, 2)])


def test_undef_never_inside_values():
    with pytest.raises(ValueError):
        FinSet([(UNDEF,)])
    assert not contains_undef(finset([1, 2]))
    assert contains_undef(UNDEF)


def test_empty_set_is_arityless():
    assert EMPTY_SET.arity is None
    assert FinSet(()) == EMPTY_SET


@given(
    st.lists(
        st.one_of(
            st.integers(-3, 3),
            st.sampled_from([HTerm("a"), HTerm("b"), finset([1]), EMPTY_SET]),
        ),
        min_size=2,
        max_size=6,
    )
)
def test_value_key_is_a_total_order(values):
    ordered = sorted(values, key=value_key)
    assert sorted(ordered, key=value_key) == ordered
    for left, right in zip(ordered, ordered[1:]):
        assert value_key(left) <= value_key(right)


def test_format_value():
    assert format_value(3) == "3"
    assert format_value(HTerm("a")) == "a"
    assert format_value(HTerm("f", (HTerm("a"), 1))) == "f(a, 1)"
    assert format_value(finset([2, 1])) == "{1; 2}"
    assert format_value(FinSet([(HTerm("a"), 1)])) == "{(a, 1)}"
    assert format_value(EMPTY_SET) == "{}"


def test_json_encoding_tags_sets_and_keeps_tuples_as_arrays():
    value = FinSet([(HTerm("a"), 1), (HTerm("b"), 2)])
    encoded = value_to_json(value)
    assert set(encoded) == {"set"}
    assert encoded["set"] == [["a", 1], ["b", 2]]
    assert value_to_json(HTerm("f", (2,))) == {"fn": "f", "args": [2]}


def test_undef_hashes_alike_in_every_process():
    src = Path(__file__).resolve().parent.parent / "src"
    script = "from setasp.values import UNDEF; print(hash(UNDEF))"
    printed = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(printed) == 1
