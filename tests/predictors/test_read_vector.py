"""The ReadVector token contract.

A read vector is a pattern-table token and part of every VMSP history
key, so it must hash and compare by its reader set, print in the
paper's ``<Read,{P1,P2}>`` form, survive pickling (predictor state
crosses process boundaries), and never be confused with a
``(kind, node)`` request token.
"""

import pickle

from repro.common.types import MessageKind
from repro.predictors.base import ReadVector


def test_equal_reader_sets_hash_and_compare_equal():
    a = ReadVector({1, 2})
    b = ReadVector(frozenset({2, 1}))
    assert a == b and hash(a) == hash(b)
    assert {(a,): "x"}[(b,)] == "x"  # usable inside history keys
    assert a != ReadVector({1, 3})


def test_never_equals_a_request_token():
    assert ReadVector({1}) != (MessageKind.READ, 1)
    assert len({ReadVector({1}), (MessageKind.READ, 1)}) == 2


def test_str_is_the_paper_form():
    assert str(ReadVector({12, 3, 1})) == "<Read,{P1,P3,P12}>"
    assert str(ReadVector(())) == "<Read,{}>"


def test_readers_is_the_vector_itself():
    vector = ReadVector({4, 5})
    assert vector.readers == frozenset({4, 5})
    assert vector.readers is vector
    assert 4 in vector and 6 not in vector and len(vector) == 2


def test_pickle_round_trip_keeps_the_type():
    vector = ReadVector({0, 7})
    clone = pickle.loads(pickle.dumps(vector))
    assert type(clone) is ReadVector
    assert clone == vector and str(clone) == str(vector)


def test_set_operations_return_plain_frozensets():
    a, b = ReadVector({1, 2}), ReadVector({2, 3})
    for result in (a | b, a & b, a - b, a ^ b, a - {1}):
        assert type(result) is frozenset
    assert a - {1} == frozenset({2})
