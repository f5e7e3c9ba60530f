"""Round-trip tests for the JSON wire format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmspaces.chart import ChartPoint, random_chart_point
from cmspaces.jsonio import decode, decode_cmatrix, dumps, encode, encode_cmatrix, loads
from cmspaces.variety import AugmentedPair, Representation, augment, random_point


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_cmatrix_codec_is_exact(rows, cols, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    data = json.loads(json.dumps(encode_cmatrix(M)))
    assert np.array_equal(decode_cmatrix(data), M)


def test_representation_round_trip_is_exact():
    r = random_point(3, 2, 1.0 + 0.25j, 130)
    back = loads(dumps(encode(r)))
    assert isinstance(back, Representation)
    for name in ("A", "B", "v", "w"):
        assert np.array_equal(getattr(back, name), getattr(r, name))
    assert back.tau == r.tau


def test_pair_round_trip_is_exact():
    p = augment(random_point(2, 2, 1.0, 131))
    back = loads(dumps(encode(p)))
    assert isinstance(back, AugmentedPair)
    assert np.array_equal(back.A, p.A)
    assert np.array_equal(back.B, p.B)


def test_chart_point_round_trip_is_exact():
    c = random_chart_point(4, 0.5 - 2.0j, 132)
    back = loads(dumps(encode(c)))
    assert isinstance(back, ChartPoint)
    assert np.array_equal(back.vector(), c.vector())
    assert back.tau == c.tau


def test_dumps_is_deterministic():
    c = random_chart_point(2, 1.0, 133)
    assert dumps(encode(c)) == dumps(encode(c))
    # keys come out sorted, so semantically equal dicts serialize equally
    d = json.loads(dumps(encode(c)))
    shuffled = dict(reversed(list(d.items())))
    assert dumps(shuffled) == dumps(d)


def test_loads_rejects_unknown_kind():
    with pytest.raises(ValueError):
        loads('{"kind": "mystery"}')


def test_encode_rejects_foreign_objects():
    with pytest.raises(ValueError):
        encode(object())


# one small hand-made value of each kind and its exact bytes: the keys,
# their order and the [re, im] layout of every field
_GOLDEN = [
    (Representation([[1.0, 0.5], [0.0, -1.0]], [[0.0, 2j], [1.0, 0.0]], [[1.0], [0.5j]],
                    [[0.25, 2.0]], 1.0),
     '{"cols":[[[1.0,0.0]],[[0.0,0.5]]],"first":[[[1.0,0.0],[0.5,0.0]],[[0.0,0.0],[-1.0,0.0]]],'
     '"kind":"representation","level":[1.0,0.0],"rows":[[[0.25,0.0],[2.0,0.0]]],'
     '"second":[[[0.0,0.0],[0.0,2.0]],[[1.0,0.0],[0.0,0.0]]]}'),
    (Representation([[1.0]], [[-2.0]], [[1.0, 0.5]], [[0.0], [1.5j]], 1.0 - 0.5j),
     '{"cols":[[[1.0,0.0],[0.5,0.0]]],"first":[[[1.0,0.0]]],"kind":"representation",'
     '"level":[1.0,-0.5],"rows":[[[0.0,0.0]],[[0.0,1.5]]],"second":[[[-2.0,0.0]]]}'),
    (AugmentedPair([[1.0, 0.5], [1.0, 0.0]], [[0.0, -1.5], [2j, 0.0]], 1.0),
     '{"first":[[[1.0,0.0],[0.5,0.0]],[[1.0,0.0],[0.0,0.0]]],"kind":"pair","level":[1.0,0.0],'
     '"second":[[[0.0,0.0],[-1.5,0.0]],[[0.0,2.0],[0.0,0.0]]]}'),
    (ChartPoint([-1.0], [0.5, 2.0], [0.25j], [1.0, -3.0], 2.0),
     '{"block_spectrum":[[-1.0,0.0]],"diag_moments":[[1.0,0.0],[-3.0,0.0]],'
     '"full_spectrum":[[0.5,0.0],[2.0,0.0]],"kind":"chart_point","level":[2.0,0.0],'
     '"row_moments":[[0.0,0.25]]}'),
]


@pytest.mark.parametrize("value, text", _GOLDEN)
def test_each_kind_encodes_to_its_pinned_bytes(value, text):
    assert dumps(encode(value)) == text
    assert dumps(encode(loads(text))) == text


def test_a_k1_quadruple_may_give_its_column_and_row_as_vectors():
    data = {"kind": "representation", "first": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
            "second": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "cols": [[0.5, 0.0], [1.0, 0.0]], "rows": [[0.0, 1.0], [3.0, 0.0]], "level": [1.0, 0.0]}
    r = decode(data)
    assert r.v.shape == (2, 1) and r.w.shape == (1, 2)
    assert np.array_equal(r.v[:, 0], [0.5, 1.0]) and np.array_equal(r.w[0], [1j, 3.0])
