"""Deterministic JSON encoding of the package's value types.

Complex scalars encode as [re, im] pairs, complex matrices as nested
lists of those pairs.  Composite objects carry a "kind" tag so decode
can dispatch without guessing; each kind's keys are stated once, in
_KINDS.  Dumps sort keys and use a fixed separator, so equal objects
serialize to identical bytes, and write strict JSON: a non-finite float
raises ValueError instead of printing as NaN or Infinity.
"""

from __future__ import annotations

import json

import numpy as np

from .chart import ChartPoint
from .variety import AugmentedPair, Representation


def _pairs(value, ndims) -> np.ndarray:
    """value as a float array of [re, im] pairs with ndims axes in all; ValueError otherwise."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or arr.ndim not in ndims or arr.shape[-1] != 2:
        raise ValueError(f"expected [re, im] pairs, got {type(value).__name__} "
                         f"of shape {arr.shape}")
    return arr.astype(np.float64)


def decode_complex(pair) -> complex:
    re, im = _pairs(pair, (1,))
    return complex(re, im)


def encode_cmatrix(M) -> list:
    """M, a complex scalar, vector or matrix, as [re, im] pairs in nested lists."""
    M = np.asarray(M, dtype=np.complex128)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def decode_cmatrix(rows) -> np.ndarray:
    arr = _pairs(rows, (2, 3))  # a vector or a matrix of [re, im]
    return arr[..., 0] + 1j * arr[..., 1]


# The wire format of each value type: its kind tag, its class, and the
# (JSON key, attribute) pair of each field in constructor order.  The
# level tau is a complex scalar, every other field a vector or a matrix.
_TAG = "kind"
_KINDS = {
    "representation": (Representation, (("first", "A"), ("second", "B"), ("cols", "v"),
                                        ("rows", "w"), ("level", "tau"))),
    "pair": (AugmentedPair, (("first", "A"), ("second", "B"), ("level", "tau"))),
    "chart_point": (ChartPoint, (("block_spectrum", "lam"), ("full_spectrum", "lamhat"),
                                 ("row_moments", "mu"), ("diag_moments", "muhat"),
                                 ("level", "tau"))),
}


def encode(obj) -> dict:
    for kind, (cls, fields) in _KINDS.items():
        if isinstance(obj, cls):
            return {_TAG: kind, **{key: encode_cmatrix(getattr(obj, attr)) for key, attr in fields}}
    raise ValueError(f"cannot encode {type(obj).__name__}")


def decode(data: dict):
    """The value type encoded by data; ValueError for a JSON value of the wrong type or length."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    kind = data.get(_TAG)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown kind tag {kind!r}")
    cls, fields = _KINDS[kind]
    values = {attr: (decode_complex if attr == "tau" else decode_cmatrix)(data[key])
              for key, attr in fields}
    if cls is Representation:   # with k = 1 the column and the row may come as vectors
        v, w = values["v"], values["w"]
        values["v"] = v[:, None] if v.ndim == 1 else v
        values["w"] = w[None, :] if w.ndim == 1 else w
    return cls(**values)


def dumps(obj) -> str:
    data = obj if isinstance(obj, dict) else encode(obj)
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def loads(text: str):
    data = json.loads(text)
    if isinstance(data, dict) and _TAG in data:
        return decode(data)
    return data
