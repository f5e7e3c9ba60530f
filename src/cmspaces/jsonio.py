"""Deterministic JSON encoding of the package's value types.

Complex scalars encode as [re, im] pairs, complex matrices as nested
lists of those pairs.  Composite objects carry a "kind" tag so decode
can dispatch without guessing.  Dumps sort keys and use a fixed
separator, so equal objects serialize to identical bytes, and write
strict JSON: a non-finite float raises ValueError instead of printing as
NaN or Infinity.
"""

from __future__ import annotations

import json

import numpy as np

from .chart import ChartPoint
from .variety import AugmentedPair, Representation


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


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
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim == 1:
        return [encode_complex(z) for z in M]
    return [[encode_complex(z) for z in row] for row in M]


def decode_cmatrix(rows) -> np.ndarray:
    arr = _pairs(rows, (2, 3))  # a vector or a matrix of [re, im]
    return arr[..., 0] + 1j * arr[..., 1]


def encode(obj) -> dict:
    if isinstance(obj, Representation):
        return {
            "kind": "representation",
            "first": encode_cmatrix(obj.A),
            "second": encode_cmatrix(obj.B),
            "cols": encode_cmatrix(obj.v),
            "rows": encode_cmatrix(obj.w),
            "level": encode_complex(obj.tau),
        }
    if isinstance(obj, AugmentedPair):
        return {
            "kind": "pair",
            "first": encode_cmatrix(obj.A),
            "second": encode_cmatrix(obj.B),
            "level": encode_complex(obj.tau),
        }
    if isinstance(obj, ChartPoint):
        return {
            "kind": "chart_point",
            "block_spectrum": encode_cmatrix(obj.lam),
            "full_spectrum": encode_cmatrix(obj.lamhat),
            "row_moments": encode_cmatrix(obj.mu),
            "diag_moments": encode_cmatrix(obj.muhat),
            "level": encode_complex(obj.tau),
        }
    raise ValueError(f"cannot encode {type(obj).__name__}")


def decode(data: dict):
    """The value type encoded by data; ValueError for a JSON value of the wrong type or length."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "representation":
        v = decode_cmatrix(data["cols"])
        w = decode_cmatrix(data["rows"])
        if v.ndim == 1:
            v = v[:, None]
        if w.ndim == 1:
            w = w[None, :]
        return Representation(
            decode_cmatrix(data["first"]),
            decode_cmatrix(data["second"]),
            v,
            w,
            decode_complex(data["level"]),
        )
    if kind == "pair":
        return AugmentedPair(
            decode_cmatrix(data["first"]),
            decode_cmatrix(data["second"]),
            decode_complex(data["level"]),
        )
    if kind == "chart_point":
        return ChartPoint(
            decode_cmatrix(data["block_spectrum"]),
            decode_cmatrix(data["full_spectrum"]),
            decode_cmatrix(data["row_moments"]),
            decode_cmatrix(data["diag_moments"]),
            decode_complex(data["level"]),
        )
    raise ValueError(f"unknown kind tag {kind!r}")


def dumps(obj) -> str:
    data = obj if isinstance(obj, dict) else encode(obj)
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def loads(text: str):
    data = json.loads(text)
    if isinstance(data, dict) and "kind" in data:
        return decode(data)
    return data
