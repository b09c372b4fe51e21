"""JSON (de)serialization of network descriptions.

Matrices are nested row lists of JSON numbers (not bools or strings): each
entry is a number (real field) or a pair ``[re, im]`` (complex field), so
values round-trip exactly without a dtype marker.  Counts are JSON integers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import _ARRAY_FIELDS, NetworkSpec, _coerce

_SCALAR_FIELDS = ("n_neurons", "n_inputs", "n_readout", "tau_a", "tau_b")
_DTYPES = {name: dtype for name, (_, dtype) in _ARRAY_FIELDS.items()}
_COMPLEX_FIELDS = tuple(name for name, t in _DTYPES.items() if t == np.complex128)
_REAL_FIELDS = tuple(name for name, t in _DTYPES.items() if t == np.float64)


def _encode_array(arr: np.ndarray) -> list:
    if np.iscomplexobj(arr):
        def enc(v):
            return [float(v.real), float(v.imag)]
    else:
        def enc(v):
            return float(v)
    if arr.ndim == 1:
        return [enc(v) for v in arr]
    return [[enc(v) for v in row] for row in arr]


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a JSON number")
    return float(value)


def _decode_entry(entry) -> complex | float:
    if isinstance(entry, list):
        if len(entry) != 2:
            raise ValueError(f"complex entries must be [re, im] pairs, got {entry!r}")
        return complex(_number(entry[0]), _number(entry[1]))
    return _number(entry)


def _decode_array(data: list, shape: tuple, dtype, name: str) -> np.ndarray:
    if len(shape) == 2:
        entries = [[_decode_entry(e) for e in row] for row in data]
    else:
        entries = [_decode_entry(e) for e in data]
    # An empty list has no row length: it reads as zero rows.
    return _coerce(entries or np.empty((0,) + shape[1:]), shape, dtype, name)


def spec_to_dict(spec: NetworkSpec) -> dict:
    out = {
        "n_neurons": spec.n_neurons,
        "n_inputs": spec.n_inputs,
        "n_readout": spec.n_readout,
        "tau_a": spec.tau_a,
        "tau_b": spec.tau_b,
    }
    for name in _COMPLEX_FIELDS + _REAL_FIELDS:
        out[name] = _encode_array(getattr(spec, name))
    return out


def spec_from_dict(data: dict) -> NetworkSpec:
    """Rebuild a spec; raises ValueError naming any missing, unknown or bad key."""
    if not isinstance(data, dict):
        raise ValueError("network config must be a JSON object")
    expected = _SCALAR_FIELDS + _COMPLEX_FIELDS + _REAL_FIELDS
    missing = [name for name in expected if name not in data]
    if missing:
        raise ValueError(f"network config is missing key(s): {', '.join(missing)}")
    unknown = sorted(set(data) - set(expected))
    if unknown:
        raise ValueError(f"network config has unknown key(s): {', '.join(unknown)}")

    def decode(name, convert, *args):
        try:
            return convert(data[name], *args)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"network config key {name!r}: {exc}") from exc

    n, m, k = (data[name] for name in ("n_neurons", "n_inputs", "n_readout"))
    layout = NetworkSpec.layout(n, m, k)
    kwargs = {
        "n_neurons": n,
        "n_inputs": m,
        "n_readout": k,
        "tau_a": decode("tau_a", _number),
        "tau_b": decode("tau_b", _number),
    }
    for name in _COMPLEX_FIELDS + _REAL_FIELDS:
        shape, dtype = layout[name]
        kwargs[name] = decode(name, _decode_array, shape, dtype, name)
    return NetworkSpec(**kwargs)


def save_spec(spec: NetworkSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")


def load_spec(path: str | Path) -> NetworkSpec:
    return spec_from_dict(json.loads(Path(path).read_text()))
