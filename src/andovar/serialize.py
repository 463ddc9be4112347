"""JSON encodings for matrices, pairs and polynomials.

Complex numbers are stored as two-element [re, im] lists; a matrix is a
nested row-major list of those pairs.  Pair files look like

    {"n": 2, "T1": [[[re, im], ...], ...], "T2": [[[re, im], ...], ...]}

and polynomial files carry {"coeffs": [[[re, im], ...], ...]} with c[j][k]
multiplying z1^j z2^k.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError

__all__ = [
    "matrix_to_nested",
    "matrix_from_nested",
    "pair_to_json",
    "pair_from_json",
    "poly_to_json",
    "poly_from_json",
    "dumps",
]


def matrix_to_nested(M: np.ndarray) -> list:
    A = np.asarray(M, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in A]


def matrix_from_nested(data, name: str = "matrix") -> np.ndarray:
    try:
        rows = []
        for row in data:
            rows.append([complex(float(re), float(im)) for re, im in row])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: entries must be [re, im] pairs") from exc
    if not rows:
        return np.zeros((0, 0), complex)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError(f"{name}: ragged rows")
    return np.asarray(rows, dtype=complex)


def pair_to_json(T1: np.ndarray, T2: np.ndarray) -> str:
    payload = {
        "n": int(np.asarray(T1).shape[0]),
        "T1": matrix_to_nested(T1),
        "T2": matrix_to_nested(T2),
    }
    return dumps(payload)


def _load_object(text: str, what: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} file must hold a JSON object")
    return data


def pair_from_json(text: str):
    data = _load_object(text, "pair")
    for key in ("n", "T1", "T2"):
        if key not in data:
            raise InputError(f"pair file missing key {key!r}")
    n = data["n"]
    if type(n) is not int or n < 1:
        raise InputError(f"pair file: n must be a positive integer, got {n!r}")
    T1 = matrix_from_nested(data["T1"], "T1")
    T2 = matrix_from_nested(data["T2"], "T2")
    if T1.shape != (n, n) or T2.shape != (n, n):
        raise InputError(
            f"pair file dimension mismatch: n={n}, T1 {T1.shape}, T2 {T2.shape}"
        )
    return T1, T2


def poly_to_json(coeffs: np.ndarray) -> str:
    return dumps({"coeffs": matrix_to_nested(coeffs)})


def poly_from_json(text: str) -> np.ndarray:
    data = _load_object(text, "polynomial")
    if "coeffs" not in data:
        raise InputError("polynomial file missing key 'coeffs'")
    return matrix_from_nested(data["coeffs"], "coeffs")


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, newline-terminated."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
