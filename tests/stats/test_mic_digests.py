"""Bit-identity rail: pinned digests of the MIC engine's output.

The digests were computed with the per-pair engine that preceded the
batched kernel.  Any change to :func:`repro.stats.micfast.mic_matrix_fast`
must reproduce them byte for byte: the batched kernel reorders no
floating-point operation, so an exact match is the contract, not a
tolerance.

Each window mixes the column kinds that take different paths through the
engine: continuous, coupled, heavily tied, constant and NaN-bearing.
"""

import hashlib

import numpy as np
import pytest

from repro.stats.micfast import mic_matrix_fast


def _window(n, m, seed):
    """A seeded ``(n, m)`` window cycling through every column kind."""
    r = np.random.default_rng(seed)
    base = r.normal(size=n)
    cols = []
    for j in range(m):
        kind = j % 6
        if kind == 0:
            cols.append(r.normal(size=n))
        elif kind == 1:
            cols.append(base * (j + 1) + 0.2 * r.normal(size=n))
        elif kind == 2:
            cols.append(r.choice([0.0, 1.0, 2.0], size=n, p=[0.6, 0.3, 0.1]))
        elif kind == 3:
            cols.append(np.full(n, float(j)))
        elif kind == 4:
            c = base + r.normal(size=n)
            c[r.integers(0, n, size=max(1, n // 10))] = np.nan
            cols.append(c)
        else:
            cols.append(np.round(2.0 * r.normal(size=n)))
    return np.column_stack(cols)


def _digest(matrix):
    return hashlib.sha256(
        np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    ).hexdigest()


PINNED = {
    ((24, 26), 1): "5f9d1667c477e69b4b8a3f964bdee8b320040de96f4353bdfa6f11840a23c951",
    ((24, 26), 2): "702e9c65aafbe6d04d7872be257ade1eea48deef44f1aebeb9e9baa728bf26db",
    ((30, 26), 1): "f0cfa10f928663e825e573b2f3eae1f8e9381ad85377c80ecdc58a5b91d725b1",
    ((30, 26), 2): "12c3a6eefd6fa1d2ccfab9921620d836fec459b4a6e39597031db5ae43ad0144",
    ((48, 26), 1): "2f98d819fb115b6b893bcb8bbb7a8d32fb2f0f41ea9424ba0a83e3c76f1d76b7",
    ((48, 26), 2): "19dc2aee71fe22f4688835dff5ba69d95511bc16a5a735e9328c89532f4f3e9c",
    ((150, 8), 1): "b9765dafd07009e179399bd6c221a3e8219062256b5259cfc1c86614759ff88f",
    ((150, 8), 2): "d4bb78d56576b6f46c7eba91b9a9d254b31c90b6df9a85fbd002ca1cff6b58d2",
}


@pytest.mark.parametrize("shape,seed", sorted(PINNED))
def test_engine_output_matches_pinned_digest(shape, seed):
    n, m = shape
    assert _digest(mic_matrix_fast(_window(n, m, seed))) == PINNED[
        (shape, seed)
    ]
