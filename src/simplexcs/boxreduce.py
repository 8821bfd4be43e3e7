"""Reduction from [0,1]^(K-1)-valued observations to simplex-valued ones.

The affine embedding divides each coordinate by K-1 and appends the
deficit as a K-th coordinate; the box-level confidence set is the
preimage of the simplex-level set under this map.
"""

from __future__ import annotations

import numpy as np

__all__ = ["embed", "box_membership"]


def embed(y, tol=1e-9):
    """Map a [0,1]^(K-1) point to its probability-vector representation."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("embed expects a 1-d box observation")
    if np.any(y < -tol) or np.any(y > 1.0 + tol):
        raise ValueError(f"box observation outside [0,1] beyond tol: {y}")
    d = y.size
    out = np.empty(d + 1)
    out[:d] = y / d
    out[d] = 1.0 - y.sum() / d
    return out


def box_membership(m_box, simplex_set):
    """Is a box-level candidate in the set?  simplex_set is a
    point-membership callable, evaluated at the embedded candidate."""
    if not callable(simplex_set):
        raise TypeError("simplex_set must be a point-membership callable")
    return bool(simplex_set(embed(m_box)))
