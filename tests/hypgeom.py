"""Hyperboloid-model primitives for hyperbolic space of any dimension d >= 2.

A point is a length-(d+1) float array x = (x_0, ..., x_d) on the upper sheet
of the unit hyperboloid: <x,x> = -1 and x_0 >= 1, where <.,.> is the
Minkowski form -x_0 y_0 + sum_{i>=1} x_i y_i. Tangent vectors at x are
(d+1)-arrays u with <u,x> = 0; unit tangents additionally have <u,u> = 1.
Geodesics are exact: exp_x(t u) = cosh(t) x + sinh(t) u.

All functions accept batched arrays (leading axes broadcast); scalars come
back as floats. ``to_poincare`` maps a point to the Poincare ball.

The library works in polar coordinates about the base point and needs none
of these; the tests build their geometric checks and oracles on them.
"""

from __future__ import annotations

import numpy as np


def minkowski_dot(a, b):
    """Minkowski form -a_0 b_0 + sum_{i>=1} a_i b_i, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    prod = a * b
    out = np.sum(prod[..., 1:], axis=-1) - prod[..., 0]
    return float(out) if out.ndim == 0 else out


def base_point(d: int) -> np.ndarray:
    """The reference point (1, 0, ..., 0) of d-dimensional hyperbolic space."""
    p = np.zeros(d + 1)
    p[0] = 1.0
    return p


def normalize_point(x) -> np.ndarray:
    """Re-project onto the hyperboloid: divide by sqrt(-<x,x>).

    Applied after geodesic arithmetic to suppress floating-point drift.
    """
    x = np.asarray(x, dtype=float)
    q = -minkowski_dot(x, x)
    return x / np.sqrt(np.asarray(q))[..., None] if x.ndim > 1 else x / np.sqrt(q)


def normalize_tangent(u) -> np.ndarray:
    """Scale a spacelike vector to Minkowski norm 1."""
    u = np.asarray(u, dtype=float)
    q = minkowski_dot(u, u)
    return u / np.sqrt(np.asarray(q))[..., None] if u.ndim > 1 else u / np.sqrt(q)


def dist(x, y):
    """Hyperbolic distance acosh(max(1, -<x,y>)); the max guards rounding below 1."""
    return np.arccosh(np.maximum(1.0, -minkowski_dot(x, y)))


def exp_map(p, u, t):
    """Point at arc length t >= 0 along the unit-speed geodesic from p in direction u."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("exp_map requires t >= 0")
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    x = np.cosh(t)[..., None] * p + np.sinh(t)[..., None] * u if t.ndim else np.cosh(t) * p + np.sinh(t) * u
    return normalize_point(x)


def direction_to(p, q) -> np.ndarray:
    """Unit tangent u at p with exp_map(p, u, dist(p, q)) = q (logarithm map)."""
    s = dist(p, q)
    if s < 1e-12:
        raise ValueError("direction_to is degenerate for coincident points")
    u = (np.asarray(q, dtype=float) - np.cosh(s) * np.asarray(p, dtype=float)) / np.sinh(s)
    norm_sq = minkowski_dot(u, u)
    if not norm_sq > 0:
        raise ValueError("direction_to is degenerate for coincident points")
    return u / np.sqrt(norm_sq)


def to_poincare(x) -> np.ndarray:
    """Poincare-ball image (x_1, ..., x_d)/(1 + x_0); Euclidean norm < 1."""
    x = np.asarray(x, dtype=float)
    return x[..., 1:] / (1.0 + x[..., 0:1])
