"""Symmetric Gauss quadrature on triangles.

Rules are stored in barycentric form with weights that sum to one,
so a sum over the points is multiplied by the triangle's area.  Each
degree provided has one job: 2 the superclose L2 norm, 4 the load, 6
the true error norms, and 8 the tests' independent references.

The tabulated coefficients are the classical symmetric rules with 3, 6,
12 and 16 points, all with positive weights.  The tests check each rule
against the closed-form integral of the barycentric monomials,

    integral over T of l1^a l2^b l3^c dA = a! b! c! / (a+b+c+2)! * 2|T|,

for every monomial up to the advertised degree, and that the next
degree is missed.  The arrays of a rule are shared by every caller and
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Most points passed to one call of a problem's ``u``, ``grad_u`` or
#: ``f``: the load, the true error, the lift norms and the node samples
#: evaluate the exact data over blocks of this size (see :func:`blocks`),
#: so that the jet temporaries stay cache-sized and their memory stays
#: flat in the level.
BLOCK_POINTS = 16384


@dataclass(frozen=True)
class QuadratureRule:
    """A fixed rule: barycentric points and area-normalised weights."""

    points: np.ndarray   # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,) summing to one

    @property
    def n_points(self) -> int:
        return self.weights.size


def _orbit1(w):
    third = 1.0 / 3.0
    return [(w, (third, third, third))]


def _orbit3(w, a, b):
    return [(w, (a, b, b)), (w, (b, a, b)), (w, (b, b, a))]


def _orbit6(w, a, b, c):
    return [
        (w, (a, b, c)), (w, (a, c, b)), (w, (b, a, c)),
        (w, (b, c, a)), (w, (c, a, b)), (w, (c, b, a)),
    ]


_TABLES = {
    2: _orbit3(1.0 / 3.0, 2.0 / 3.0, 1.0 / 6.0),
    4: (
        _orbit3(0.223381589678011, 0.108103018168070, 0.445948490915965)
        + _orbit3(0.109951743655322, 0.816847572980459, 0.091576213509771)
    ),
    6: (
        _orbit3(0.116786275726379, 0.501426509658179, 0.249286745170910)
        + _orbit3(0.050844906370207, 0.873821971016996, 0.063089014491502)
        + _orbit6(0.082851075618374, 0.053145049844817,
                  0.310352451033784, 0.636502499121399)
    ),
    8: (
        _orbit1(0.144315607677787)
        + _orbit3(0.095091634267285, 0.081414823414554, 0.459292588292723)
        + _orbit3(0.103217370534718, 0.658861384496480, 0.170569307751760)
        + _orbit3(0.032458497623198, 0.898905543365938, 0.050547228317031)
        + _orbit6(0.027230314174435, 0.008394777409958,
                  0.263112829634638, 0.728492392955404)
    ),
}

SUPPORTED_DEGREES = tuple(sorted(_TABLES))


@lru_cache(maxsize=None)
def rule(degree: int) -> QuadratureRule:
    """Return the tabulated rule exact for polynomials up to ``degree``,
    with read-only arrays: one rule per degree is shared by every caller.

    Raises ``ValueError`` for unsupported degrees.
    """
    if degree not in _TABLES:
        raise ValueError(
            f"unsupported quadrature degree {degree}; "
            f"available: {SUPPORTED_DEGREES}"
        )
    entries = _TABLES[degree]
    weights = np.array([w for w, _ in entries])
    points = np.array([p for _, p in entries])
    weights.setflags(write=False)
    points.setflags(write=False)
    return QuadratureRule(points=points, weights=weights)


def blocks(items: np.ndarray, points_each: int) -> list[np.ndarray]:
    """Consecutive views of ``items`` along its first axis, for items
    that carry ``points_each`` quadrature points: at most
    :data:`BLOCK_POINTS` points per block, and at least one item."""
    step = max(1, BLOCK_POINTS // points_each)
    return [items[i:i + step] for i in range(0, len(items), step)]


def sample(fn, xy: np.ndarray) -> np.ndarray:
    """``fn(x, y)`` at the points ``xy`` (k, 2), called on :func:`blocks`
    of at most :data:`BLOCK_POINTS` points."""
    out = np.empty(len(xy))
    for ids in blocks(np.arange(len(xy)), 1):
        out[ids] = fn(*xy[ids].T)
    return out
