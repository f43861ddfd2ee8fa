"""Manufactured Poisson problems on the hexagon domain.

The forcing term is never derived by hand.  The exact solution is
written once as an ordinary arithmetic expression and differentiated
with forward mode in one bivariate pass: a :class:`Jet` carries the
value, both first partials and, at order 2, half of both pure second
partials, so one evaluation yields the Laplacian to machine precision.
Order 1 drops the second-order parts, which the gradient does not need;
its value part is u, so the gradient pass returns u with it.
Coefficients may be numpy arrays, which keeps bulk evaluation at
quadrature points vectorised.  The callables evaluate whatever they are
given; the quadrature callers pass at most
:data:`~hivevem.quadrature.BLOCK_POINTS` points per call, which keeps
the jet temporaries small.

Parts that are known to vanish are not computed.  The coordinate jets
carry their unit and zero parts as the floats 1.0 and 0.0, and the jet
arithmetic keeps them so: a float 0.0 factor makes a product 0.0, a
float 0.0 term drops out of a sum, and a float 1.0 factor returns the
other one.  ``X**2`` thus has no y-parts to compute, and a sine of a
linear argument no second-order term from the argument.  Every skipped
operation would have added or multiplied an exact zero or one, so the
values are those of full array arithmetic; only the sign of an exact
zero may differ.  :func:`jet_eval` and ``grad_u`` broadcast float parts
back to the shape of the value.

A sine and the cosine its derivative needs come from one half-angle
tangent t = tan(theta/2): sin = 2t / (1 + t**2), cos = (1 - t**2) /
(1 + t**2).  numpy's float64 ``tan`` has a vectorised kernel where
``sin`` and ``cos`` may run a scalar loop, so a jet's sine costs one
``tan`` and a few flops.  The values are within 4 eps of ``np.sin`` and
``np.cos``.

The program solves one problem, :func:`hex_sine`, which
:func:`get_problem` returns by its name; there is no registry.
:func:`zero` serves diagnostics and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SQRT3 = math.sqrt(3.0)


def _is(a, c) -> bool:
    return isinstance(a, float) and a == c


def _sum(*terms):
    """Left-to-right sum of ``terms`` without the float zeros."""
    out = 0.0
    for t in terms:
        out = t if _is(out, 0.0) else out if _is(t, 0.0) else out + t
    return out


def _mul(*factors):
    """Left-to-right product of ``factors``: 0.0 if a float factor is
    zero, and a float factor 1.0 drops out."""
    out = 1.0
    for f in factors:
        if _is(out, 0.0) or _is(f, 0.0):
            return 0.0
        out = f if _is(out, 1.0) else out if _is(f, 1.0) else out * f
    return out


def _full(value, *parts):
    """``value`` and ``parts``, float parts broadcast to its shape."""
    shape = np.shape(value)
    return value, *(p if np.shape(p) == shape else np.full(shape, p) for p in parts)


class Jet:
    """Bivariate Taylor number without the mixed term.

    ``value`` is u, ``first`` the pair ``(u_x, u_y)`` and ``half`` the
    pair ``(u_xx / 2, u_yy / 2)``, or ``None`` for a jet of order 1.
    Each direction follows the rules of the one-variable jet
    ``a0 + a1 t + a2 t**2`` in the same operation order, so every part
    equals, bit for bit, that of a one-variable jet along x or y.
    Supports ring operations, division by a constant, non-negative
    integer powers, sin and exp.
    """

    __slots__ = ("value", "first", "half")

    def __init__(self, value, first, half=None):
        self.value = value
        self.first = first
        self.half = half

    @classmethod
    def variables(cls, x, y, order: int = 2):
        """The coordinate jets ``X`` and ``Y`` at ``(x, y)``; their unit
        and zero parts are the floats 1.0 and 0.0, which the arithmetic
        skips."""
        if order not in (1, 2):
            raise ValueError(f"jet order must be 1 or 2, got {order}")
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        half = (0.0, 0.0) if order == 2 else None
        return cls(x, (1.0, 0.0), half), cls(y, (0.0, 1.0), half)

    def _map(self, value, first, second):
        """Jet of ``value`` whose parts in each direction are
        ``first(a1)`` and ``second(a1, a2)``."""
        half = None if self.half is None else tuple(
            map(second, self.first, self.half))
        return Jet(value, tuple(map(first, self.first)), half)

    def _zip(self, other, value, first, second):
        """Binary :meth:`_map`: ``first(a1, b1)``, ``second(a1, a2, b1, b2)``."""
        half = None if self.half is None else tuple(
            map(second, self.first, self.half, other.first, other.half))
        return Jet(value, tuple(map(first, self.first, other.first)), half)

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._zip(other, self.value + other.value,
                             lambda a1, b1: _sum(a1, b1),
                             lambda a1, a2, b1, b2: _sum(a2, b2))
        return Jet(self.value + other, self.first, self.half)

    __radd__ = __add__

    def __neg__(self):
        return self._map(-self.value, lambda a1: -a1, lambda a1, a2: -a2)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a0, b0 = self.value, other.value
            return self._zip(
                other, a0 * b0,
                lambda a1, b1: _sum(_mul(a0, b1), _mul(a1, b0)),
                lambda a1, a2, b1, b2: _sum(_mul(a0, b2), _mul(a1, b1), _mul(a2, b0)))
        return self._map(self.value * other, lambda a1: _mul(a1, other),
                         lambda a1, a2: _mul(a2, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1.0 / other)

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise TypeError("Jet powers must be non-negative integers")
        if k == 0:
            return self._map(np.ones_like(np.asarray(self.value, dtype=float)),
                             lambda a1: 0.0, lambda a1, a2: 0.0)
        # Repeated products, left to right: X**2 is the one product X * X.
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def sin(self):
        s, c = _sincos(self.value)
        return self._map(s, lambda a1: _mul(c, a1),
                         lambda a1, a2: _sum(_mul(c, a2), _mul(-0.5, s, a1, a1)))

    def exp(self):
        e = np.exp(self.value)
        return self._map(e, lambda a1: _mul(e, a1),
                         lambda a1, a2: _mul(e, _sum(a2, _mul(0.5, a1, a1))))


def _sincos(theta):
    """``(sin(theta), cos(theta))`` from the one tangent t = tan(theta/2):
    sin = 2t / (1 + t**2) and cos = (1 - t**2) / (1 + t**2)."""
    t = np.tan(0.5 * theta)
    t2 = t * t
    d = 1.0 + t2
    return 2.0 * t / d, (1.0 - t2) / d


def sin(z):
    if isinstance(z, Jet):
        return z.sin()
    t = np.tan(0.5 * z)
    return 2.0 * t / (1.0 + t * t)


def exp(z):
    return z.exp() if isinstance(z, Jet) else np.exp(z)


def jet_eval(expr: Callable, x, y):
    """Evaluate ``expr`` and its derivatives up to second order.

    Returns ``(u, ux, uy, uxx, uyy)`` from one bivariate jet pass.
    """
    j = expr(*Jet.variables(x, y))
    return _full(j.value, *j.first, 2.0 * j.half[0], 2.0 * j.half[1])


def laplacian(expr: Callable, x, y):
    """Laplacian of a scalar expression via second-order jets."""
    _, _, _, uxx, uyy = jet_eval(expr, x, y)
    return uxx + uyy


@dataclass(frozen=True)
class ManufacturedProblem:
    """Poisson problem -laplace(u) = f with homogeneous Dirichlet data.

    ``u``, ``grad_u`` and ``f`` accept scalar or array coordinates.
    ``grad_u`` returns ``(u, u_x, u_y)`` from one order-1 jet pass, in
    the order of :func:`jet_eval`.  ``u`` evaluates the expression on
    plain arrays; its bits can differ from the jet's value (the jet
    divides by a constant through its reciprocal), by at most 8 ulp of
    max |u| at the degree-6 points of level 6 (4.9 measured), so
    callers that need only u, such as the nodal interpolant, keep to
    ``u``.
    """

    name: str
    u: Callable
    grad_u: Callable
    f: Callable


def _from_expression(name: str, expr: Callable) -> ManufacturedProblem:
    def u(x, y):
        return expr(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def grad_u(x, y):
        j = expr(*Jet.variables(x, y, order=1))
        return _full(j.value, *j.first)

    def f(x, y):
        return -laplacian(expr, x, y)

    return ManufacturedProblem(name=name, u=u, grad_u=grad_u, f=f)


def hex_sine() -> ManufacturedProblem:
    """Smooth solution vanishing on all six edges of the hexagon.

    The three sine factors vanish pairwise on the lines
    ``x + y/sqrt(3) = +-1``, ``x - y/sqrt(3) = -+1`` and
    ``y = +-sqrt(3)/2`` that carry the six boundary edges; the extra
    ``x**2`` keeps the function genuinely non-polynomial.
    """
    half_pi = 0.5 * math.pi

    def expr(X, Y):
        return (
            X ** 2
            * sin(half_pi * (Y / SQRT3 + X + 1.0))
            * sin(half_pi * (Y / SQRT3 - X + 1.0))
            * sin((math.pi / SQRT3) * (Y + 0.5 * SQRT3))
        )

    return _from_expression("hex-sine", expr)


def zero() -> ManufacturedProblem:
    """The trivial problem u = f = 0 (diagnostics and uniqueness tests)."""

    def expr(X, Y):
        return 0.0 * X * Y

    return _from_expression("zero", expr)


def get_problem(name: str) -> ManufacturedProblem:
    """The problem called ``name``: ``"hex-sine"``, the one there is."""
    if name != "hex-sine":
        raise ValueError(f"unknown problem {name!r}; available: ['hex-sine']")
    return hex_sine()
