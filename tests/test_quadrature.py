"""Quadrature rules checked against the closed-form integral

    int_T  l1^a l2^b l3^c  =  2 |T| a! b! c! / (a + b + c + 2)!

which is computed here from math.factorial, independently of the
tabulated weights.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hivevem import quadrature
from hivevem.quadrature import SUPPORTED_DEGREES, rule, sample
from triangles import integrate, triangle_area

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SKEW = np.array([[0.2, -0.1], [1.7, 0.3], [0.4, 1.9]])


def exact_bary(a, b, c, area):
    f = math.factorial
    return 2.0 * area * f(a) * f(b) * f(c) / f(a + b + c + 2)


def bary_monomial(tri, a, b, c):
    """Callable (x, y) -> l1^a l2^b l3^c on the given triangle."""
    T = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    Tinv = np.linalg.inv(T)

    def g(x, y):
        p = np.stack([x, y], axis=-1) - tri[0]
        lam12 = p @ Tinv.T
        l1 = 1.0 - lam12[..., 0] - lam12[..., 1]
        return l1 ** a * lam12[..., 0] ** b * lam12[..., 1] ** c

    return g


def test_supported_degrees():
    assert SUPPORTED_DEGREES == (2, 4, 6, 8)
    with pytest.raises(ValueError):
        rule(3)
    with pytest.raises(ValueError):
        rule(10)


@pytest.mark.parametrize("degree", SUPPORTED_DEGREES)
def test_rule_shape_and_positivity(degree):
    q = rule(degree)
    assert q.points.shape == (q.weights.size, 3)
    assert np.all(q.weights > 0)
    assert abs(q.weights.sum() - 1.0) <= 1e-14
    assert np.all(q.points >= 0) and np.all(q.points <= 1)
    assert np.allclose(q.points.sum(axis=1), 1.0, atol=1e-14)
    # symmetric orbits: the node average is the centroid
    assert np.allclose(q.points.mean(axis=0), 1.0 / 3.0, atol=1e-13)


@pytest.mark.parametrize("degree", SUPPORTED_DEGREES)
def test_rule_arrays_are_read_only(degree):
    """The cached rule is shared by every load and norm in a process, so
    writing to its arrays raises instead of changing them all."""
    q = rule(degree)
    with pytest.raises(ValueError, match="read-only"):
        q.weights[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        q.points[0, 0] = 0.0


@pytest.mark.parametrize("degree", SUPPORTED_DEGREES)
@pytest.mark.parametrize("tri", [REF, SKEW], ids=["reference", "skewed"])
def test_exactness_up_to_degree(degree, tri):
    q = rule(degree)
    area = triangle_area(tri)
    for total in range(degree + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                got = integrate(tri, bary_monomial(tri, a, b, c), q)
                want = exact_bary(a, b, c, area)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15), (
                    degree, a, b, c,
                )


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_degree_plus_one_is_not_exact(degree):
    """Negative control: one monomial of the next degree misses."""
    q = rule(degree)
    a = degree + 1
    got = integrate(REF, bary_monomial(REF, a, 0, 0), q)
    want = exact_bary(a, 0, 0, 0.5)
    assert abs(got - want) > 1e-9 * abs(want)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(0, 4), b=st.integers(0, 4), c=st.integers(0, 4),
    x2=st.floats(0.5, 3.0), y2=st.floats(-1.0, 1.0), y3=st.floats(0.5, 3.0),
)
def test_exactness_on_random_triangles(a, b, c, x2, y2, y3):
    total = a + b + c
    degree = min(d for d in SUPPORTED_DEGREES if d >= total) if total <= 8 else 8
    if total > degree:
        return
    tri = np.array([[0.0, 0.0], [x2, y2], [0.3, y3]])
    got = integrate(tri, bary_monomial(tri, a, b, c), rule(degree))
    want = exact_bary(a, b, c, triangle_area(tri))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_affine_invariance():
    """Integrating a pulled-back function over a mapped triangle scales
    with the area ratio."""
    q = rule(4)
    A = np.array([[1.3, 0.4], [-0.2, 0.9]])
    shift = np.array([0.7, -0.3])
    tri2 = REF @ A.T + shift

    def g(x, y):
        return x ** 2 * y + 0.5 * y ** 3 - x + 2.0

    # exact on both triangles, so the two integrals are independent
    # degree-4 evaluations of the same polynomial family
    got = integrate(tri2, g, q)
    brute = 0.0
    m = 400
    for i in range(m):
        for j in range(m - i):
            l2 = (i + 0.5) / m
            l3 = (j + 0.5) / m
            if l2 + l3 >= 1.0:
                continue
            p = tri2[0] + l2 * (tri2[1] - tri2[0]) + l3 * (tri2[2] - tri2[0])
            brute += g(p[0], p[1])
    brute *= 2 * triangle_area(tri2) / m ** 2
    assert got == pytest.approx(brute, rel=5e-3)


def test_integrate_constant_gives_area():
    for tri in (REF, SKEW):
        got = integrate(tri, lambda x, y: np.ones_like(x), rule(2))
        assert got == pytest.approx(triangle_area(tri), rel=1e-15)


def test_sample_calls_in_blocks_and_keeps_the_bits(monkeypatch):
    """``sample`` passes at most ``BLOCK_POINTS`` points per call, also
    when the blocks do not divide them evenly, and gives what one call
    on all points gives; no points, no call."""
    sizes = []

    def fn(x, y):
        sizes.append(np.size(x))
        return np.sin(3.0 * x) * np.exp(y) - x * y

    xy = np.random.default_rng(2).normal(size=(1000, 2))
    want = fn(xy[:, 0], xy[:, 1])
    sizes.clear()
    monkeypatch.setattr(quadrature, "BLOCK_POINTS", 64)
    assert np.array_equal(sample(fn, xy), want)
    assert max(sizes) == 64 and sum(sizes) == 1000
    sizes.clear()
    assert sample(fn, xy[:0]).shape == (0,) and sizes == []
