"""Forward-mode jets against central finite differences, and the
manufactured problem against hand-written trigonometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hivevem.lattice import build_mesh
from hivevem.problem import (
    Jet,
    _from_expression,
    exp,
    get_problem,
    hex_sine,
    jet_eval,
    laplacian,
    sin,
    zero,
)
from hivevem.quadrature import rule
from hivevem.system import tri_quadrature

SQRT3 = math.sqrt(3.0)


def fd_derivatives(g, x, y, h=1e-5):
    gx = (g(x + h, y) - g(x - h, y)) / (2 * h)
    gy = (g(x, y + h) - g(x, y - h)) / (2 * h)
    gxx = (g(x + h, y) - 2 * g(x, y) + g(x - h, y)) / h**2
    gyy = (g(x, y + h) - 2 * g(x, y) + g(x, y - h)) / h**2
    return gx, gy, gxx, gyy


CASES = [
    lambda X, Y: X * X * Y + 3.0 * Y - X / 2.0 + 1.0,
    lambda X, Y: sin(X) * sin(2.0 * Y),
    lambda X, Y: exp(0.3 * X - Y) + X * Y * Y,
    lambda X, Y: sin(X * Y) + (X - Y) ** 3,
    lambda X, Y: exp(-X * X - Y * Y),
]


@pytest.mark.parametrize("expr", CASES)
def test_jet_matches_finite_differences(expr):
    def g(x, y):
        return jet_eval(expr, x, y)[0]

    for x, y in [(0.2, -0.4), (-0.7, 0.5), (0.0, 0.0), (0.31, 0.77)]:
        u, ux, uy, uxx, uyy = jet_eval(expr, x, y)
        gx, gy, gxx, gyy = fd_derivatives(g, x, y)
        scale = max(1.0, abs(gx), abs(gy), abs(gxx), abs(gyy))
        assert ux == pytest.approx(gx, abs=1e-6 * scale)
        assert uy == pytest.approx(gy, abs=1e-6 * scale)
        assert uxx == pytest.approx(gxx, abs=1e-5 * scale)
        assert uyy == pytest.approx(gyy, abs=1e-5 * scale)


@pytest.mark.parametrize("expr", CASES)
def test_laplacian_matches_finite_differences(expr):
    def g(x, y):
        return jet_eval(expr, x, y)[0]

    # h balances truncation (h^2/12 u'''') against cancellation (eps/h^2)
    x, y = 0.23, -0.37
    _, _, gxx, gyy = fd_derivatives(g, x, y, h=2e-4)
    got = laplacian(expr, x, y)
    assert got == pytest.approx(gxx + gyy, rel=1e-6, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2),
    x=st.floats(-1, 1), y=st.floats(-1, 1),
)
def test_quadratic_jets_are_exact(a, b, c, x, y):
    """Second derivatives of quadratics carry no truncation error."""

    def expr(X, Y):
        return a * X * X + b * X * Y + c * Y * Y + X - 2.0 * Y + 0.5

    u, ux, uy, uxx, uyy = jet_eval(expr, x, y)
    tol = dict(rel=1e-12, abs=1e-12)
    assert u == pytest.approx(a * x * x + b * x * y + c * y * y + x - 2 * y + 0.5, **tol)
    assert ux == pytest.approx(2 * a * x + b * y + 1.0, **tol)
    assert uy == pytest.approx(b * x + 2 * c * y - 2.0, **tol)
    assert uxx == pytest.approx(2 * a, **tol)
    assert uyy == pytest.approx(2 * c, **tol)


def test_jet_division_and_subtraction():
    """Division by a constant, and subtraction from one."""

    def expr(X, Y):
        return (X - Y) * (1.0 + X * Y) / 3.0 - 0.5 * (1.0 - X) ** 2

    def g(x, y):
        return jet_eval(expr, x, y)[0]

    x, y = 0.4, 0.2
    _, ux, uy, uxx, uyy = jet_eval(expr, x, y)
    gx, gy, gxx, gyy = fd_derivatives(g, x, y)
    assert ux == pytest.approx(gx, abs=1e-6)
    assert uy == pytest.approx(gy, abs=1e-6)
    assert uxx == pytest.approx(gxx, abs=1e-5)
    assert uyy == pytest.approx(gyy, abs=1e-5)


def test_jet_power_rejects_bad_exponents():
    for order in (1, 2):
        X, _ = Jet.variables(2.0, 1.0, order)
        with pytest.raises(TypeError):
            X ** -1
        with pytest.raises(TypeError):
            X ** 0.5
        assert (X ** 0).value == 1.0


def _power_from_ones(j, k):
    """The power as repeated products started from the ones jet."""
    out = j._map(np.ones_like(np.asarray(j.value, dtype=float)),
                 lambda a1: 0.0, lambda a1, a2: 0.0)
    for _ in range(k):
        out = out * j
    return out


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("k", range(7))
def test_jet_power_matches_the_ones_start(k, order):
    """The power is the left-to-right product ``((j * j) * j) ...``:
    starting from the base drops a product by the ones jet, which
    changes no value, at most the sign of an exactly-zero part, which
    ``array_equal`` does not see."""
    x, y = np.random.default_rng(k).uniform(-0.9, 0.9, (2, 64))
    X, Y = Jet.variables(x, y, order)

    def parts(j):
        return [np.broadcast_to(a, x.shape) for a in (j.value, *j.first, *(j.half or ()))]

    for j in (X, Y, sin(X * Y) + Y):
        got, want = parts(j ** k), parts(_power_from_ones(j, k))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_jet_variable_seed():
    X, Y = Jet.variables(1.5, -0.5)
    assert (X.value, Y.value) == (1.5, -0.5)
    assert X.first == (1.0, 0.0) and Y.first == (0.0, 1.0)
    assert X.half == Y.half == (0.0, 0.0)
    X, Y = Jet.variables(1.5, -0.5, order=1)
    assert X.first == (1.0, 0.0) and Y.first == (0.0, 1.0)
    assert X.half is None and Y.half is None


def test_jet_order_must_be_one_or_two():
    for order in (0, 3):
        with pytest.raises(ValueError):
            Jet.variables(0.0, 0.0, order)


# Closed forms at (x, y) = (0.3, -0.6): value, (u_x, u_y), (u_xx, u_yy).
EX, EY = 0.3, -0.6
CLOSED_FORMS = [
    (
        lambda X, Y: exp(0.5 * X - Y),
        math.exp(0.5 * EX - EY),
        (0.5 * math.exp(0.5 * EX - EY), -math.exp(0.5 * EX - EY)),
        (0.25 * math.exp(0.5 * EX - EY), math.exp(0.5 * EX - EY)),
    ),
    (
        lambda X, Y: sin(X * Y) / 2.0,
        0.5 * math.sin(EX * EY),
        (0.5 * EY * math.cos(EX * EY), 0.5 * EX * math.cos(EX * EY)),
        (-0.5 * EY ** 2 * math.sin(EX * EY), -0.5 * EX ** 2 * math.sin(EX * EY)),
    ),
    (
        lambda X, Y: X ** 3 * Y ** 2,
        EX ** 3 * EY ** 2,
        (3.0 * EX ** 2 * EY ** 2, 2.0 * EX ** 3 * EY),
        (6.0 * EX * EY ** 2, 2.0 * EX ** 3),
    ),
]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("expr, value, first, second", CLOSED_FORMS,
                         ids=["exp_half_x_minus_y", "half_sin_xy", "x3_y2"])
def test_jet_exp_sin_and_powers(expr, value, first, second, order):
    """exp, sin over a constant divisor, and integer powers against
    closed forms, at both orders; order 1 carries no second-order
    parts."""
    j = expr(*Jet.variables(EX, EY, order))
    assert j.value == pytest.approx(value, rel=1e-14)
    assert j.first == pytest.approx(first, rel=1e-14)
    if order == 1:
        assert j.half is None
    else:
        assert [2.0 * h for h in j.half] == pytest.approx(second, rel=1e-14)


@pytest.mark.parametrize("expr", CASES + [c[0] for c in CLOSED_FORMS])
def test_order_one_is_the_first_part_of_order_two(expr):
    """Dropping the second-order parts leaves the value and the first
    partials bit for bit, so the gradient may take the cheaper pass:
    ``grad_u`` returns ``jet_eval``'s u, u_x and u_y."""
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-0.9, 0.9, (2, 257))
    one = expr(*Jet.variables(x, y, 1))
    two = expr(*Jet.variables(x, y, 2))
    assert np.array_equal(one.value, two.value)
    assert all(np.array_equal(a, b) for a, b in zip(one.first, two.first))
    got = _from_expression("case", expr).grad_u(x, y)
    want = jet_eval(expr, x, y)[:3]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 300),
    cuts=st.lists(st.integers(0, 300), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluation_is_block_invariant(n, cuts, seed):
    """``f`` and the three entries of ``grad_u`` on an array equal the
    concatenation of their values over any split of it, so callers may
    evaluate in blocks."""
    problem = hex_sine()
    x, y = np.random.default_rng(seed).uniform(-0.9, 0.9, (2, n))
    parts = np.split(np.arange(n), sorted(min(c, n) for c in cuts))
    f = np.concatenate([problem.f(x[p], y[p]) for p in parts])
    assert np.array_equal(f, problem.f(x, y))
    whole = problem.grad_u(x, y)
    for k in range(3):
        split = np.concatenate([problem.grad_u(x[p], y[p])[k] for p in parts])
        assert np.array_equal(split, whole[k])


def test_hex_sine_against_direct_formula():
    """u recomputed with math.sin only, no jets involved."""
    problem = hex_sine()
    hp = 0.5 * math.pi

    def direct(x, y):
        return (
            x * x
            * math.sin(hp * (y / SQRT3 + x + 1.0))
            * math.sin(hp * (y / SQRT3 - x + 1.0))
            * math.sin(math.pi / SQRT3 * (y + 0.5 * SQRT3))
        )

    for x, y in [(0.25, 0.1), (-0.6, 0.3), (0.1, -0.55), (0.0, 0.0)]:
        assert problem.u(x, y) == pytest.approx(direct(x, y), abs=1e-15)


def test_hex_sine_vanishes_on_all_six_edges():
    problem = hex_sine()
    t = np.linspace(0.0, 1.0, 40)
    corners = np.array(
        [[math.cos(a), math.sin(a)] for a in np.radians(60 * np.arange(6))]
    )
    for k in range(6):
        p = corners[k][None, :] * (1 - t[:, None]) \
            + corners[(k + 1) % 6][None, :] * t[:, None]
        vals = problem.u(p[:, 0], p[:, 1])
        assert np.max(np.abs(vals)) <= 1e-14


def test_source_is_minus_laplacian():
    problem = hex_sine()

    for x, y in [(0.2, 0.3), (-0.4, -0.1), (0.5, 0.0)]:
        _, _, uxx, uyy = fd_derivatives(problem.u, x, y, h=2e-5)
        assert problem.f(x, y) == pytest.approx(-(uxx + uyy), rel=2e-5, abs=2e-5)


def test_gradient_is_consistent():
    problem = hex_sine()
    x, y = np.array([0.2, -0.3]), np.array([0.1, 0.4])
    u, gx, gy = problem.grad_u(x, y)
    assert np.allclose(u, problem.u(x, y), rtol=1e-13, atol=0)
    h = 1e-6
    assert np.allclose(gx, (problem.u(x + h, y) - problem.u(x - h, y)) / (2 * h), atol=1e-8)
    assert np.allclose(gy, (problem.u(x, y + h) - problem.u(x, y - h)) / (2 * h), atol=1e-8)


def test_vectorized_evaluation():
    problem = hex_sine()
    x = np.linspace(-0.5, 0.5, 7)
    y = np.linspace(-0.3, 0.3, 7)
    assert problem.u(x, y).shape == (7,)
    assert problem.f(x, y).shape == (7,)
    scalars = [problem.u(float(a), float(b)) for a, b in zip(x, y)]
    assert np.allclose(problem.u(x, y), scalars, atol=1e-15)


def test_registry():
    assert get_problem("hex-sine").name == "hex-sine"
    with pytest.raises(ValueError):
        get_problem("does-not-exist")
    z = zero()
    x = np.array([0.1, -0.2])
    assert np.all(z.u(x, x) == 0) and np.all(z.f(x, x) == 0)


def _array_variables(cls, x, y, order=2):
    """``Jet.variables`` with array unit and zero parts, which take no
    shortcut: every part is computed as a full array."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    one, nil = np.ones_like(x), np.zeros_like(x)
    half = (nil, nil) if order == 2 else None
    return cls(x, (one, nil), half), cls(y, (nil, one), half)


@pytest.mark.parametrize("level", range(3, 7))
def test_zero_parts_change_no_value(level, monkeypatch):
    """Skipping the float 0.0 and 1.0 parts gives the same f, ``grad_u``
    and ``jet_eval`` values as full array arithmetic, at the degree-6
    points of a mesh; only the sign of an exact zero may differ, which
    ``array_equal`` does not see."""
    problem = hex_sine()
    xy = np.concatenate([p for _, p in tri_quadrature(build_mesh(level), rule(6))],
                        axis=1)
    skipped = [problem.f(*xy), *problem.grad_u(*xy),
               *(v for expr in CASES for v in jet_eval(expr, *xy))]
    monkeypatch.setattr(Jet, "variables", classmethod(_array_variables))
    full = [problem.f(*xy), *problem.grad_u(*xy),
            *(v for expr in CASES for v in jet_eval(expr, *xy))]
    assert len(skipped) == len(full) == 4 + 5 * len(CASES)
    for a, b in zip(skipped, full):
        assert a.shape == xy[0].shape and np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_zero_problem_returns_arrays_of_the_input_shape(shape):
    """All parts of ``0 * X * Y`` but the value are float zeros, and
    ``f``, ``grad_u`` and ``jet_eval`` broadcast them back to the shape
    of the value (a numpy scalar for scalar input)."""
    problem = zero()
    x, y = np.random.default_rng(1).uniform(-0.9, 0.9, (2, *shape))
    expr = lambda X, Y: 0.0 * X * Y  # noqa: E731
    for v in (problem.f(x, y), *problem.grad_u(x, y), *jet_eval(expr, x, y)):
        assert np.shape(v) == shape and not np.any(v)


EPS = np.finfo(float).eps
ANGLES = np.concatenate([
    np.random.default_rng(8).uniform(-8.0, 8.0, 4096),
    [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi, 1e-300],
])


@pytest.mark.parametrize("order", [1, 2])
def test_half_angle_sin_cos_match_numpy(order):
    """The plain ``sin``, the jet's value part and the cosine in its
    first part, all from one half-angle tangent, agree with ``np.sin``
    and ``np.cos`` to 4 eps absolute, at the poles of the tangent
    ``±pi`` too."""
    X, _ = Jet.variables(ANGLES, ANGLES, order)
    for got, want in [(sin(ANGLES), np.sin(ANGLES)), (sin(X).value, np.sin(ANGLES)),
                      (sin(X).first[0], np.cos(ANGLES))]:
        assert np.max(np.abs(got - want)) <= 4 * EPS


def test_half_angle_sin_cos_at_zero_and_non_finite_angles():
    """``sin(±0.0)`` keeps its sign and the jet's cosine at ±0.0 is
    exactly 1; an infinite or NaN angle gives NaN."""
    assert math.copysign(1.0, sin(0.0)) == 1.0
    assert math.copysign(1.0, sin(-0.0)) == -1.0
    X, _ = Jet.variables(np.array([0.0, -0.0]), 0.0)
    assert np.array_equal(sin(X).first[0], [1.0, 1.0])
    bad = np.array([np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        X, _ = Jet.variables(bad, bad)
        values = [sin(bad), sin(X).value, sin(X).first[0]]
    assert all(np.isnan(v).all() for v in values)


def test_one_tangent_per_sine_cosine_pair(monkeypatch):
    """hex-sine's ``f`` and ``grad_u`` take each of their three sine
    factors and its cosine from one ``np.tan`` call, ``u`` each sine
    from one, and none of them calls ``np.sin`` or ``np.cos``."""
    problem = hex_sine()
    x, y = np.random.default_rng(2).uniform(-0.9, 0.9, (2, 64))
    calls = []
    tan = np.tan

    def counted(*args, **kwargs):
        calls.append(1)
        return tan(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.sin or np.cos called")

    monkeypatch.setattr(np, "tan", counted)
    monkeypatch.setattr(np, "sin", forbidden)
    monkeypatch.setattr(np, "cos", forbidden)
    for evaluate in (problem.f, problem.grad_u, problem.u):
        calls.clear()
        evaluate(x, y)
        assert len(calls) == 3


def test_u_is_within_8_ulp_of_the_jet_value():
    """``u`` and the value part of ``grad_u`` differ by at most 8 ulp of
    max |u| at the degree-6 points of level 6 (4.9 measured), as the
    ``ManufacturedProblem`` docstring states."""
    problem = hex_sine()
    xy = np.concatenate([p for _, p in tri_quadrature(build_mesh(6), rule(6))], axis=1)
    u = problem.u(*xy)
    assert np.max(np.abs(u - problem.grad_u(*xy)[0])) <= 8 * np.spacing(np.max(np.abs(u)))
