import numpy as np
import pytest

from varwass.errors import InvalidDomainError, SizeMismatchError
from varwass.grid import gradient, integrate, make_grid


def test_make_grid_unit_interval():
    g = make_grid(0.0, 1.0, 4)
    assert g.dx == 0.25
    np.testing.assert_allclose(g.centers, [0.125, 0.375, 0.625, 0.875])


def test_make_grid_symmetric_interval():
    g = make_grid(-1.0, 1.0, 2)
    assert g.dx == 1.0
    np.testing.assert_allclose(g.centers, [-0.5, 0.5])
    assert g.length == 2.0


def test_make_grid_rejects_single_cell():
    with pytest.raises(InvalidDomainError):
        make_grid(0.0, 1.0, 1)


def test_make_grid_rejects_empty_interval():
    with pytest.raises(InvalidDomainError):
        make_grid(1.0, 1.0, 4)
    with pytest.raises(InvalidDomainError):
        make_grid(2.0, 1.0, 4)


def test_gradient_of_constant_vanishes():
    g = make_grid(0.0, 1.0, 8)
    out = gradient(np.full(8, 3.7), g)
    np.testing.assert_array_equal(out, np.zeros(9))


def test_gradient_of_linear_field():
    g = make_grid(0.0, 1.0, 4)
    out = gradient(np.asarray(g.centers), g)
    np.testing.assert_allclose(out[1:-1], np.ones(3), rtol=1e-14)
    assert out[0] == 0.0 and out[-1] == 0.0
    # a stack of fields is taken row by row
    stack = gradient(np.stack([g.centers, 2.0 * g.centers]), g)
    np.testing.assert_array_equal(stack, [out, gradient(2.0 * g.centers, g)])


def test_gradient_two_cells():
    g = make_grid(0.0, 1.0, 2)
    out = gradient(np.array([0.0, 1.0]), g)
    np.testing.assert_allclose(out, [0.0, 2.0, 0.0])


def test_gradient_size_mismatch():
    g = make_grid(0.0, 1.0, 4)
    with pytest.raises(SizeMismatchError):
        gradient(np.zeros(5), g)
    with pytest.raises(SizeMismatchError):
        gradient(np.zeros((2, 5)), g)


def test_integrate_basics():
    g = make_grid(0.0, 1.0, 10)
    assert integrate(np.ones(10), g) == pytest.approx(1.0, abs=1e-15)
    assert integrate(np.zeros(10), g) == 0.0
    g2 = make_grid(0.0, 1.0, 2)
    assert integrate(np.array([1.0, 3.0]), g2) == pytest.approx(2.0)

