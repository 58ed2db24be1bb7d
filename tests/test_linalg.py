"""Kernel contracts: null spaces, pseudo-inverses, seeded generators."""

import numpy as np
import pytest

from mimo3way import InvalidInputError, null_space_basis, pseudo_inverse, random_gaussian
from mimo3way.linalg import complex_gaussian, generator, random_orthonormal


def test_null_space_rejects_nonfinite():
    a = np.eye(2, dtype=complex)
    a[0, 1] = np.nan
    with pytest.raises(InvalidInputError):
        null_space_basis(a)
    a[0, 1] = np.inf
    with pytest.raises(InvalidInputError):
        null_space_basis(a)


def test_null_space_of_zero_map():
    n = null_space_basis(np.zeros((2, 3)))
    assert n.shape == (3, 3)
    np.testing.assert_allclose(n.conj().T @ n, np.eye(3), atol=1e-12)


def test_null_space_of_identity_is_trivial():
    assert null_space_basis(np.eye(3)).shape == (3, 0)


def test_null_space_random_wide():
    rng = generator(7)
    a = complex_gaussian(rng, 2, 3)
    n = null_space_basis(a)
    assert n.shape == (3, 1)
    assert np.linalg.norm(a @ n) <= 1e-10 * np.linalg.norm(a, 2)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_null_space_invariants_random_shapes():
    # rank-nullity plus residual and orthonormality bounds, >= 100 shapes
    rng = generator(11)
    shapes = [(int(r), int(c)) for r in range(0, 11) for c in range(0, 11)]
    assert len(shapes) >= 100
    for rows, cols in shapes:
        a = complex_gaussian(rng, rows, cols)
        n = null_space_basis(a)
        r = np.linalg.matrix_rank(a)
        assert r + n.shape[1] == cols
        if a.size and n.size:
            assert np.linalg.norm(a @ n, 2) <= 1e-10 * np.linalg.norm(a, 2)
        if n.size:
            gram = n.conj().T @ n
            assert np.linalg.norm(gram - np.eye(n.shape[1]), 2) <= 1e-10


def test_pinv_identity():
    np.testing.assert_allclose(pseudo_inverse(np.eye(2)), np.eye(2), atol=1e-14)


def test_pinv_diagonal():
    got = pseudo_inverse(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_tall_left_inverse():
    rng = generator(13)
    a = complex_gaussian(rng, 4, 2)
    np.testing.assert_allclose(pseudo_inverse(a) @ a, np.eye(2), atol=1e-10)


def test_pinv_rejects_empty():
    with pytest.raises(InvalidInputError):
        pseudo_inverse(np.zeros((0, 2)))


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 5), (5, 2), (4, 4), (7, 3), (3, 7), (6, 6)])
def test_penrose_identities(rows, cols):
    rng = generator(17)
    for _ in range(20):
        a = complex_gaussian(rng, rows, cols)
        p = pseudo_inverse(a)
        scale = np.linalg.norm(a, 2)
        assert np.linalg.norm(a @ p @ a - a, 2) <= 1e-10 * scale
        assert np.linalg.norm(p @ a @ p - p, 2) <= 1e-10 * np.linalg.norm(p, 2)
        ap = a @ p
        pa = p @ a
        assert np.linalg.norm(ap - ap.conj().T, 2) <= 1e-10 * max(1.0, np.linalg.norm(ap, 2))
        assert np.linalg.norm(pa - pa.conj().T, 2) <= 1e-10 * max(1.0, np.linalg.norm(pa, 2))


def test_random_gaussian_empty():
    assert random_gaussian(0, 3, seed=1).shape == (0, 3)


def test_random_gaussian_moments():
    a = random_gaussian(1000, 1, seed=7)
    assert abs(a.mean()) <= 0.1
    v = np.mean(np.abs(a - a.mean()) ** 2)
    assert 0.9 <= v <= 1.1
    # circular symmetry: each part carries half the variance
    assert 0.4 <= np.var(a.real) <= 0.6
    assert 0.4 <= np.var(a.imag) <= 0.6


def test_random_gaussian_deterministic():
    a = random_gaussian(6, 4, seed=123)
    b = random_gaussian(6, 4, seed=123)
    assert a.tobytes() == b.tobytes()
    c = random_gaussian(6, 4, seed=124)
    assert a.tobytes() != c.tobytes()


def test_generator_streams_are_decorrelated():
    a = complex_gaussian(generator(5, 0), 4, 4)
    b = complex_gaussian(generator(5, 1), 4, 4)
    assert not np.allclose(a, b)


def test_generator_rejects_bad_seeds():
    with pytest.raises(InvalidInputError):
        generator(-1)
    for bad in (1.5, 1.0, "a", True, None):
        with pytest.raises(InvalidInputError):
            generator(bad)
    assert generator(np.int64(3)).integers(1 << 30) == generator(3).integers(1 << 30)


def test_random_orthonormal():
    rng = generator(19)
    q = random_orthonormal(rng, 5, 3)
    assert q.shape == (5, 3)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
    with pytest.raises(InvalidInputError):
        random_orthonormal(rng, 2, 3)


def test_random_orthonormal_deterministic():
    a = random_orthonormal(generator(3, 1), 4, 4)
    b = random_orthonormal(generator(3, 1), 4, 4)
    assert a.tobytes() == b.tobytes()
