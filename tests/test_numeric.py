import numpy as np

from ratsos.numeric import AffineFamily, alternating_projection, jacobi_eigh, min_eig, project_psd


def test_jacobi_reconstructs():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 8):
        a = rng.normal(size=(n, n))
        a = a + a.T
        w, v = jacobi_eigh(a)
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-9)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-9)


def test_project_psd():
    a = np.array([[1.0, 0.0], [0.0, -2.0]])
    p = project_psd(a)
    assert np.allclose(p, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert min_eig(p) >= -1e-12


def test_alternating_projection_trivial_intersection():
    # affine set {diag(1, t)}: the psd members have t >= 0
    particular = np.array([1.0, 0.0, 0.0, -3.0])
    basis = np.array([[0.0], [0.0], [0.0], [1.0]])
    family = AffineFamily(particular, basis, [2])
    t, gap, converged = alternating_projection(family, max_sweeps=500, tol=1e-10)
    assert converged
    assert t[0] >= 3.0 - 1e-6  # lands at a psd point


def _random_symmetric(rng, s):
    a = rng.normal(size=(s, s))
    return a + a.T


def test_jacobi_eigenvalues_match_lapack():
    rng = np.random.default_rng(1)
    for n in (1, 3, 6):
        a = _random_symmetric(rng, n)
        w, _ = jacobi_eigh(a)
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(a), atol=1e-9)


def test_batched_cone_projection_matches_blockwise():
    rng = np.random.default_rng(2)
    sizes = [1, 3, 2, 3]
    blocks = [_random_symmetric(rng, s) for s in sizes]
    y = np.concatenate([b.reshape(-1) for b in blocks])
    family = AffineFamily(np.zeros_like(y), np.zeros((y.size, 0)), sizes)
    expected = np.concatenate([project_psd(b).reshape(-1) for b in blocks])
    assert np.allclose(family.project_psd_cone(y), expected, atol=1e-12)
    assert np.array_equal(family.eye_vector(), np.concatenate([np.eye(s).reshape(-1) for s in sizes]))


def test_affine_projection_matches_lstsq_and_is_idempotent():
    rng = np.random.default_rng(3)
    sizes = [2, 3]
    n = sum(s * s for s in sizes)
    particular = rng.normal(size=n)
    basis = rng.normal(size=(n, 4))
    family = AffineFamily(particular, basis, sizes)
    y = rng.normal(size=n)
    point, t = family.project(y)
    t_ref = np.linalg.lstsq(basis, y - particular, rcond=None)[0]
    assert np.allclose(t, t_ref, atol=1e-10)
    assert np.allclose(point, particular + basis @ t_ref, atol=1e-10)
    again, t_again = family.project(point)
    assert np.allclose(again, point, atol=1e-10)
    assert np.allclose(t_again, t, atol=1e-10)


def test_empty_basis_family():
    psd = np.array([2.0, 1.0, 1.0, 2.0])
    family = AffineFamily(psd, np.zeros((4, 0)), [2])
    point, t = family.project(np.ones(4))
    assert np.array_equal(point, psd) and t.size == 0
    t, gap, converged = alternating_projection(family)
    assert t.size == 0 and converged and gap < 1e-12
    not_psd = AffineFamily(np.array([1.0, 0.0, 0.0, -1.0]), np.zeros((4, 0)), [2])
    _, gap, converged = alternating_projection(not_psd, max_sweeps=10)
    assert not converged and abs(gap - 1.0) < 1e-12


def test_min_eig_on_stacks():
    stack = np.array([np.diag([3.0, 1.0]), np.diag([2.0, -0.5])])
    assert min_eig(stack) == -0.5
    assert min_eig(stack[0]) == 1.0
