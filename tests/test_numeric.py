import numpy as np

from ratsos.numeric import AffineFamily, alternating_projection, project_psd


def test_project_psd():
    a = np.array([[1.0, 0.0], [0.0, -2.0]])
    p = project_psd(a)
    assert np.allclose(p, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.linalg.eigvalsh(p).min() >= -1e-12


def _complement(directions):
    """Orthonormal rows spanning the orthogonal complement of the rows ``directions``."""
    _, sv, vt = np.linalg.svd(np.atleast_2d(np.asarray(directions, float)))
    return vt[np.count_nonzero(sv > 1e-12):]


#: the three equations of a 2x2 block whose unknowns are all solved: one member
_SOLVED_2X2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]])


def test_alternating_projection_trivial_intersection():
    # affine set {diag(1, -3 + t)}: the psd members have t >= 3
    particular = np.array([1.0, 0.0, 0.0, -3.0])
    family = AffineFamily(particular, _complement([0.0, 0.0, 0.0, 1.0]), [2])
    x, gap, converged, _ = alternating_projection(family, max_sweeps=500, tol=1e-10)
    assert converged
    assert np.allclose(x[:3], particular[:3], atol=1e-12)
    assert x[3] >= -1e-6  # lands at a psd point


def _random_symmetric(rng, s):
    a = rng.normal(size=(s, s))
    return a + a.T


def test_batched_cone_projection_matches_blockwise():
    rng = np.random.default_rng(2)
    sizes = [1, 3, 2, 3]
    blocks = [_random_symmetric(rng, s) for s in sizes]
    y = np.concatenate([b.reshape(-1) for b in blocks])
    family = AffineFamily(np.zeros_like(y), np.zeros((0, y.size)), sizes)
    expected = np.concatenate([project_psd(b).reshape(-1) for b in blocks])
    assert np.allclose(family.project_psd_cone(y), expected, atol=1e-12)
    assert np.array_equal(family.eye_vector(), np.concatenate([np.eye(s).reshape(-1) for s in sizes]))


def test_affine_projection_matches_lstsq_and_is_idempotent():
    rng = np.random.default_rng(3)
    sizes = [2, 3]
    n = sum(s * s for s in sizes)
    particular = rng.normal(size=n)
    a = rng.normal(size=(9, n))
    family = AffineFamily(particular, a, sizes)
    y = rng.normal(size=n)
    point = family.project(y)
    # reference: least squares over a nullspace basis of A from its SVD
    null = np.linalg.svd(a)[2][9:].T
    t_ref = np.linalg.lstsq(null, y - particular, rcond=None)[0]
    assert np.allclose(point, particular + null @ t_ref, atol=1e-10)
    assert np.allclose(a @ point, a @ particular, atol=1e-10)
    assert np.allclose(family.project(point), point, atol=1e-10)


def test_empty_basis_family():
    # no free direction: the nullspace of A, and so its basis, is empty
    psd = np.array([2.0, 1.0, 1.0, 2.0])
    family = AffineFamily(psd, _SOLVED_2X2, [2])
    assert np.allclose(family.project(np.ones(4)), psd, rtol=0, atol=1e-12)
    x, gap, converged, _ = alternating_projection(family)
    assert np.allclose(x, psd, rtol=0, atol=1e-12) and converged and gap < 1e-12
    not_psd = AffineFamily(np.array([1.0, 0.0, 0.0, -1.0]), _SOLVED_2X2, [2])
    _, gap, converged, _ = alternating_projection(not_psd, max_sweeps=10)
    assert not converged and abs(gap - 1.0) < 1e-12


class _CountingFamily(AffineFamily):
    """An affine family that counts its projections: one per sweep."""

    calls = 0

    def project(self, y):
        self.calls += 1
        return super().project(y)


def _pencil(particular, direction):
    """The 2x2 family {particular + t * direction}, both given row by row."""
    return _CountingFamily(np.array(particular, float), _complement(direction), [2])


def test_infeasible_family_stops_at_separation_bound():
    # {[[1, t], [t, -1]]} has no psd member
    family = _pencil([1, 0, 0, -1], [0, 1, 1, 0])
    _, gap, converged, separated = alternating_projection(family, max_sweeps=5000)
    assert separated and not converged and gap > 0.5
    assert family.calls <= 40


def test_feasible_family_without_interior_runs_as_before():
    # {[[3/2 + t, 1], [1, 1/2 - t]]}: the one psd member, at t = -1/2, has rank one,
    # so the sweeps creep toward it and never converge or separate
    for sweeps in (100, 2000):
        family = _pencil([1.5, 1, 1, 0.5], [1, 0, 0, -1])
        x, gap, converged, separated = alternating_projection(family, max_sweeps=sweeps)
        assert not converged and not separated and family.calls == sweeps
        x_ref = family.particular.copy()
        for _ in range(sweeps):  # the plain sweep, with no stopping rule
            x_ref = family.project(family.project_psd_cone(x_ref))
        assert np.array_equal(x, x_ref)
    assert -0.5 < x[0] - 1.5 < -0.45  # t = x[0] - 3/2


def test_separation_under_the_floor():
    # {[[1, t], [t, 0]]} has the psd member t = 0 but none with X >= 1e-3 * I,
    # so its shift by -1e-3 * I has no psd member
    family = _pencil([1, 0, 0, 0], [0, 1, 1, 0])
    _, _, converged, separated = alternating_projection(family, max_sweeps=5000)
    assert converged and not separated
    family = _pencil([1 - 1e-3, 0, 0, -1e-3], [0, 1, 1, 0])
    _, gap, converged, separated = alternating_projection(family, max_sweeps=5000)
    assert separated and not converged and abs(gap - 1e-3) < 1e-12
    assert family.calls <= 40


def test_empty_basis_not_psd_separates():
    family = _CountingFamily(np.array([1.0, 0.0, 0.0, -1.0]), _SOLVED_2X2, [2])
    _, gap, converged, separated = alternating_projection(family, max_sweeps=5000)
    assert not converged and separated and abs(gap - 1.0) < 1e-12
    assert family.calls <= 40


def test_a_stopping_rule_that_answers_true_ends_the_run_at_sweep_8():
    # the separating pencil above: the rule is asked before the separation test
    family = _pencil([1, 0, 0, -1], [0, 1, 1, 0])
    seen = []
    _, _, converged, separated = alternating_projection(
        family, max_sweeps=5000, stop=lambda r: seen.append(r.copy()) or True)
    assert family.calls == 8 and len(seen) == 1
    assert not converged and not separated
    # it is handed the residual of sweep 8, normal to the affine set
    assert abs(seen[0] @ np.array([0.0, 1.0, 1.0, 0.0])) < 1e-12 and abs(seen[0]).max() > 0.5


def test_a_stopping_rule_that_answers_false_leaves_the_run_unchanged():
    # a run that creeps to the cap and one that separates: the same iterates and
    # verdict with the rule as without, which was asked every 8th sweep
    for particular, direction in (([1.5, 1, 1, 0.5], [1, 0, 0, -1]), ([1, 0, 0, -1], [0, 1, 1, 0])):
        asked, runs, families = [], [], []
        for stop in (None, lambda r: asked.append(r) and False):
            families.append(_pencil(particular, direction))
            runs.append(alternating_projection(families[-1], max_sweeps=100, stop=stop))
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
        assert families[0].calls == families[1].calls and len(asked) == families[1].calls // 8
