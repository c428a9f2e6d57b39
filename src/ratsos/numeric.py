"""Floating-point helpers for the certificate search: projection onto
{X >= floor * I} (the psd cone at floor 0) by LAPACK ``eigh``, batched over
stacked blocks of one size, and alternating projections between an affine
family of symmetric block matrices, kept as {X : A X = b} with one row per
equation, and the product of those sets.  The affine projection is
y + A^T (A A^T)^-1 (b - A y), A A^T factored once (Henrion-Malick 2011).

When the two sets do not meet, the iterates approach their minimal
displacement, a separating functional (Bauschke-Borwein 1993), and a run
stops as soon as its own iterates bound the trace of every member of the
affine set that lies in {X >= floor * I} from below by a huge multiple of the
current scale.  That bound is a float stopping rule, not a claim: it only
ends a run early, as not converged.

``jacobi_eigh`` is a pure-Python cyclic Jacobi eigensolver kept as a
reference; the search itself does not call it.

Nothing here is trusted; every candidate leaving this module is rationalized
and re-verified exactly by the callers.
"""

from __future__ import annotations

import numpy as np

#: size of the step toward the identity that a converged point is nudged by
_NUDGE = 1e-6

#: a run stops as separated once every member X >= floor * I of the affine set
#: has tr(X - floor * I) above this multiple of 1 + tr y, tested every
#: _SEPARATION_EVERY sweeps
_SEPARATION, _SEPARATION_EVERY = 1e6, 8


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 64):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with a ~ V @ diag(w) @ V.T.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n < 2:
        return np.diag(a).copy(), v
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    return np.diag(a).copy(), v


def project_psd(a: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Nearest X >= floor * I in Frobenius norm (floor 0: the psd cone): raise low eigenvalues.

    ``a`` is one symmetric (s, s) matrix or a stack (k, s, s) of them,
    projected matrix by matrix.  ``eigh`` reads only the lower triangle, and
    the output is symmetric up to rounding.
    """
    if a.shape[-1] == 1:
        return np.maximum(a, floor)
    w, v = np.linalg.eigh(a)
    return (v * np.maximum(w, floor)[..., None, :]) @ v.swapaxes(-1, -2)


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix or of a stack (k, s, s) of them."""
    w = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    return float(w.min()) if w.size else 0.0


class AffineFamily:
    """Affine set {X : A X = b = A @ particular} in concatenated s*s block coordinates.

    A has full row rank; with rows symmetric in each block, symmetric points
    project to the symmetric members.  (A A^T)^-1 is computed once."""

    def __init__(self, particular: np.ndarray, a: np.ndarray, sizes: list[int]):
        self.particular = np.asarray(particular, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = self.a @ self.particular
        self.gram_inv = np.linalg.inv(self.a @ self.a.T)
        self.sizes = list(sizes)
        # per distinct block size s: the (k, s*s) positions of its k blocks
        starts = np.cumsum([0] + [s * s for s in self.sizes])
        self.groups = []
        for s in sorted(set(self.sizes) - {0}):  # an empty block has no entry
            firsts = np.array([starts[i] for i, t in enumerate(self.sizes) if t == s])
            self.groups.append((s, firsts[:, None] + np.arange(s * s)))

    def project(self, y: np.ndarray) -> np.ndarray:
        """Orthogonal projection of y onto the affine set: y + A^T (A A^T)^-1 (b - A y)."""
        return y + (self.gram_inv @ (self.b - self.a @ y)) @ self.a

    def stacks(self, y: np.ndarray):
        """The blocks of y as one (k, s, s) stack per distinct size s."""
        return [(idx, y[idx].reshape(-1, s, s)) for s, idx in self.groups]

    def project_psd_cone(self, y: np.ndarray, floor: float = 0.0) -> np.ndarray:
        out = np.empty_like(y)
        for idx, stack in self.stacks(y):
            out[idx] = project_psd(stack, floor).reshape(idx.shape)
        return out

    def eye_vector(self) -> np.ndarray:
        out = np.zeros(self.particular.shape)
        for s, idx in self.groups:
            out[idx] = np.eye(s).reshape(-1)
        return out


def alternating_projection(family: AffineFamily, max_sweeps: int = 5000, tol: float = 1e-9,
                           start=None, floor: float = 0.0):
    """Alternate projections onto {X >= floor * I} and the affine set, from its point ``start``.

    Returns (x, gap, converged, separated): x is the last affine point (the
    run starts at ``family.particular`` by default), gap the final distance
    between the two projections.  A converged x is nudged toward x + _NUDGE*I
    inside the affine set if that keeps it numerically psd, so interior points
    rationalize robustly.

    ``separated`` reports a run ended early by the separation bound.  With
    y = P(x_k) onto {X >= floor * I}, x_{k+1} the affine projection of y,
    r = y - x_{k+1} and step = x_{k+1} - x_k: y - x_k is psd, so
    lambda_min(r) >= -|step|, and r is normal to the affine set, so every
    member X >= floor * I has tr(X - floor * I) >= (floor tr r - <r, x_{k+1}>) / |step|.
    The run stops once that exceeds _SEPARATION * (1 + tr y).  This is a
    float stopping rule, not a certificate of infeasibility.
    """
    x = family.particular if start is None else start
    eye = family.eye_vector()
    gap, separated = np.inf, False
    for sweep in range(1, max_sweeps + 1):
        y = family.project_psd_cone(x, floor)
        x_prev = x
        x = family.project(y)
        r = y - x
        gap = float(abs(r).max()) if r.size else 0.0
        if gap < tol:
            break
        if sweep % _SEPARATION_EVERY == 0:
            lower = floor * (eye @ r) - r @ x
            separated = bool(lower > _SEPARATION * (1.0 + eye @ y) * np.linalg.norm(x - x_prev))
            if separated:
                break
    converged = gap < tol
    if converged:
        nudged = family.project(x + _NUDGE * eye)
        worst = min((min_eig(stack) for _, stack in family.stacks(nudged)), default=0.0)
        if worst > -_NUDGE:
            x = nudged
    return x, gap, converged, separated
