"""Floating-point helpers for the certificate search: projection onto the psd
cone by LAPACK ``eigh``, batched over stacked blocks of one size, and
alternating projections between an affine family of symmetric block
matrices, kept as {X : A X = b} with one row per equation, and the product
of those sets.  The affine projection is
y + A^T (A A^T)^-1 (b - A y), A A^T factored once (Henrion-Malick 2011).

When the two sets do not meet, the iterates approach their minimal
displacement, a separating functional (Bauschke-Borwein 1993), and a run
stops as soon as its own iterates bound the trace of every psd member of the
affine set from below by a huge multiple of the current scale.  That bound is
a float stopping rule, not a claim: it only ends a run early, as not
converged.  The kernel keeps no rounding policy: where a point is moved
toward the interior before it is rounded is the caller's choice.  Nor does
it draw a conclusion from the residual y - x, which is normal to the affine
set: a caller may pass a stopping rule that reads it and ends the run once
that rule has proved something exactly (:mod:`ratsos.sos` reads a point
off it).

LAPACK ``eigh`` is the one eigensolver.  ``jacobi_eigh`` is that call under
the name the benchmark traces; the search calls ``eigh`` directly.

Nothing here is trusted; every candidate leaving this module is rationalized
and re-verified exactly by the callers.

numpy is bound lazily, by the package's ``_lazy_import``, which defers this
module itself too: ``np`` is numpy's module object, but numpy's code runs
at the first attribute read, the first float phase, so that a command that
runs no float (root counts, signatures, psd verdicts, certificate checks)
does not pay numpy's import at start-up.  :mod:`ratsos.sos` takes ``np`` from
here.  Once loaded, ``np`` is a plain module, so the loops below read it
with no extra step; where numpy is already imported, ``np`` is that module.
"""

from __future__ import annotations

from . import _lazy_import

np = _lazy_import("numpy")

#: a run stops as separated once every psd member X of the affine set has
#: tr X above this multiple of 1 + tr y, tested every _SEPARATION_EVERY sweeps
_SEPARATION, _SEPARATION_EVERY = 1e6, 8


def jacobi_eigh(a: np.ndarray):
    """LAPACK ``eigh``: (eigenvalues, eigenvectors) with a ~ V @ diag(w) @ V.T."""
    return np.linalg.eigh(a)


def project_psd(a: np.ndarray) -> np.ndarray:
    """Nearest psd matrix in Frobenius norm: clip negative eigenvalues to 0.

    ``a`` is one symmetric (s, s) matrix or a stack (k, s, s) of them,
    projected matrix by matrix.  ``eigh`` reads only the lower triangle, and
    the output is symmetric up to rounding.
    """
    if a.shape[-1] == 1:
        return np.maximum(a, 0.0)
    w, v = np.linalg.eigh(a)
    return (v * np.maximum(w, 0.0)[..., None, :]) @ v.swapaxes(-1, -2)


class AffineFamily:
    """Affine set {X : A X = b = A @ particular} in concatenated s*s block coordinates.

    A has full row rank; with rows symmetric in each block, symmetric points
    project to the symmetric members.  (A A^T)^-1 is computed once, and so
    is ``eye``, the block identity in the same coordinates."""

    def __init__(self, particular: np.ndarray, a: np.ndarray, sizes: list[int]):
        self.particular = np.asarray(particular, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = self.a @ self.particular
        self.gram_inv = np.linalg.inv(self.a @ self.a.T)
        self.sizes = list(sizes)
        # per distinct block size s: the (k, s*s) positions of its k blocks
        starts = np.cumsum([0] + [s * s for s in self.sizes])
        self.groups = []
        self.eye = np.zeros(self.particular.shape)
        for s in sorted(set(self.sizes) - {0}):  # an empty block has no entry
            firsts = np.array([starts[i] for i, t in enumerate(self.sizes) if t == s])
            idx = firsts[:, None] + np.arange(s * s)
            self.groups.append((s, idx))
            self.eye[idx] = np.eye(s).reshape(-1)

    def project(self, y: np.ndarray) -> np.ndarray:
        """Orthogonal projection of y onto the affine set: y + A^T (A A^T)^-1 (b - A y)."""
        return y + (self.gram_inv @ (self.b - self.a @ y)) @ self.a

    def project_psd_cone(self, y: np.ndarray) -> np.ndarray:
        """Block by block onto the psd cone, one batched projection per distinct size."""
        out = np.empty_like(y)
        for s, idx in self.groups:
            out[idx] = project_psd(y[idx].reshape(-1, s, s)).reshape(idx.shape)
        return out


def alternating_projection(family: AffineFamily, max_sweeps: int = 3000, tol: float = 1e-8, stop=None):
    """Alternate projections onto the psd cone and the affine set, from ``family.particular``.

    Returns (x, gap, converged, separated): x is the last affine point, gap
    the final distance between the two projections.  The defaults are the
    one budget every certificate search runs at.

    ``stop``, when given, is called with the residual r (below) every
    _SEPARATION_EVERY sweeps that did not converge, before the separation
    test, and a true answer ends the run, neither converged nor separated.
    The caller decides what r proves; this module claims nothing of it.

    ``separated`` reports a run ended early by the separation bound.  With
    y = P(x_k) onto the psd cone, x_{k+1} the affine projection of y,
    r = y - x_{k+1} and step = x_{k+1} - x_k: y - x_k is psd, so
    lambda_min(r) >= -|step|, and r is normal to the affine set, so every
    psd member X has tr X >= -<r, x_{k+1}> / |step|.  The run stops once
    that exceeds _SEPARATION * (1 + tr y).  This is a float stopping rule,
    not a certificate of infeasibility.
    """
    x = family.particular
    gap, separated = np.inf, False
    for sweep in range(1, max_sweeps + 1):
        y = family.project_psd_cone(x)
        x_prev = x
        x = family.project(y)
        r = y - x
        gap = float(abs(r).max()) if r.size else 0.0
        if gap < tol:
            break
        if sweep % _SEPARATION_EVERY == 0:
            if stop is not None and stop(r):
                break
            lower = -(r @ x)
            separated = bool(lower > _SEPARATION * (1.0 + family.eye @ y) * np.linalg.norm(x - x_prev))
            if separated:
                break
    return x, gap, gap < tol, separated
