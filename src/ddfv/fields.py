"""Anisotropy tensor specifications.

Discrete scalar fields are plain packed vectors, laid out and split by
``DDFVMesh.parts``/``DDFVMesh.pack``; per-diamond data (gradients, fluxes,
reconstructions) are numpy arrays of shape (n_diamonds,) or
(n_diamonds, 2).  This module holds the diffusion tensor that the
per-diamond data are built from, with its SPD checks.
"""

import numpy as np

from .errors import NotSPD, ValidationError, raise_first


def _check_spd(mats):
    """Stack a sequence of 2x2 tensors into an (n, 2, 2) array and return it
    with the (n, 2) ascending eigenvalues.  NotSPD reports the first tensor
    that is not a symmetric positive definite 2x2 matrix of finite
    entries."""
    mats = [np.asarray(mat, dtype=float) for mat in mats]
    bad_shape = np.array([mat.shape != (2, 2) for mat in mats], dtype=bool)
    stack = np.array([np.eye(2) if bad else mat
                      for mat, bad in zip(mats, bad_shape)]).reshape(-1, 2, 2)
    finite = np.isfinite(stack)
    nonfinite = ~finite.all(axis=(1, 2))
    # the later checks read the identity in place of a non-finite tensor
    safe = np.where(nonfinite[:, None, None], np.eye(2), stack)
    asym = (np.abs(safe[:, 0, 1] - safe[:, 1, 0])
            > 1e-12 * (1.0 + np.abs(safe).max(axis=(1, 2))))
    evals = np.linalg.eigvalsh(safe)

    def nonfinite_entry(d):
        i, j = np.argwhere(~finite[d])[0]
        return f"tensor entry ({i}, {j}) is not finite: {stack[d, i, j]}"

    raise_first([
        (bad_shape, NotSPD, lambda d: "tensor must be a 2x2 matrix"),
        (nonfinite, NotSPD, nonfinite_entry),
        (asym, NotSPD, lambda d: "tensor is not symmetric"),
        (evals[:, 0] <= 0.0, NotSPD,
         lambda d: f"tensor has nonpositive eigenvalue {evals[d, 0]:.3e}"),
    ])
    return stack, evals


class TensorSpec:
    """Diffusion tensor: identity, constant SPD, rotated diagonal or callable.

    Per-diamond values average the tensor over the diamond; for a callable
    this is a one-point evaluation at the diamond's area barycenter.
    Ellipticity bounds are exact for constant tensors and sampled from the
    evaluation points for callables (unless given explicitly).
    """

    def __init__(self, kind, matrix=None, func=None, bounds=None):
        self.kind = kind
        self.matrix = matrix
        self.func = func
        self._bounds = bounds

    @classmethod
    def identity(cls):
        return cls("identity", matrix=np.eye(2), bounds=(1.0, 1.0))

    @classmethod
    def constant(cls, matrix):
        stack, evals = _check_spd([matrix])
        return cls("constant", matrix=stack[0],
                   bounds=(float(evals[0, 0]), float(evals[0, 1])))

    @classmethod
    def rotated(cls, lam1, lam2, angle):
        """R(angle) @ diag(lam1, lam2) @ R(angle).T; diag(lam1, lam2) goes
        through the SPD check, and the angle must be finite."""
        _check_spd([np.diag([lam1, lam2])])
        if not np.isfinite(angle):
            raise NotSPD(f"rotation angle is not finite: {angle}")
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        mat = rot @ np.diag([float(lam1), float(lam2)]) @ rot.T
        return cls("constant", matrix=mat,
                   bounds=(min(lam1, lam2), max(lam1, lam2)))

    @classmethod
    def from_callable(cls, func, bounds=None):
        return cls("callable", func=func, bounds=bounds)

    @classmethod
    def parse(cls, text):
        """Parse CLI/config syntax: 'identity', 'diag:a,b',
        'rotated:a,b,angle' or 'matrix:a11,a12,a22'."""
        text = text.strip()
        if text == "identity":
            return cls.identity()
        if ":" not in text:
            raise ValidationError(f"cannot parse tensor spec {text!r}")
        head, args = text.split(":", 1)
        try:
            nums = [float(t) for t in args.split(",")]
        except ValueError:
            raise ValidationError(f"cannot parse tensor spec {text!r}") from None
        if head == "diag" and len(nums) == 2:
            return cls.constant(np.diag(nums))
        if head == "rotated" and len(nums) == 3:
            return cls.rotated(nums[0], nums[1], nums[2])
        if head == "matrix" and len(nums) == 3:
            a11, a12, a22 = nums
            return cls.constant(np.array([[a11, a12], [a12, a22]]))
        raise ValidationError(f"cannot parse tensor spec {text!r}")

    def on_diamonds(self, mesh):
        """Per-diamond tensors as an (n_diamonds, 2, 2) array."""
        n = mesh.n_diamonds
        if self.kind in ("identity", "constant"):
            return np.broadcast_to(self.matrix, (n, 2, 2)).copy()
        # Area barycenter of the diamond: wedge-weighted mean of the two
        # triangle centroids on either side of the primal edge.
        centers = mesh.primal_centers
        xk = centers[mesh.dia_cell_k]
        xl = centers[mesh.dia_cell_l]
        xvk = mesh.primal.vertices[mesh.dia_vert_k]
        xvl = mesh.primal.vertices[mesh.dia_vert_l]
        ck = (xk + xvk + xvl) / 3.0
        cl = (xl + xvk + xvl) / 3.0
        w = (mesh.wedge_cell_k + mesh.wedge_cell_l)
        bary = (ck * mesh.wedge_cell_k[:, None] + cl * mesh.wedge_cell_l[:, None])
        bary /= w[:, None]
        # The tensor is called per point; the checks run on the stack.
        return _check_spd([self.func(point) for point in bary])[0]

    def bounds(self, lam_d=None):
        """(lambda_min, lambda_max) ellipticity bounds."""
        if self._bounds is not None:
            return self._bounds
        if lam_d is None:
            raise ValidationError(
                "callable tensor without stored bounds needs sampled values"
            )
        evals = np.linalg.eigvalsh(lam_d)
        return float(evals.min()), float(evals.max())
