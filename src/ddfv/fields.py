"""The diffusion tensor: its specifications, its per-diamond values and
their SPD checks.  Scalar fields are packed vectors (``DDFVMesh.parts``).
"""

import numpy as np

from .errors import NotSPD, ValidationError, raise_first


def _check_spd(values, n=1):
    """The tensors ``values`` as an (n, 2, 2) stack.  ``values`` is one
    2x2 matrix for all n, or broadcasts to (2, 2, n) with tensor d at
    values[:, :, d].  NotSPD reports another shape, and else the first
    tensor that is not a symmetric positive definite matrix of finite
    entries."""
    try:
        values = np.atleast_3d(np.asarray(values, dtype=float))
        stack = np.ascontiguousarray(
            np.broadcast_to(values, (2, 2, n)).transpose(2, 0, 1))
    except ValueError as exc:
        raise NotSPD(f"tensor must be a 2x2 matrix or broadcast to "
                     f"(2, 2, {n}): {exc}") from None
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
        (nonfinite, NotSPD, nonfinite_entry),
        (asym, NotSPD, lambda d: "tensor is not symmetric"),
        (evals[:, 0] <= 0.0, NotSPD,
         lambda d: f"tensor has nonpositive eigenvalue {evals[d, 0]:.3e}"),
    ])
    return stack


class TensorSpec:
    """Diffusion tensor: a constant SPD ``matrix``, or a callable ``func``.

    Per-diamond values average the tensor over the diamond; for a callable
    this is a one-point evaluation at the diamond's area barycenter.  The
    callable is called once, on all barycenters, like the other data
    (``scheme.evaluate``): ``x`` has shape (2, m), and the result
    broadcasts to (2, 2, m), tensor d at [:, :, d]; a constant 2x2 matrix
    is broadcast to all points.  No ellipticity bounds are stored:
    ``mesh.quality`` reads them from the per-diamond tensors.
    """

    def __init__(self, matrix=None, func=None):
        self.matrix = matrix
        self.func = func

    @classmethod
    def identity(cls):
        return cls(matrix=np.eye(2))

    @classmethod
    def constant(cls, matrix):
        return cls(matrix=_check_spd(matrix)[0])

    @classmethod
    def rotated(cls, lam1, lam2, angle):
        """R(angle) @ diag(lam1, lam2) @ R(angle).T; diag(lam1, lam2) goes
        through the SPD check, and the angle must be finite."""
        _check_spd(np.diag([lam1, lam2]))
        if not np.isfinite(angle):
            raise NotSPD(f"rotation angle is not finite: {angle}")
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        mat = rot @ np.diag([float(lam1), float(lam2)]) @ rot.T
        return cls(matrix=mat)

    @classmethod
    def from_callable(cls, func):
        return cls(func=func)

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
        if self.func is None:
            return np.broadcast_to(self.matrix, (n, 2, 2)).copy()
        # Area barycenter of the diamond: wedge-weighted mean of the two
        # triangle centroids on either side of the primal edge.
        xk, xl, xvk, xvl = mesh.nodes[mesh.corners]
        ck = (xk + xvk + xvl) / 3.0
        cl = (xl + xvk + xvl) / 3.0
        wk, wl = mesh.wedges[:2, :, None]
        bary = (ck * wk + cl * wl) / (wk + wl)
        return _check_spd(self.func(bary.T), n)
