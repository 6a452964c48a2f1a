"""Tensor grids and their discrete operators.

Two layouts: a 1-D radial mesh on a ball (profiles u(r), Hessian eigenvalues
u'' and u'/r), and a uniform n-D lattice on a box. Interior second derivatives
are centered; the boundary normal derivative uses the documented 3-point
one-sided closure (3 u0 - 4 u1 + u2) / (2 h) along the inward grid line.

Both grids expose one boundary interface: ``interior_flat`` and
``boundary_flat`` node indices, unit outward ``normals`` (zero rows inside),
``normal_derivative(values)`` at the boundary nodes, and its Jacobian rows as
``dnu_rows``/``dnu_cols``/``dnu_vals`` triplets.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._kernels import as_float
from .errors import ConfigError


@dataclass(frozen=True)
class RadialGrid:
    dim: int  # ambient space dimension
    R: float
    M: int  # intervals; M + 1 nodes
    r: np.ndarray = field(repr=False)
    h: float
    interior_flat: np.ndarray = field(repr=False)  # the M equation nodes
    boundary_flat: np.ndarray = field(repr=False)  # [M], the rim
    normals: np.ndarray = field(repr=False)  # (M + 1, 1), +1 at the rim
    dnu_rows: np.ndarray = field(repr=False)
    dnu_cols: np.ndarray = field(repr=False)
    dnu_vals: np.ndarray = field(repr=False)

    @property
    def npoints(self):
        return self.M + 1

    @property
    def shape(self):
        return (self.npoints,)

    @property
    def points(self):
        return self.r[:, None]

    def normal_derivative(self, values):
        # the explicit formula, not dnu @ u: a sparse product rounds differently
        u = as_float(values)
        return (3.0 * u[-1:] - 4.0 * u[-2:-1] + u[-3:-2]) / (2.0 * self.h)


def radial_grid(R, M, dim):
    if M < 4:
        raise ConfigError(f"radial mesh needs at least 4 intervals, got {M}")
    M, h = int(M), float(R) / M
    normals = np.zeros((M + 1, 1))
    normals[-1] = 1.0
    return RadialGrid(
        dim=dim, R=float(R), M=M, r=np.linspace(0.0, R, M + 1), h=h,
        interior_flat=np.arange(M), boundary_flat=np.array([M]), normals=normals,
        dnu_rows=np.full(3, M), dnu_cols=M - np.arange(3),
        dnu_vals=np.array([3.0, -4.0, 1.0]) / (2.0 * h),
    )


def radial_spectra(grid, values):
    """Hessian eigenvalue profiles at the M equation nodes (0 .. M-1).

    Row i holds [u'', u'/r * (dim-1)]; at the center the mirror closure
    u(-r) = u(r) gives u'' = 2 (u1 - u0) / h^2 and the tangential ratio
    tends to u''(0). The profiles come back in the dtype of ``as_float(values)``.
    """
    u = as_float(values)
    h = grid.h
    out = np.empty((grid.M, grid.dim), dtype=u.dtype)
    out[0, :] = 2.0 * (u[1] - u[0]) / (h * h)
    i = np.arange(1, grid.M)
    upp = (u[i + 1] - 2.0 * u[i] + u[i - 1]) / (h * h)
    ratio = (u[i + 1] - u[i - 1]) / (2.0 * h) / grid.r[i]
    out[1:, 0] = upp
    out[1:, 1:] = ratio[:, None]
    return out


@dataclass(frozen=True)
class BoxGrid:
    dim: int
    shape: tuple
    spacings: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)  # (P, dim)
    interior_flat: np.ndarray = field(repr=False)
    boundary_flat: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)  # (P, dim), zero rows interior
    dnu_rows: np.ndarray = field(repr=False)
    dnu_cols: np.ndarray = field(repr=False)
    dnu_vals: np.ndarray = field(repr=False)
    dnu: sp.csr_matrix = field(repr=False)

    @property
    def npoints(self):
        return self.points.shape[0]

    @property
    def h(self):
        return float(self.spacings.max())

    def normal_derivative(self, values):
        return (self.dnu @ values)[self.boundary_flat]


def box_grid(extents, nodes, center=None):
    """Uniform lattice on an axis-aligned box, nodes per axis >= 5."""
    extents = np.asarray(extents, dtype=np.float64)
    dim = extents.size
    if np.isscalar(nodes):
        nodes = (int(nodes),) * dim
    shape = tuple(int(nc) for nc in nodes)
    if len(shape) != dim:
        raise ConfigError(f"extents has {dim} axes but mesh has {len(shape)}")
    if min(shape) < 5:
        raise ConfigError(f"box mesh needs at least 5 nodes per axis, got {shape}")
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=np.float64)
    lo = center - extents / 2.0
    spacings = extents / (np.array(shape) - 1.0)
    axes = [lo[c] + spacings[c] * np.arange(shape[c]) for c in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    P = points.shape[0]

    ids = np.arange(P).reshape(shape)
    core = tuple(slice(1, -1) for _ in range(dim))
    interior_flat = ids[core].ravel()
    interior_mask = np.zeros(P, dtype=bool)
    interior_mask[interior_flat] = True
    boundary_flat = np.where(~interior_mask)[0]

    strides = np.array([int(np.prod(shape[c + 1 :])) for c in range(dim)])

    counts = np.zeros(P)
    faces = []
    for c in range(dim):
        for side in (0, 1):
            sel = [slice(None)] * dim
            sel[c] = 0 if side == 0 else shape[c] - 1
            flat = ids[tuple(sel)].ravel()
            faces.append((c, side, flat))
            counts[flat] += 1.0

    normals = np.zeros((P, dim))
    rows, cols, vals = [], [], []
    for c, side, flat in faces:
        sgn = -1.0 if side == 0 else 1.0
        scale = sgn / np.sqrt(counts[flat])
        normals[flat, c] = scale
        step = strides[c] if side == 0 else -strides[c]
        # normal derivative contribution nu_c * (inward one-sided derivative);
        # the orientation signs collapse to (3, -4, 1)/(2 h sqrt(cnt)) along
        # the inward grid line on both sides
        for offset, coeff in ((0, 3.0), (1, -4.0), (2, 1.0)):
            rows.append(flat)
            cols.append(flat + offset * step)
            vals.append(coeff / (np.sqrt(counts[flat]) * 2.0 * spacings[c]))
    dnu_rows = np.concatenate(rows)
    dnu_cols = np.concatenate(cols)
    dnu_vals = np.concatenate(vals)
    dnu = sp.csr_matrix((dnu_vals, (dnu_rows, dnu_cols)), shape=(P, P))

    return BoxGrid(
        dim=dim, shape=shape, spacings=spacings, points=points,
        interior_flat=interior_flat, boundary_flat=boundary_flat,
        normals=normals, dnu_rows=dnu_rows, dnu_cols=dnu_cols,
        dnu_vals=dnu_vals, dnu=dnu,
    )


def _prolongation_1d(n):
    """Linear interpolation from the (n + 1) / 2 even nodes to all n nodes."""
    nc = (n - 1) // 2 + 1
    fine = np.arange(n)
    odd = fine[1::2]
    rows = np.concatenate([fine[::2], odd, odd])
    cols = np.concatenate([np.arange(nc), (odd - 1) // 2, (odd + 1) // 2])
    vals = np.concatenate([np.ones(nc), np.full(2 * odd.size, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, nc))


def box_prolongation(shape):
    """Tensor-product linear interpolation from the half-resolution lattice.

    Returns (P, coarse_shape) with P of shape (prod(shape), prod(coarse_shape))
    in the C-order node numbering of ``box_grid``, or None when some axis
    cannot be halved exactly (odd n - 1, or n < 5). Meshes of 2^k + 1 nodes
    per axis therefore coarsen down to 3 nodes per axis.
    """
    shape = tuple(int(nc) for nc in shape)
    if any(nc < 5 or (nc - 1) % 2 for nc in shape):
        return None
    P = _prolongation_1d(shape[0])
    for nc in shape[1:]:
        P = sp.kron(P, _prolongation_1d(nc), format="csr")
    return P, tuple((nc - 1) // 2 + 1 for nc in shape)


def box_hessians(grid, values):
    """Centered discrete Hessians at the interior nodes, shape (Pi, n, n)."""
    U = np.asarray(values, dtype=np.float64).reshape(grid.shape)
    n = grid.dim
    core = tuple(slice(1, -1) for _ in range(n))
    Pi = grid.interior_flat.size
    H = np.empty((Pi, n, n))

    def shifted(offsets):
        sel = list(core)
        for c, off in offsets:
            sel[c] = slice(1 + off, (-1 + off) or None)
        return U[tuple(sel)]

    mid = U[core]
    for c in range(n):
        hc = grid.spacings[c]
        d2 = (shifted([(c, 1)]) - 2.0 * mid + shifted([(c, -1)])) / (hc * hc)
        H[:, c, c] = d2.ravel()
        for d in range(c + 1, n):
            hd = grid.spacings[d]
            mixed = (
                shifted([(c, 1), (d, 1)])
                - shifted([(c, 1), (d, -1)])
                - shifted([(c, -1), (d, 1)])
                + shifted([(c, -1), (d, -1)])
            ) / (4.0 * hc * hd)
            H[:, c, d] = mixed.ravel()
            H[:, d, c] = H[:, c, d]
    return H


def box_interior_stencil(grid):
    """Static column layout of the interior Jacobian rows, slot-major.

    Returns cols of shape (nslots, Pi): cols[s, p] is the column of stencil
    slot s in the row of interior node p. Slot order: the center, then
    (+e_c, -e_c) for each axis c, then (++, --, +-, -+) for each axis pair
    c < d; ``box_interior_values`` fills the same order.
    """
    n = grid.dim
    strides = [int(np.prod(grid.shape[c + 1 :])) for c in range(n)]
    offsets = [0]
    for c in range(n):
        offsets += [strides[c], -strides[c]]
    for c in range(n):
        for d in range(c + 1, n):
            sc, sd = strides[c], strides[d]
            offsets += [sc + sd, -sc - sd, sc - sd, -sc + sd]
    return grid.interior_flat[None, :] + np.array(offsets)[:, None]


def box_interior_values(grid, F):
    """Stencil weights of the linearized interior rows from the per-node
    gradient matrices F (Pi, n, n), slot-major (nslots, Pi) in the slot order
    of ``box_interior_stencil``."""
    n, h = grid.dim, grid.spacings
    vals = np.empty((1 + 2 * n * n, F.shape[0]))
    vals[0] = -2.0 * (F[:, range(n), range(n)] / h[None, :] ** 2).sum(axis=1)
    slot = 1
    for c in range(n):
        vals[slot : slot + 2] = F[:, c, c] / (h[c] * h[c])
        slot += 2
    for c in range(n):
        for d in range(c + 1, n):
            mixed = F[:, c, d] / (2.0 * h[c] * h[d])
            vals[slot : slot + 2] = mixed
            vals[slot + 2 : slot + 4] = -mixed
            slot += 4
    return vals
