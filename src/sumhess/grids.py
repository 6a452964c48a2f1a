"""Tensor grids and their discrete operators.

Two layouts: a 1-D radial mesh on a ball (profiles u(r), Hessian eigenvalues
u'' and u'/r), and a uniform n-D lattice on a box. Interior second derivatives
are centered; the boundary normal derivative uses the documented 3-point
one-sided closure (3 u0 - 4 u1 + u2) / (2 h) along the inward grid line.

Both grids expose one boundary interface: ``interior_flat`` and
``boundary_flat`` node indices, unit outward ``normals`` (zero rows inside),
``normal_derivative(values)`` at the boundary nodes, and its Jacobian rows as
``dnu_rows``/``dnu_cols``/``dnu_vals`` triplets.

Each grid also builds one stencil table: ``stencil_cols`` (S, Pe), int32,
the node in each of the S slots of each equation node's stencil, and
``stencil_coef`` (S, E), each slot's weight in the E entries of a node's
second-derivative data (the n^2 entries of H on a box, (u'', u') radially).
``stencil_data`` forms the data; a discrete system's Jacobian rows are
``stencil_coef @ W.T`` at the same columns, W the equation's derivative with
respect to the data. Slots run in the order of the difference formulas, so
a gemm that sums in slot order (OpenBLAS's does) gives the formulas' bits
wherever every weight is a power of two.
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
    stencil_cols: np.ndarray = field(repr=False)  # (3, M): i + 1, i, |i - 1|
    stencil_coef: np.ndarray = field(repr=False)  # (3, 2): weights of u'', u'
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
    i = np.arange(M)
    return RadialGrid(
        dim=dim, R=float(R), M=M, r=np.linspace(0.0, R, M + 1), h=h,
        interior_flat=i, boundary_flat=np.array([M]), normals=normals,
        # the center's mirror closure u(-h) = u(h) names node 1 in both outer slots
        stencil_cols=np.stack([i + 1, i, np.abs(i - 1)]).astype(np.int32),
        stencil_coef=np.array([[1.0, 1.0], [-2.0, 0.0], [1.0, -1.0]]) / [h * h, 2.0 * h],
        dnu_rows=np.full(3, M), dnu_cols=M - np.arange(3),
        dnu_vals=np.array([3.0, -4.0, 1.0]) / (2.0 * h),
    )


def stencil_data(grid, values):
    """Second-derivative data at the equation nodes, (Pe, E): the one gemm
    ``u[stencil_cols].T @ stencil_coef``, in the dtype of ``as_float(values)``.
    It is formed as the transpose of ``stencil_coef.T @ u[stencil_cols]``, so
    each entry's column is contiguous over the nodes; the k <= 2 lift and
    its gradient, which read H entry by entry, take about half the time on it."""
    return (grid.stencil_coef.T @ as_float(values)[grid.stencil_cols]).T


def radial_spectra(grid, values):
    """Hessian eigenvalue profiles at the M equation nodes (0 .. M-1).

    Row i holds [u'', u'/r * (dim-1)] from the stencil data (u'', u'); at the
    center, where the mirror closure gives u'' = 2 (u1 - u0) / h^2, the
    tangential ratio tends to u''(0). The profiles come back in the dtype of
    ``as_float(values)``.
    """
    data = stencil_data(grid, values)
    out = np.empty((grid.M, grid.dim), dtype=data.dtype)
    out[:, 0] = data[:, 0]
    out[0, 1:] = data[0, 0]
    out[1:, 1:] = (data[1:, 1] / grid.r[1 : grid.M])[:, None]
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
    stencil_cols: np.ndarray = field(repr=False)  # (S, Pi), S = 1 + 2 dim^2
    stencil_coef: np.ndarray = field(repr=False)  # (S, dim^2): weights of H's entries
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

    offsets, stencil_coef = _hessian_stencil(strides, spacings)
    return BoxGrid(
        dim=dim, shape=shape, spacings=spacings, points=points,
        interior_flat=interior_flat, boundary_flat=boundary_flat, normals=normals,
        stencil_cols=(interior_flat[None, :] + offsets[:, None]).astype(np.int32),
        stencil_coef=stencil_coef, dnu_rows=dnu_rows, dnu_cols=dnu_cols,
        dnu_vals=dnu_vals, dnu=dnu,
    )


def _hessian_stencil(strides, spacings):
    """The centered Hessian's slots: their offsets in the C-order node
    numbering, (S,), and their weights on the flattened n x n entries of H,
    (S, n^2). Slot order: the center, (+e_c, -e_c) for each axis c, then
    (++, +-, -+, --) for each axis pair c < d."""
    n = spacings.size
    slots = {0: np.zeros((n, n))}

    def weights(offset):
        return slots.setdefault(int(offset), np.zeros((n, n)))

    for c in range(n):
        for offset, w in ((strides[c], 1.0), (0, -2.0), (-strides[c], 1.0)):
            weights(offset)[c, c] += w / (spacings[c] * spacings[c])
    for c in range(n):
        for d in range(c + 1, n):
            for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                w = a * b / (4.0 * spacings[c] * spacings[d])
                weights(a * strides[c] + b * strides[d])[[c, d], [d, c]] += w
    return np.array(list(slots)), np.stack([w.ravel() for w in slots.values()])


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
    return stencil_data(grid, values).reshape(-1, grid.dim, grid.dim)
