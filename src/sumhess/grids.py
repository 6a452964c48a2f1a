"""Tensor grids and their discrete operators.

Two layouts: a 1-D radial mesh on a ball (profiles u(r), Hessian eigenvalues
u'' and u'/r), and a uniform n-D lattice on a box. Interior second derivatives
are centered; the boundary normal derivative uses the documented 3-point
one-sided closure (3 u0 - 4 u1 + u2) / (2 h) along the inward grid line.

One ``Grid`` type holds both. Its ``points`` are the nodes (the radii r as
one column on a radial mesh), ``spacings`` the step per axis, and ``mesh``
the mesh as a ``solve`` config gives it. Its boundary interface is
``interior_flat`` and ``boundary_flat`` node indices, unit outward
``normals`` (zero rows inside), and the rows of the normal derivative at the
boundary nodes as ``dnu_rows``/``dnu_cols``/``dnu_vals`` triplets.

Each grid also carries one stencil table: ``stencil_cols`` (S, Pe), intp,
the node in each of the S slots of each equation node's stencil, and
``stencil_coef`` (S, E), each slot's weight in the E entries of a node's
second-derivative data (the n^2 entries of H on a box, (u'', u') radially).
``stencil_data`` forms the data; a discrete system's Jacobian rows are
``stencil_coef @ W.T`` at the same columns, W the equation's derivative with
respect to the data. Slots run in the order of the difference formulas, so
a gemm that sums in slot order (OpenBLAS's does) gives the formulas' bits
wherever every weight is a power of two.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._kernels import as_float
from .errors import ConfigError


@dataclass(frozen=True)
class Grid:
    dim: int  # ambient space dimension
    shape: tuple  # nodes per axis; (M + 1,) on a radial mesh
    mesh: object  # the mesh as a ``solve`` config gives it: M, or list(shape)
    spacings: np.ndarray = field(repr=False)  # (dim,) on a box, (1,) radially
    points: np.ndarray = field(repr=False)  # (P, dim) on a box; radially (M + 1, 1), r
    interior_flat: np.ndarray = field(repr=False)  # the equation nodes
    boundary_flat: np.ndarray = field(repr=False)  # radially [M], the rim
    normals: np.ndarray = field(repr=False)  # (P, dim) or (M + 1, 1), zero rows interior
    stencil_cols: np.ndarray = field(repr=False)  # (S, Pe); radially i + 1, i, |i - 1|
    stencil_coef: np.ndarray = field(repr=False)  # (S, E): weights of H's entries or u'', u'
    dnu_rows: np.ndarray = field(repr=False)
    dnu_cols: np.ndarray = field(repr=False)
    dnu_vals: np.ndarray = field(repr=False)

    @property
    def npoints(self):
        return self.points.shape[0]

    @property
    def h(self):
        return float(self.spacings.max())


def radial_grid(R, M, dim):
    if M < 4:
        raise ConfigError(f"radial mesh needs at least 4 intervals, got {M}")
    M, h = int(M), float(R) / M
    normals = np.zeros((M + 1, 1))
    normals[-1] = 1.0
    i = np.arange(M)
    return Grid(
        dim=dim, shape=(M + 1,), mesh=M, spacings=np.array([h]),
        points=np.linspace(0.0, R, M + 1)[:, None],
        interior_flat=i, boundary_flat=np.array([M]), normals=normals,
        # the center's mirror closure u(-h) = u(h) names node 1 in both outer slots
        stencil_cols=np.stack([i + 1, i, np.abs(i - 1)]),
        stencil_coef=np.array([[1.0, 1.0], [-2.0, 0.0], [1.0, -1.0]]) / [h * h, 2.0 * h],
        dnu_rows=np.full(3, M), dnu_cols=M - np.arange(3),
        dnu_vals=np.array([3.0, -4.0, 1.0]) / (2.0 * h),
    )


def stencil_data(grid, values):
    """Second-derivative data at the equation nodes, (Pe, E): the one gemm
    ``u[stencil_cols].T @ stencil_coef``, in the dtype of ``as_float(values)``.
    It is formed as the transpose of ``stencil_coef.T @ u[stencil_cols]``, so
    each entry's column is contiguous over the nodes; the k <= 2 lift and
    its gradient, which read H entry by entry, take about half the time on it.
    The gather is ``np.take`` on the intp table, which numpy reads as it is;
    an int32 table would be cast on every call (0.55 against 2.1 ms at 33^3)."""
    return (grid.stencil_coef.T @ np.take(as_float(values), grid.stencil_cols)).T


def radial_spectra(grid, values):
    """Hessian eigenvalue profiles at the M equation nodes (0 .. M-1), (M, 2).

    Row i holds [u'', u'/r] from the stencil data (u'', u'): the radial
    eigenvalue, and the tangential one the other dim - 1 eigenvalues share.
    At the center, where the mirror closure gives u'' = 2 (u1 - u0) / h^2,
    the tangential ratio tends to u''(0). The profiles come back in the
    dtype of ``as_float(values)``.
    """
    out = stencil_data(grid, values)
    out[0, 1] = out[0, 0]
    out[1:, 1] /= grid.points[1 : grid.mesh, 0]
    return out


def box_grid(extents, nodes):
    """Uniform lattice on an axis-aligned box centered at the origin, nodes
    per axis >= 5."""
    extents = np.asarray(extents, dtype=np.float64)
    dim = extents.size
    if np.isscalar(nodes):
        nodes = (int(nodes),) * dim
    shape = tuple(int(nc) for nc in nodes)
    if len(shape) != dim:
        raise ConfigError(f"extents has {dim} axes but mesh has {len(shape)}")
    if min(shape) < 5:
        raise ConfigError(f"box mesh needs at least 5 nodes per axis, got {shape}")
    lo = -extents / 2.0
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

    offsets, stencil_coef = _hessian_stencil(strides, spacings)
    return Grid(
        dim=dim, shape=shape, mesh=list(shape), spacings=spacings, points=points,
        interior_flat=interior_flat, boundary_flat=boundary_flat, normals=normals,
        stencil_cols=interior_flat[None, :] + offsets[:, None],
        stencil_coef=stencil_coef, dnu_rows=dnu_rows, dnu_cols=dnu_cols,
        dnu_vals=dnu_vals,
    )


# a spacing whose square overflows gets weight 0 without a warning: |x|^2 / 2
# overflows at that lattice's nodes too, so its system's boundary data is not
# finite and no solve on it goes on
@np.errstate(over="ignore")
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


def _interpolation_1d(n, nc, reach):
    """Lagrange interpolation from nc evenly spread coarse nodes to n fine
    nodes on the same interval, as a dense (n, nc) matrix. Fine node i sits
    at s = i (nc - 1) / (n - 1) in coarse units; in the coarse interval
    j = min(floor(s), nc - 2) it takes the polynomial through the coarse
    nodes max(j - reach + 1, 0) .. min(j + reach, nc - 1). ``reach`` 1 is
    linear interpolation; ``reach`` 2 is cubic inside and quadratic in the
    first and last interval, exact on quadratics everywhere, and needs
    nc >= 3. When n = 2 nc - 1 the coarse nodes are the even fine nodes, and
    every weight is a dyadic rational that comes out exactly: (1/2, 1/2)
    and (-1, 9, 9, -1) / 16 at odd nodes, (3, 6, -1) / 8 next to the ends."""
    Q = np.zeros((n, nc))
    for i, s in enumerate((np.arange(n) * (nc - 1) / (n - 1)).tolist()):
        j = min(int(s), nc - 2)
        nodes = range(max(j - reach + 1, 0), min(j + reach, nc - 1) + 1)
        for m in nodes:
            Q[i, m] = math.prod((s - l) / (m - l) for l in nodes if l != m)
    return Q


def box_coarse_shape(shape):
    """The half-resolution lattice of ``shape``, n // 2 + 1 nodes per axis
    ((n - 1) / 2 + 1 for odd n, whose coarse nodes are the even fine ones),
    or None when some axis has fewer than 5 nodes. Every box lattice
    therefore coarsens until some axis has 3 or 4 nodes."""
    shape = tuple(int(n) for n in shape)
    if min(shape) < 5:
        return None
    return tuple(n // 2 + 1 for n in shape)


def box_prolongation(shape):
    """Tensor-product linear interpolation from the half-resolution lattice.

    Returns (P, coarse_shape) with P of shape (prod(shape), prod(coarse_shape))
    in the C-order node numbering of ``box_grid``, or None when
    ``box_coarse_shape`` gives no coarse lattice. Each axis's factor is
    ``_interpolation_1d(n, nc, 1)`` in CSR, which drops its exact zeros.
    """
    coarse_shape = box_coarse_shape(shape)
    if coarse_shape is None:
        return None
    P, *rest = (
        sp.csr_matrix(_interpolation_1d(n, nc, 1)) for n, nc in zip(shape, coarse_shape)
    )
    for axis in rest:
        P = sp.kron(P, axis, format="csr")
    return P, coarse_shape


def box_cubic_interpolation(values, coarse_shape, shape):
    """Tensor-product cubic interpolation (``_interpolation_1d`` with reach
    2 along each axis in turn) of the C-order node ``values`` of the lattice
    ``coarse_shape`` to the lattice ``shape``, returned flat in its C-order
    numbering. Each axis is one product with the dense 1-D matrix, so no
    (fine, coarse) tensor matrix is built."""
    out = np.asarray(values).reshape(coarse_shape)
    for axis, (n, nc) in enumerate(zip(shape, coarse_shape)):
        Q = _interpolation_1d(n, nc, 2)
        out = np.moveaxis(np.tensordot(Q, out, axes=(1, axis)), 0, axis)
    return out.ravel()


def box_hessians(grid, values):
    """Centered discrete Hessians at the interior nodes, shape (Pi, n, n)."""
    return stencil_data(grid, values).reshape(-1, grid.dim, grid.dim)
