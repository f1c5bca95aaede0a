"""Trilinear grid interpolant used by the solver and its diagnostics.

Values live on a tensor grid (t_nodes, x_nodes, v_nodes).  Evaluation
interpolates linearly inside the hull and extrapolates flat outside it
(``outside`` flags such queries).  The x and v axes must be uniform, so a
query's cell and weight come from its scaled coordinate by arithmetic; the
t axis may be any increasing axis.  ``evaluate_at_time`` also reads many x
nodes at one shared shift (``rows``): the cells are found once for the
shift and each node reads its own corners of an edge-padded plane.  The
interpolation runs v first, so each x row read is interpolated in v once,
into one of two reused planes, and each node then interpolates its two x
neighbours; ``out`` takes a caller's buffer for the result.  The
package's one CSV writer, ``write_table``, writes the value grid here and
the command line's path, survival and density tables.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .volmodel import InvariantError

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


class CoverageError(RuntimeError):
    """Too many evaluation points fell outside the grid hull."""


def _check_axis(name: str, nodes: np.ndarray) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 2:
        raise InvariantError(f"{name} needs at least two nodes")
    if not np.all(np.diff(nodes) > 0.0):
        raise InvariantError(f"{name} must be strictly increasing")
    return nodes


def _check_uniform(name: str, nodes: np.ndarray) -> None:
    d = np.diff(nodes)
    if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12):
        raise InvariantError(f"{name} nodes must be uniformly spaced")


def _cells(nodes: np.ndarray, q: np.ndarray, shift: bool = False) -> tuple:
    """(cell i, weight) of queries q on a uniform axis.

    A plain query's scaled coordinate (q - nodes[0]) * cells / span is clipped to
    [0, cells].  A ``shift`` q moves away from any node: q * cells / span is
    clipped to [-cells, cells], which already carries every node past the hull
    edge it crosses.  The floor, capped one below the top of the clip by
    ``np.fmin``, is the cell and the rest the weight, so NaN keeps a NaN weight
    and never reaches the integer cast.
    """
    cells = len(nodes) - 1
    w = np.subtract(q, 0.0 if shift else nodes[0], dtype=float)
    w *= cells / (nodes[-1] - nodes[0])
    np.clip(w, -cells if shift else 0, cells, out=w)
    i = np.fmin(np.floor(w), cells - 1)
    w -= i
    return i.astype(np.intp), w


@dataclass
class GridFunction:
    """A function of (t, x, v) stored on a tensor grid."""

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    v_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t_nodes = _check_axis("t_nodes", self.t_nodes)
        self.x_nodes = _check_axis("x_nodes", self.x_nodes)
        self.v_nodes = _check_axis("v_nodes", self.v_nodes)
        _check_uniform("x", self.x_nodes)
        _check_uniform("v", self.v_nodes)
        expect = (len(self.t_nodes), len(self.x_nodes), len(self.v_nodes))
        if self.values.shape != expect:
            raise InvariantError(
                f"values shape {self.values.shape} does not match nodes {expect}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvariantError("values must be finite")

    def outside(self, x, v) -> np.ndarray:
        """Boolean mask of points outside the (x, v) hull."""
        x = np.asarray(x)
        v = np.asarray(v)
        return (
            (x < self.x_nodes[0])
            | (x > self.x_nodes[-1])
            | (v < self.v_nodes[0])
            | (v > self.v_nodes[-1])
        )

    def _plane_at(self, t: float) -> np.ndarray:
        tn = self.t_nodes
        if t <= tn[0]:
            return self.values[0]
        if t >= tn[-1]:
            return self.values[-1]
        i = int(np.searchsorted(tn, t, side="right")) - 1
        w = (t - tn[i]) / (tn[i + 1] - tn[i])
        if w == 0.0:
            return self.values[i]
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def _bilinear(self, plane: np.ndarray, x, v, rows=None, out=None):
        """Bilinear value of one time plane at (x, v), flat outside the hull.

        With ``rows``, x is a shift shared by those x nodes and the result
        gains a leading row axis: the cells and weights are found once per
        (x, v) shift, and row j reads its corners j * nv further into a
        plane padded with nx - 1 copies of each edge row, so flat
        extrapolation needs no per-element clip.  The interpolation runs v
        first: the x rows read are visited in row order, each lerped in v
        with two ``take`` calls into one of two planes, and each row then
        lerps its two x neighbours.  The upper plane of one row is the
        lower plane of the next, so a run of contiguous rows costs
        2 * (rows + 1) takes, not 4 * rows.  A plain query is row 0 of an
        unpadded plane.  ``out``, C-contiguous and of the result's shape,
        receives the result.  A row's value depends on its node and the
        shift alone, never on the other rows.  Values agree with a
        binary-search lookup to within a few ulps.
        """
        nx, nv = plane.shape
        pad = 0 if rows is None else nx - 1
        ix, wx = _cells(self.x_nodes, np.atleast_1d(x), shift=rows is not None)
        iv, wv = _cells(self.v_nodes, np.atleast_1d(v))
        flat = plane[np.clip(np.arange(-pad, nx + pad), 0, nx - 1)].ravel()
        corner = (ix + pad) * nv + iv  # node 0's lower corner in the padded plane
        at = [0] if rows is None else [int(j) for j in rows]
        ox, ov = 1.0 - wx, 1.0 - wv
        low, high, part = np.empty((3,) + corner.shape)
        if out is None:
            shape = np.broadcast_shapes(np.shape(x), np.shape(v))
            out = np.empty(shape if rows is None else (len(at),) + shape)
        res = out.reshape((len(at),) + corner.shape)  # a view, out being C-contiguous
        held = None  # the x row whose v-lerp ``high`` holds
        for r, j in enumerate(at):
            if held == j:  # the previous node's upper row is this node's lower row
                low, high = high, low
            for row, dst in ((j, low), (j + 1, high))[held == j :]:  # rows not yet lerped in v
                flat[row * nv :].take(corner, out=dst, mode="clip")
                dst *= ov
                dst += np.multiply(flat[row * nv + 1 :].take(corner, out=part, mode="clip"), wv, out=part)
            np.multiply(low, ox, out=res[r])  # then the node in x, from its two neighbours
            res[r] += np.multiply(high, wx, out=part)
            held = j + 1
        return out if out.ndim else out[()]

    def evaluate_at_time(self, t: float, x, v, rows=None, out=None):
        """Interpolate at one time for vectors of (x, v).

        With ``rows``, a list of x-node indices, x is a shift shared by those
        nodes: the value at node j is read at x_nodes[j] + x, and the result
        has a leading axis over the rows.  ``out``, an optional C-contiguous
        array of the result's shape, receives the result.
        """
        return self._bilinear(self._plane_at(float(t)), np.asarray(x), np.asarray(v), rows, out)


def sup_diff(a: GridFunction, b: GridFunction) -> float:
    return float(np.max(np.abs(a.values - b.values)))


def write_table(fileobj, header, columns) -> None:
    """CSV of equal-length columns, one row per index; every cell goes through
    ``float`` at 17 significant digits, so ints and bools print as 0, 1, 123."""
    fileobj.write(",".join(header) + "\n")
    for row in zip(*columns):
        fileobj.write(",".join(f"{float(c):.17g}" for c in row) + "\n")


def write_grid_csv(fn: GridFunction, fileobj) -> None:
    """Rows (t, x, v, u) in node order with full float precision."""
    axes = np.meshgrid(fn.t_nodes, fn.x_nodes, fn.v_nodes, indexing="ij")
    write_table(fileobj, ("t", "x", "v", "u"), [a.ravel() for a in (*axes, fn.values)])


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr))
    return buf.getvalue()


def _write_deterministic_zip(path, members: dict) -> None:
    # np.savez stamps wall-clock times into the archive; a fixed epoch keeps
    # byte-identical outputs for identical inputs.
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, payload in sorted(members.items()):
            info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, payload)


def save_grid(fn: GridFunction, path) -> None:
    _write_deterministic_zip(
        path,
        {
            "header.json": json.dumps({"kind": "gridfunction"}).encode(),
            "t_nodes.npy": _npy_bytes(fn.t_nodes),
            "x_nodes.npy": _npy_bytes(fn.x_nodes),
            "v_nodes.npy": _npy_bytes(fn.v_nodes),
            "values.npy": _npy_bytes(fn.values),
        },
    )
