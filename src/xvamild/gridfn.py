"""Trilinear grid interpolant used by the solver and its diagnostics.

Values live on a tensor grid (t_nodes, x_nodes, v_nodes).  Evaluation
interpolates linearly inside the hull and extrapolates flat outside it;
callers that care about extrapolation quality track the share of queries
falling outside through the count_outside hook and typically alarm above
one percent.
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
        i = min(i, len(tn) - 2)
        w = (t - tn[i]) / (tn[i + 1] - tn[i])
        if w == 0.0:
            return self.values[i]
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def _bilinear(self, plane: np.ndarray, x, v):
        xn, vn = self.x_nodes, self.v_nodes
        xc = np.clip(x, xn[0], xn[-1])
        vc = np.clip(v, vn[0], vn[-1])
        ix = np.clip(np.searchsorted(xn, xc, side="right") - 1, 0, len(xn) - 2)
        iv = np.clip(np.searchsorted(vn, vc, side="right") - 1, 0, len(vn) - 2)
        wx = (xc - xn[ix]) / (xn[ix + 1] - xn[ix])
        wv = (vc - vn[iv]) / (vn[iv + 1] - vn[iv])
        return (
            plane[ix, iv] * (1.0 - wx) * (1.0 - wv)
            + plane[ix + 1, iv] * wx * (1.0 - wv)
            + plane[ix, iv + 1] * (1.0 - wx) * wv
            + plane[ix + 1, iv + 1] * wx * wv
        )

    def evaluate_at_time(self, t: float, x, v):
        """Interpolate at one time for vectors of (x, v)."""
        return self._bilinear(self._plane_at(float(t)), np.asarray(x), np.asarray(v))


def sup_diff(a: GridFunction, b: GridFunction) -> float:
    return float(np.max(np.abs(a.values - b.values)))


def write_grid_csv(fn: GridFunction, fileobj) -> None:
    """Rows (t, x, v, u) in node order with full float precision."""
    fileobj.write("t,x,v,u\n")
    for i, t in enumerate(fn.t_nodes):
        for j, x in enumerate(fn.x_nodes):
            for k, v in enumerate(fn.v_nodes):
                fileobj.write(
                    f"{t:.17g},{x:.17g},{v:.17g},{fn.values[i, j, k]:.17g}\n"
                )


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


def load_grid(path) -> GridFunction:
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read("header.json"))
        if header.get("kind") != "gridfunction":
            raise InvariantError(f"not a grid cache: {path}")
        arrs = {
            name: np.lib.format.read_array(io.BytesIO(zf.read(f"{name}.npy")))
            for name in ("t_nodes", "x_nodes", "v_nodes", "values")
        }
    return GridFunction(arrs["t_nodes"], arrs["x_nodes"], arrs["v_nodes"], arrs["values"])
