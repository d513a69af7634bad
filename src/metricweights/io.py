"""File formats and deterministic report emission.

Three JSON artifact kinds, all schema-versioned:

* space files: {"version": 1, "n", "metric": {"type": "coords"|"matrix"|"graph",
  ...}, "mu", "meta"}. A "coords" metric holds the n x dim coordinates of a
  Euclidean space and loads on the coordinate backend, at any size; a
  "matrix" metric holds the n x n distance matrix; a "graph" metric holds
  only edges and resolves to all-pairs shortest-path distances at load
  time. Every metric may carry "edges". save_space writes "coords" when the
  space has coordinates and "matrix" otherwise;
* function files: {"version": 1, "domain": "X"|"E", "E": [ids]?, "values"};
* subset files: {"version": 1, "ids": [...]}.

Loaders accept only finite numbers (a string such as "1" or a boolean is
refused, not cast), coordinates whose distances are finite too, and ids by
space.point_ids's rule; anything else is a ParseError. Known limit: numpy
casts a boolean among numbers ([true, 2, 3]) before any check can see it.
A space file whose masses are not all positive fails with NonpositiveMass.

Reports are written as two files: <name>.json holds only deterministic
content (sorted keys, stable float repr), <name>.meta.json holds timestamps
and host details so golden-file comparisons can ignore them.
"""

from __future__ import annotations

import csv
import datetime
import json
import platform
import sys
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .errors import (
    FormatError,
    GraphDisconnected,
    NonpositiveMass,
    ParseError,
    SizeOverflow,
    VersionMismatch,
)
from .space import DENSE_CAP, MetricMeasureSpace, _symmetric_csr, coords_in_range, point_ids

FORMAT_VERSION = 1


def _builtin(obj):
    """json's hook for numpy arrays and scalars: their builtin equivalents."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(doc, **kwargs) -> str:
    """Every writer's json.dumps: numpy values in, NaN and inf refused."""
    try:
        return json.dumps(doc, allow_nan=False, default=_builtin, **kwargs)
    except ValueError as exc:
        raise FormatError(f"refusing to write a non-finite number: {exc}") from exc


def _load_json(path) -> dict:
    """A file's top-level JSON object, of format version FORMAT_VERSION."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise VersionMismatch(doc.get("version"), FORMAT_VERSION)
    return doc


def _field(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    return doc[key]


def _finite(doc: dict, key: str, path) -> np.ndarray:
    """A field as a float array, every entry a finite number."""
    try:
        values = np.asarray(_field(doc, key, path))
        if values.dtype.kind in "bU":  # a float cast would read "1" and true as numbers
            raise TypeError(values.dtype)
        values = values.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: field {key!r} must hold numbers") from exc
    finite = np.isfinite(values)
    if not finite.all():
        at = np.argwhere(~finite)[0].tolist()
        raise ParseError(f"{path}: field {key!r} holds {values[tuple(at)]} at {at}")
    return values


def _ids(doc: dict, key: str, path) -> np.ndarray:
    """A field as a 1-d array of distinct point ids (space.point_ids), in file order."""
    bad = ParseError(f"{path}: field {key!r} must be a list of integer ids")
    try:
        ids = point_ids(np.asarray(_field(doc, key, path)), None, key)
    except ValueError as exc:  # InvalidParameter, or a ragged list such as [2, [3], 4]
        raise bad from exc
    with np.errstate(invalid="ignore"):  # an id beyond intp must not wrap around
        if ids.ndim != 1 or (ids.astype(np.intp) != ids).any():
            raise bad
    if np.unique(ids).size != ids.size:
        raise ParseError(f"{path}: {key!r} contains repeated ids")
    return ids.astype(np.intp)


def _parse_edges(raw, n: int, path) -> list[tuple[int, int, float]] | None:
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ParseError(f"{path}: field 'edges' must be a list")
    edges = []
    for i, edge in enumerate(raw):
        if not isinstance(edge, list) or len(edge) != 3:
            raise ParseError(f"{path}: edges[{i}] must be a [u, v, length] triple")
        try:
            if any(type(x) not in (int, float) for x in edge):  # json's numbers; not "1" or true
                raise TypeError(edge)
            u, v = int(edge[0]), int(edge[1])
            edges.append((u, v, float(edge[2])))
        except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ParseError(f"{path}: edges[{i}] must hold two ids and a length") from exc
        if (u, v) != (edge[0], edge[1]):
            raise ParseError(f"{path}: edges[{i}] ids must be integers: {edge[:2]}")
    for u, v, ln in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"{path}: edge endpoint out of range: {(u, v)}")
        if not 0 < ln < np.inf:
            raise ParseError(f"{path}: edge length must be positive and finite: {(u, v, ln)}")
    return edges


# -- space files --------------------------------------------------------------------


def space_to_dict(space: MetricMeasureSpace) -> dict:
    """Space file content: the coordinates or the distance matrix, and the
    edge graph if any.

    A space with coordinates is written as them, so the file stays small
    and loads on the coordinate backend; both backends decide balls with
    the dist_row formula, so the loaded space answers every query as the
    original does. Other spaces are written as their matrix, which
    load_space reads only up to DENSE_CAP points, so a larger one has no
    file form. Keeping the edge graph as an extra key makes a round trip
    preserve every numeric field of the space.
    """
    if space.coords is not None:
        metric = {"type": "coords", "data": space.coords.tolist()}
    elif space.n > DENSE_CAP:
        raise SizeOverflow(
            f"space files hold a distance matrix of at most {DENSE_CAP} points, "
            f"got {space.n}"
        )
    else:
        metric = {"type": "matrix", "data": space.dist_matrix().tolist()}
    edges = space.edges
    if edges:
        metric["edges"] = [list(edge) for edge in edges]
    return {
        "version": FORMAT_VERSION,
        "n": space.n,
        "metric": metric,
        "mu": space.mu.tolist(),
        "meta": space.meta,
    }


def save_space(path, space: MetricMeasureSpace) -> None:
    Path(path).write_text(_dumps(space_to_dict(space), sort_keys=True) + "\n")


def load_space(path) -> MetricMeasureSpace:
    doc = _load_json(path)
    n = _field(doc, "n", path)
    if type(n) is not int or n < 1:  # not a bool either
        raise ParseError(f"{path}: field 'n' must be a positive integer")
    mu = _finite(doc, "mu", path)
    if mu.shape != (n,):
        raise ParseError(f"{path}: field 'mu' must have length {n}")
    metric = _field(doc, "metric", path)
    if not isinstance(metric, dict) or "type" not in metric:
        raise ParseError(f"{path}: field 'metric' must be an object with a type")
    meta = doc.get("meta", "")

    edges = _parse_edges(metric.get("edges"), n, path)
    if metric["type"] == "coords":
        data = _finite(metric, "data", path)
        if data.ndim != 2 or data.shape[0] != n or data.shape[1] == 0:
            raise ParseError(f"{path}: metric data must be {n} rows of coordinates")
        if not coords_in_range(data):
            raise ParseError(f"{path}: coordinates too large for finite distances")
        backend = {"coords": data}
    elif metric["type"] == "matrix":
        data = _finite(metric, "data", path)
        if data.shape != (n, n):
            raise ParseError(f"{path}: metric data must be an {n}x{n} matrix")
        backend = {"dist": data}
    elif metric["type"] == "graph":
        if n > DENSE_CAP:
            raise SizeOverflow(
                f"graph space with {n} points exceeds the dense materialization cap"
            )
        if not edges:
            raise ParseError(f"{path}: graph metric needs a nonempty edge list")
        dist = shortest_path(_symmetric_csr(n, *zip(*edges)), method="D")
        if not np.isfinite(dist).all():
            raise GraphDisconnected("graph metric requires a connected edge graph")
        backend = {"dist": dist}
    else:
        raise ParseError(f"{path}: unknown metric type {metric['type']!r}")
    bad_mass = np.flatnonzero(mu <= 0)
    if bad_mass.size:
        i = int(bad_mass[0])
        raise NonpositiveMass(f"{path}: point {i} has mass {mu[i]}, masses must be positive")
    return MetricMeasureSpace(mu=mu, edges=edges, meta=meta, **backend)


# -- function and subset files --------------------------------------------------------


def function_to_dict(values: np.ndarray, e_ids: np.ndarray | None = None) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "domain": "X" if e_ids is None else "E",
        "values": np.asarray(values, dtype=float).tolist(),
    }
    if e_ids is not None:
        doc["E"] = np.asarray(e_ids, dtype=np.intp).tolist()
    return doc


def save_function(path, values: np.ndarray, e_ids: np.ndarray | None = None) -> None:
    Path(path).write_text(_dumps(function_to_dict(values, e_ids), sort_keys=True) + "\n")


def load_function(path) -> tuple[np.ndarray | None, np.ndarray]:
    """Returns (ids or None for domain X, values aligned to ascending ids)."""
    doc = _load_json(path)
    values = _finite(doc, "values", path)
    domain = _field(doc, "domain", path)
    if domain == "X":
        return None, values
    if domain == "E":
        ids = _ids(doc, "E", path)
        if ids.shape != values.shape:
            raise ParseError(f"{path}: 'E' and 'values' lengths differ")
        order = np.argsort(ids)
        return ids[order], values[order]
    raise ParseError(f"{path}: field 'domain' must be 'X' or 'E'")


def save_subset(path, ids) -> None:
    doc = {"version": FORMAT_VERSION, "ids": np.asarray(ids, dtype=np.intp)}
    Path(path).write_text(_dumps(doc, sort_keys=True) + "\n")


def load_subset(path) -> np.ndarray:
    doc = _load_json(path)
    return np.sort(_ids(doc, "ids", path))


# -- reports ---------------------------------------------------------------------------


def report_bytes(payload: dict) -> bytes:
    """Deterministic JSON encoding used for golden-file comparison."""
    return (_dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def write_report(out_dir, name: str, payload: dict, meta: dict | None = None) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    side = {
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "host": platform.node(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    side.update(meta or {})
    # Both documents are encoded before either is written, so a refused one leaves neither.
    report, side_text = report_bytes(payload), _dumps(side, sort_keys=True, indent=2) + "\n"
    target = out / f"{name}.json"
    target.write_bytes(report)
    (out / f"{name}.meta.json").write_text(side_text)
    return target


def write_csv(path, rows: list[dict]) -> None:
    """Plot series: one column per report field, lists JSON-encoded in cells."""
    if not rows:
        Path(path).write_text("")
        return
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    _dumps(row.get(c)) if isinstance(row.get(c), (list, dict))
                    else row.get(c)
                    for c in columns
                ]
            )
