"""File formats and deterministic report emission.

Three JSON artifact kinds, all schema-versioned:

* space files: {"version": 1, "n", "metric": {"type": "matrix"|"graph", ...},
  "mu", "meta"}; graph metrics resolve to all-pairs shortest-path distances
  at load time;
* function files: {"version": 1, "domain": "X"|"E", "E": [ids]?, "values"};
* subset files: {"version": 1, "ids": [...]}.

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

from .errors import GraphDisconnected, ParseError, SizeOverflow, VersionMismatch
from .space import DENSE_CAP, MetricMeasureSpace, _symmetric_csr

FORMAT_VERSION = 1


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json sees builtin types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _check_version(doc: dict, path: str) -> None:
    found = doc.get("version")
    if found != FORMAT_VERSION:
        raise VersionMismatch(found, FORMAT_VERSION)


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return doc


def _field(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    return doc[key]


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
            edges.append((int(edge[0]), int(edge[1]), float(edge[2])))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: edges[{i}] must hold two ids and a length") from exc
    for u, v, ln in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"{path}: edge endpoint out of range: {(u, v)}")
        if ln <= 0:
            raise ParseError(f"{path}: edge length must be positive: {(u, v, ln)}")
    return edges


# -- space files --------------------------------------------------------------------


def space_to_dict(space: MetricMeasureSpace) -> dict:
    """Space file content: dense matrix when small, else the edge graph.

    The matrix variant keeps the edge graph as an optional extra key, so a
    round trip preserves every numeric field of the space.
    """
    if space.n <= DENSE_CAP:
        metric = {"type": "matrix", "data": _plain(space.dist_matrix())}
        if space.edges:
            metric["edges"] = _plain(space.edges)
    elif space.edges:
        metric = {"type": "graph", "edges": _plain(space.edges)}
    else:
        raise SizeOverflow(
            f"space with {space.n} points needs an edge graph to be saved"
        )
    return {
        "version": FORMAT_VERSION,
        "n": space.n,
        "metric": metric,
        "mu": _plain(space.mu),
        "meta": space.meta,
    }


def save_space(path, space: MetricMeasureSpace) -> None:
    Path(path).write_text(json.dumps(space_to_dict(space), sort_keys=True) + "\n")


def load_space(path) -> MetricMeasureSpace:
    doc = _load_json(path)
    _check_version(doc, path)
    n = _field(doc, "n", path)
    if not isinstance(n, int) or n < 1:
        raise ParseError(f"{path}: field 'n' must be a positive integer")
    mu = np.asarray(_field(doc, "mu", path), dtype=float)
    if mu.shape != (n,):
        raise ParseError(f"{path}: field 'mu' must have length {n}")
    metric = _field(doc, "metric", path)
    if not isinstance(metric, dict) or "type" not in metric:
        raise ParseError(f"{path}: field 'metric' must be an object with a type")
    meta = doc.get("meta", "")

    if metric["type"] == "matrix":
        data = np.asarray(_field(metric, "data", path), dtype=float)
        if data.shape != (n, n):
            raise ParseError(f"{path}: metric data must be an {n}x{n} matrix")
        edges = _parse_edges(metric.get("edges"), n, path)
        return MetricMeasureSpace(mu=mu, dist=data, edges=edges, meta=meta)
    if metric["type"] == "graph":
        if n > DENSE_CAP:
            raise SizeOverflow(
                f"graph space with {n} points exceeds the dense materialization cap"
            )
        edges = _parse_edges(_field(metric, "edges", path), n, path)
        if not edges:
            raise ParseError(f"{path}: graph metric needs a nonempty edge list")
        dist = shortest_path(_symmetric_csr(n, *zip(*edges)), method="D")
        if not np.isfinite(dist).all():
            raise GraphDisconnected("graph metric requires a connected edge graph")
        return MetricMeasureSpace(mu=mu, dist=dist, edges=edges, meta=meta)
    raise ParseError(f"{path}: unknown metric type {metric['type']!r}")


# -- function and subset files --------------------------------------------------------


def function_to_dict(values: np.ndarray, e_ids: np.ndarray | None = None) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "domain": "X" if e_ids is None else "E",
        "values": _plain(np.asarray(values, dtype=float)),
    }
    if e_ids is not None:
        doc["E"] = _plain(np.asarray(e_ids, dtype=np.intp))
    return doc


def save_function(path, values: np.ndarray, e_ids: np.ndarray | None = None) -> None:
    Path(path).write_text(json.dumps(function_to_dict(values, e_ids), sort_keys=True) + "\n")


def load_function(path) -> tuple[np.ndarray | None, np.ndarray]:
    """Returns (ids or None for domain X, values aligned to ascending ids)."""
    doc = _load_json(path)
    _check_version(doc, path)
    values = np.asarray(_field(doc, "values", path), dtype=float)
    domain = _field(doc, "domain", path)
    if domain == "X":
        return None, values
    if domain == "E":
        ids = np.asarray(_field(doc, "E", path), dtype=np.intp)
        if ids.shape != values.shape:
            raise ParseError(f"{path}: 'E' and 'values' lengths differ")
        if np.unique(ids).size != ids.size:
            raise ParseError(f"{path}: 'E' contains repeated ids")
        order = np.argsort(ids)
        return ids[order], values[order]
    raise ParseError(f"{path}: field 'domain' must be 'X' or 'E'")


def save_subset(path, ids) -> None:
    doc = {"version": FORMAT_VERSION, "ids": _plain(np.asarray(ids, dtype=np.intp))}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_subset(path) -> np.ndarray:
    doc = _load_json(path)
    _check_version(doc, path)
    ids = np.asarray(_field(doc, "ids", path), dtype=np.intp)
    if np.unique(ids).size != ids.size:
        raise ParseError(f"{path}: 'ids' contains repeated ids")
    return np.sort(ids)


# -- reports ---------------------------------------------------------------------------


def report_bytes(payload: dict) -> bytes:
    """Deterministic JSON encoding used for golden-file comparison."""
    return (json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n").encode()


def write_report(out_dir, name: str, payload: dict, meta: dict | None = None) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / f"{name}.json"
    target.write_bytes(report_bytes(payload))
    side = {
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "host": platform.node(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if meta:
        side.update(_plain(meta))
    (out / f"{name}.meta.json").write_text(json.dumps(side, sort_keys=True, indent=2) + "\n")
    return target


def write_csv(path, rows: list[dict]) -> None:
    """Plot series: one column per report field, lists JSON-encoded in cells."""
    rows = [_plain(r) for r in rows]
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
                    json.dumps(row.get(c)) if isinstance(row.get(c), (list, dict))
                    else row.get(c)
                    for c in columns
                ]
            )
