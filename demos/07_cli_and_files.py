"""
File formats and the command line, end to end
=============================================

Spaces, functions, and subsets persist as versioned JSON; reports are emitted
with sorted keys and a fixed layout so identical computations give identical
bytes. The CLI wraps every operation; this script drives it in-process
(each `metricweights <argv>` call is `cli.main(argv)`) and shows that the
`--workers` flag, kept for compatibility, never changes report content.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from metricweights import cli, io
from metricweights.studies import interval_space, unit_band_subset
from metricweights.weights import power_weight

root = Path(tempfile.mkdtemp(prefix="metricweights-demo-"))
print(f"working under {root}\n")

# -- persist a space, a weight, and a subset -------------------------------------

space = interval_space(32)
space_path = root / "interval.json"
io.save_space(space_path, space)
reloaded = io.load_space(space_path)
print(f"space round trip: n = {reloaded.n}, "
      f"matrices equal = {np.array_equal(reloaded.dist_matrix(), space.dist_matrix())}")

band = unit_band_subset(space)
io.save_subset(root / "band.json", band)
io.save_function(root / "w.json", power_weight(space, 0.5, ids=band), e_ids=band)

# -- run subcommands --------------------------------------------------------------

print("\n$ metricweights characteristic --subset band.json --p 2 --eps-grid 0,0.5,1")
rc = cli.main([
    "characteristic",
    "--space", str(space_path),
    "--weight", str(root / "w.json"),
    "--subset", str(root / "band.json"),
    "--p", "2",
    "--eps-grid", "0,0.5,1",
    "--out", str(root / "char"),
])
doc = json.loads((root / "char" / "characteristic.json").read_text())
print(f"  exit {rc}, scope {doc['scope']}, eps table:")
for row in doc["table"]:
    print(f"    eps {row['eps']:.1f} -> {row['value']:.6f}")

print("\n$ metricweights whitney / chains on the interior of the interval")
io.save_subset(root / "interior.json", np.arange(1, space.n - 1))
for cmd in ("whitney", "chains"):
    rc = cli.main([
        cmd,
        "--space", str(space_path),
        "--domain", str(root / "interior.json"),
        "--out", str(root / cmd),
    ])
    doc = json.loads((root / cmd / f"{cmd}.json").read_text())
    keys = sorted(doc)[:4]
    print(f"  {cmd}: exit {rc}, report keys {keys} ...")

# -- determinism across worker counts ---------------------------------------------

digests = []
for workers in (1, 2, 8):
    out = root / f"det-{workers}"
    cli.main([
        "characteristic",
        "--space", str(space_path),
        "--weight", str(root / "w.json"),
        "--subset", str(root / "band.json"),
        "--p", "2",
        "--workers", str(workers),
        "--out", str(out),
    ])
    digests.append((out / "characteristic.json").read_bytes())
print(f"\nreport bytes identical under 1/2/8 workers: "
      f"{digests[0] == digests[1] == digests[2]}")

# errors come out as machine-readable objects on stderr with a stable exit code
print("\n$ metricweights space validate --space missing.json")
rc = cli.main(["space", "validate", "--space", str(root / "missing.json")])
print(f"  exit {rc} (4 means a format/file problem; the JSON error object "
      f"went to stderr)")
