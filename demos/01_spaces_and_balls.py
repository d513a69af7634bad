"""
Finite metric measure spaces and their canonical balls
======================================================

A space is a finite point set with a metric, positive point masses, and an
optional edge graph. Balls use strict inequality, so around each center the
distinct distances cut out a finite family of member sets; enumerating one
representative radius per member set is what makes every "sup over all balls"
in this package an exact finite maximum.
"""

import numpy as np

from metricweights import (
    build_grid_space,
    canonical_balls,
    doubling_constant,
    space_from_matrix,
    validate_space,
)

# -- a space from an explicit distance matrix --------------------------------

dist = np.array(
    [
        [0.0, 1.0, 3.0],
        [1.0, 0.0, 2.0],
        [3.0, 2.0, 0.0],
    ]
)
mu = np.array([1.0, 2.0, 1.0])
s3 = space_from_matrix(dist, mu, meta="three points on a line")
report = validate_space(s3)
print(f"matrix space: n={s3.n}, total mass={s3.mu.sum()}, valid={report.ok}")

# -- canonical enumeration around one center ----------------------------------

# Each radius is the smallest float whose strict ball is that member set,
# the float just above the distance that closes the ball. Members are
# listed nearest first, ties by id.
balls = canonical_balls(s3, center=0)
print(f"center 0 has {len(balls)} canonical balls:")
for radius, members in balls:
    print(f"  radius {radius!r} -> members {members.tolist()}")

# -- grids and the doubling constant ------------------------------------------

# Lattice points carry mass spacing**dim, so the measure is the volume
# surrogate and the doubling constant stays bounded as the grid refines.
for side in (8, 16, 32):
    grid = build_grid_space(2, side, 1.0 / (side - 1))
    print(
        f"2-D grid side {side:3d}: n={grid.n:5d}, "
        f"doubling constant {doubling_constant(grid):.3f}"
    )
