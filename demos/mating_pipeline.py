"""The Poissonized mating-of-trees discretization, end to end.

A correlated two-dimensional Gaussian bridge conditioned to stay in the
quadrant stands in for the cone excursion; Poisson points cut its time
axis into cells; each cell's four boundary lengths come from increments
and running infima; and the cells assemble into a quilt whose template
satisfies the validity conditions with unit boundary length.
"""

import math

from quiltlab import mating as mt
from quiltlab import quilt as qt

p = mt.mot_params(gamma=math.sqrt(2), epsilon=0.15, steps=64, seed=7)
print(f"gamma = sqrt(2): variance {p.variance}, correlation {p.correlation:.2e}")

res = mt.simulate_discretized_disk(p)
cells = res.cells
print("cells:", cells.n_cells, "| conservation residual:",
      f"{cells.conservation_residual():.1e}")
print("provenance:", res.provenance)

template = res.quilt.template
print("template gons:", [template.k_gon(f) for f in template.face_order])
print("validity:", qt.validate_template(template).passed)
print("boundary length:", res.quilt.boundary_length())

det = qt.side_length_map_determinant(template)
print("side-length determinant:", det.det)

cal = mt.calibrate_covariance(p)
print(f"increment covariance calibration: max relative deviation "
      f"{cal.max_rel_dev:.3f}, family-wise z {cal.max_z:.2f}, passed: {cal.passed}")
