"""Rotating a vector of lattice free fields conserves the total charge.

n independent zero-boundary discrete GFFs with coupling constants chi_i
rotate, as a vector, by any orthogonal matrix into another such vector;
the central charges c_i = 1 - 6 chi_i^2 redistribute but their sum is
invariant, and the rotated fields are again independent GFFs.
"""

import math

import numpy as np

from quiltlab import fields as fl

print("central charges: c_sle(2) =", fl.c_sle(2.0),
      "| duality c_sle(3) - c_sle(16/3) =", fl.c_sle(3.0) - fl.c_sle(16 / 3))

gamma = math.sqrt(8 / 3)
total = [fl.Coupling.liouville(gamma), fl.Coupling.sle(8 / 3)]
print("c_L(sqrt(8/3)) + c_sle(8/3) = 26:", fl.charge_sum_check(total))

rng = np.random.default_rng(2)
fv = fl.sample_gff(8, 2, None, rng=rng, charges=[-2.0, 1.0])
angle = math.pi / 4
rot = np.array([[math.cos(angle), -math.sin(angle)],
                [math.sin(angle), math.cos(angle)]])
out = fl.rotate_fields(fv, rot)
print("charges before:", fv.charges, "sum", fv.charges.sum())
print("charges after: ", out.charges, "sum", out.charges.sum())

rep = fl.rotation_independence_test(16, rot, 10_000, seed=2)
print(f"independence of the rotated pair, as family-wise z-scores: "
      f"cross-covariance {rep.max_cross_z:.2f}; marginal vs inverse-Laplacian "
      f"{rep.max_marginal_dev_stderr:.2f}")

k4 = fl.Graph(n=4, edges=tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
print("spanning trees of K4 (matrix-tree):", fl.spanning_tree_count(k4))
print("partition-identity residual on the 5x5 grid:",
      fl.gaussian_partition_identity(fl.grid_graph(5)).residual)
