import itertools
import math
import random

import numpy as np
import pytest
import scipy.integrate

from quiltlab import fields as fl
from quiltlab import mating as mt
from quiltlab import quilt as qt
from quiltlab.errors import (
    Disconnected,
    FieldsError,
    NegativeChi,
    NotOrthogonal,
)

from helpers import n2_builders, star_graph_with_boundary


def test_c_sle_values():
    assert fl.c_sle(2.0) == pytest.approx(-2.0, abs=1e-12)
    assert fl.c_sle(4.0) == pytest.approx(1.0, abs=1e-12)
    assert fl.c_sle(8.0) == pytest.approx(-2.0, abs=1e-12)


def test_c_sle_duality():
    rnd = random.Random(0)
    for _ in range(50):
        k = rnd.uniform(0.1, 20.0)
        assert fl.c_sle(k) == pytest.approx(fl.c_sle(16.0 / k), abs=1e-12)


def test_chi_round_trip():
    for c in (-5.0, -2.0, 0.0, 0.5, 1.0):
        chi = fl.chi_of_charge(c)
        assert 1.0 - 6.0 * chi * chi == pytest.approx(c, abs=1e-12)
    with pytest.raises(FieldsError):
        fl.chi_of_charge(1.5)


def test_charge_sum_26():
    gamma = math.sqrt(8.0 / 3.0)
    cl = fl.Coupling.liouville(gamma)
    assert cl.c == pytest.approx(26.0, abs=1e-9)
    assert fl.charge_sum_check([cl, fl.Coupling.sle(8.0 / 3.0)])
    # algebraic split
    assert fl.charge_sum_check([25.5, 0.5])
    assert not fl.charge_sum_check([27.0, 0.0])


def test_liouville_q_round_trip():
    cl = fl.Coupling.liouville(1.2)
    q = cl.q
    assert 1.0 + 6.0 * q * q == pytest.approx(cl.c, abs=1e-12)


def test_grid_laplacian_l3():
    lap = fl.grid_dirichlet_laplacian(3)
    assert lap.shape == (1, 1) and lap[0, 0] == 4.0


@pytest.mark.parametrize("L", [3, 4, 5, 8, 16])
def test_spectral_kernel_covariance_is_inverse_laplacian(L):
    k = (L - 2) ** 2
    rows = fl._spectral_gff(L, np.eye(k))  # one row per unit coefficient
    oracle = np.linalg.inv(fl.grid_dirichlet_laplacian(L))
    assert np.max(np.abs(rows.T @ rows - oracle)) < 1e-12


def test_sample_gff_draws_one_normal_per_site():
    with pytest.raises(FieldsError):
        fl.sample_gff(2, 1, 0)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    fv = fl.sample_gff(6, 3, None, rng=rng)
    ref.standard_normal((3, 16))
    assert fv.values.shape == (3, 16)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_gff_single_vertex_variance(rng):
    fv = fl.sample_gff(3, 1, None, rng=rng)
    draws = np.array([
        fl.sample_gff(3, 1, None, rng=rng).values[0, 0] for _ in range(4000)
    ])
    var = float(np.var(draws))
    # L=3: variance is exactly 1/4 under the 4-regular convention
    assert abs(var - 0.25) < 5 * 0.25 * math.sqrt(2.0 / 4000)


def test_gff_covariance_matches_inverse_laplacian(rng):
    L = 5
    draws = fl.sample_gff_batch(L, 1, 6000, rng)[:, 0, :]
    emp = draws.T @ draws / len(draws)
    oracle = np.linalg.inv(fl.grid_dirichlet_laplacian(L))
    stderr = np.sqrt(
        (np.outer(np.diag(oracle), np.diag(oracle)) + oracle**2) / len(draws)
    )
    assert float(np.max(np.abs(emp - oracle) / stderr)) < 5.5


def test_gff_fields_independent(rng):
    draws = fl.sample_gff_batch(4, 2, 6000, rng)
    cross = np.einsum("si,sj->ij", draws[:, 0, :], draws[:, 1, :]) / len(draws)
    assert float(np.max(np.abs(cross))) < 4.0 / math.sqrt(len(draws))


def test_rotate_identity(rng):
    fv = fl.sample_gff(4, 2, None, rng=rng, charges=[0.0, 1.0])
    out = fl.rotate_fields(fv, np.eye(2))
    assert np.allclose(out.values, fv.values)
    assert np.allclose(out.charges, fv.charges)


def test_rotate_zero_chi_fixed(rng):
    fv = fl.sample_gff(4, 2, None, rng=rng, charges=[1.0, 1.0])
    angle = 1.1
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    out = fl.rotate_fields(fv, rot)
    assert np.allclose(out.charges, [1.0, 1.0], atol=1e-12)


def test_rotate_to_axis(rng):
    # rotating (chi1, chi2) onto (|chi|, 0) concentrates the charge deficit
    chi = np.array([0.5, 0.3])
    norm = float(np.linalg.norm(chi))
    c = 1.0 - 6.0 * chi**2
    fv = fl.sample_gff(4, 2, None, rng=rng, charges=c)
    cos, sin = chi[0] / norm, chi[1] / norm
    rot = np.array([[cos, sin], [-sin, cos]])
    out = fl.rotate_fields(fv, rot)
    assert out.charges[0] == pytest.approx(1.0 - 6.0 * norm**2, abs=1e-12)
    assert out.charges[1] == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(out.charges)) == pytest.approx(float(np.sum(c)), abs=1e-12)


def test_charge_conservation_1000_rotations(rng):
    drift = 0.0
    for _ in range(1000):
        a = fl.random_orthogonal(3, rng)
        fv = fl.FieldVector(grid=3, values=np.zeros((3, 1)),
                            charges=np.array([-2.0, 0.4, 1.0]))
        out = fl.rotate_fields(fv, a, interpret_charges=False)
        drift = max(drift, abs(float(out.charges.sum() - fv.charges.sum())))
    assert drift < 1e-12


def test_rotation_involution_values(rng):
    fv = fl.sample_gff(5, 3, None, rng=rng, charges=[0.0, 0.5, 1.0])
    a = fl.random_orthogonal(3, rng)
    back = fl.rotate_fields(
        fl.rotate_fields(fv, a, interpret_charges=False), a.T,
        interpret_charges=False,
    )
    assert np.max(np.abs(back.values - fv.values)) < 1e-12


def test_rotation_involution_charges_when_chi_stays_positive(rng):
    # charges forget the sign of chi, so the charge involution only makes
    # sense when both legs keep the coupling vector nonnegative
    fv = fl.sample_gff(4, 2, None, rng=rng, charges=[0.4, 0.4])
    angle = 0.2
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    back = fl.rotate_fields(fl.rotate_fields(fv, rot), rot.T)
    assert np.max(np.abs(back.values - fv.values)) < 1e-12
    assert np.max(np.abs(back.charges - fv.charges)) < 1e-12


def test_negative_chi_gate():
    fv = fl.FieldVector(grid=3, values=np.zeros((2, 1)),
                        charges=np.array([-2.0, 1.0]))
    flip = np.array([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NegativeChi):
        fl.rotate_fields(fv, flip)
    out = fl.rotate_fields(fv, flip, interpret_charges=False)
    assert out.charges[0] == pytest.approx(-2.0)  # c = 1 - 6 chi^2 sign-blind


def test_not_orthogonal_rejected():
    fv = fl.FieldVector(grid=3, values=np.zeros((2, 1)),
                        charges=np.array([1.0, 1.0]))
    with pytest.raises(NotOrthogonal):
        fl.rotate_fields(fv, np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_nan_matrix_is_not_orthogonal():
    with pytest.raises(NotOrthogonal):
        fl.check_orthogonal(np.full((2, 2), np.nan))


def test_rotation_independence_report():
    angle = math.pi / 4
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    rep = fl.rotation_independence_test(8, rot, 4000, seed=2)
    assert rep.max_cross_z < 5.0
    assert rep.max_marginal_dev_stderr < 6.0
    assert rep.charge_sum_drift < 1e-12


@pytest.mark.parametrize("samples", [0, -1])
def test_rotation_test_refuses_fewer_than_one_sample(samples):
    with pytest.raises(FieldsError, match="at least one sample"):
        fl.rotation_independence_test(4, np.eye(2), samples, seed=0)


ROT45 = np.array([[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
                  [math.sin(math.pi / 4), math.cos(math.pi / 4)]])


def test_rotation_check_passes_at_every_seed():
    # family-wise false-alarm rates 6.3e-5 (cross) and 5.7e-7 (marginal)
    for seed in range(30):
        rep = fl.rotation_independence_test(8, ROT45, 2000, seed)
        assert rep.max_cross_z < 4.0 and rep.max_marginal_dev_stderr < 5.0, seed


@pytest.mark.parametrize("A, failing", [
    (np.eye(2), "max_cross_z"),
    (ROT45, "max_marginal_dev_stderr"),
])
def test_rotation_check_catches_correlated_fields(monkeypatch, A, failing):
    rho = 0.1
    sample = fl.sample_gff_batch

    def correlated(L, n, samples, rng):
        draws = sample(L, n, samples, rng)
        draws[:, 1] = rho * draws[:, 0] + math.sqrt(1 - rho**2) * draws[:, 1]
        return draws

    monkeypatch.setattr(fl, "sample_gff_batch", correlated)
    rep = fl.rotation_independence_test(16, A, 10_000, seed=2)
    threshold = {"max_cross_z": 4.0, "max_marginal_dev_stderr": 5.0}[failing]
    assert getattr(rep, failing) >= threshold


# --- matrix-tree --------------------------------------------------------------------


def test_spanning_trees_k3_path_k4():
    k3 = fl.Graph(n=3, edges=((0, 1), (1, 2), (0, 2)))
    p4 = fl.Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
    k4 = fl.Graph(n=4, edges=tuple(itertools.combinations(range(4), 2)))
    assert fl.spanning_tree_count(k3) == 3
    assert fl.spanning_tree_count(p4) == 1
    assert fl.spanning_tree_count(k4) == 16  # Cayley: 4^2


def test_matrix_tree_vs_brute_force_all_small_graphs():
    rnd = random.Random(1)
    checked = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(30):
            k = rnd.randrange(n - 1, len(pairs) + 1)
            g = fl.Graph(n=n, edges=tuple(rnd.sample(pairs, k)))
            if not g.is_connected():
                continue
            assert fl.spanning_tree_count(g) == fl.spanning_trees_brute_force(g)
            checked += 1
    assert checked > 60


def test_disconnected_rejected():
    g = fl.Graph(n=4, edges=((0, 1), (2, 3)))
    with pytest.raises(Disconnected):
        fl.spanning_tree_count(g)


def test_bareiss_exactness():
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert fl.bareiss_determinant(m) == 4
    assert fl.bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert fl.bareiss_determinant([[1, 2], [2, 4]]) == 0


def _dense_bareiss(matrix):
    """Reference: the dense Bareiss loop, every row and column updated."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_bareiss_matches_dense_oracle_on_random_matrices():
    rng = np.random.default_rng(0)
    swaps = 0
    for i in range(2000):
        n = int(rng.integers(1, 9))
        if i % 2:
            m = (rng.random((n, n)) < rng.uniform(0.1, 0.6)).astype(int)
        else:
            m = rng.integers(-3, 4, size=(n, n))
            m[rng.random((n, n)) < 0.4] = 0
        if i % 5 == 0 and n > 1:
            m[0, 0] = 0  # a zero first pivot: a row swap or a zero column
        rows = m.tolist()
        swaps += rows[0][0] == 0 and any(r[0] for r in rows[1:])
        assert fl.bareiss_determinant(rows) == _dense_bareiss(rows) == round(np.linalg.det(m))
    assert swaps > 100


def test_bareiss_matches_dense_oracle_on_reduced_laplacians():
    rnd = random.Random(3)
    graphs = [fl.grid_graph(L) for L in (3, 4, 5, 6)]
    graphs += [star_graph_with_boundary(k) for k in (3, 4, 6)]
    for n in range(2, 12):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(20):
            g = fl.Graph(n=n, edges=tuple(rnd.sample(pairs, rnd.randrange(n - 1, len(pairs) + 1))))
            if g.is_connected():
                graphs.append(g)
    for g in graphs:
        m = fl.reduced_laplacian(g, 0)
        assert fl.bareiss_determinant(m) == _dense_bareiss(m)
    assert len(graphs) > 150


def test_bareiss_matches_dense_oracle_on_quilt_side_length_maps(monkeypatch):
    # the side-length matrices of 1,000 quilts at the criterion-7 parameters
    matrices = []
    exact = qt.bareiss_determinant

    def recorded(matrix):
        matrices.append([list(row) for row in matrix])
        return exact(matrix)

    monkeypatch.setattr(qt, "bareiss_determinant", recorded)
    p = mt.mot_params(math.sqrt(2), 0.15, 64, 5)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        qt.side_length_map_determinant(mt.simulate_discretized_disk(p, rng=rng).quilt.template)
    assert len(matrices) == 1000
    for m in matrices:
        assert fl.bareiss_determinant(m) == _dense_bareiss(m)


NONZERO = (-3, -2, -1, 1, 2, 3)


def _planted_unit_lines(rng, k, pairs):
    """A random integer matrix whose expansion along unit lines stops at a
    dense k x k core, after ``pairs`` planted unit rows and columns of signed
    values; its rows and columns are then permuted at random.

    In planted order, pair t is a unit row (zeros right of (t, t)) or a
    unit column (zeros below it) of the matrix left once pairs 0..t-1 are
    expanded; every other entry is a random sparse value, and the core's
    entries are all nonzero, so no core line is a unit line.
    """
    n = pairs + k
    m = rng.integers(-3, 4, size=(n, n)) * (rng.random((n, n)) < 0.5)
    for t in range(pairs):
        if rng.random() < 0.5:
            m[t, t + 1:] = 0
        else:
            m[t + 1:, t] = 0
        m[t, t] = rng.choice(NONZERO)
    m[pairs:, pairs:] = rng.choice(NONZERO, size=(k, k))
    return m[rng.permutation(n)][:, rng.permutation(n)]


def test_unit_line_expansion_matches_dense_oracle():
    rng = np.random.default_rng(23)
    negative = 0
    for _ in range(1500):
        k, pairs = int(rng.integers(2, 5)), int(rng.integers(1, 7))
        m = _planted_unit_lines(rng, k, pairs)
        rows = m.tolist()
        factor, core_r, core_c = fl._expand_unit_lines(rows)
        assert len(core_r) == len(core_c) == k
        want = _dense_bareiss(rows)
        assert factor * _dense_bareiss([[rows[r][c] for c in core_c] for r in core_r]) == want
        assert fl.bareiss_determinant(rows) == want == round(np.linalg.det(m))
        negative += want < 0
    assert negative > 300


def test_unit_line_expansion_finds_zero_lines():
    rng = np.random.default_rng(29)
    for i in range(400):
        m = _planted_unit_lines(rng, int(rng.integers(2, 5)), int(rng.integers(1, 7)))
        line = int(rng.integers(len(m)))
        if i % 2:
            m[line, :] = 0
        else:
            m[:, line] = 0
        rows = m.tolist()
        assert fl._expand_unit_lines(rows)[0] == 0
        assert fl.bareiss_determinant(rows) == _dense_bareiss(rows) == 0


def test_unit_line_expansion_empties_side_length_maps(monkeypatch):
    matrices = []
    exact = qt.bareiss_determinant

    def recorded(matrix):
        matrices.append(matrix)
        return exact(matrix)

    monkeypatch.setattr(qt, "bareiss_determinant", recorded)
    for b in n2_builders():
        qt.side_length_map_determinant(b.build()[0])
    p = mt.mot_params(math.sqrt(2), 0.15, 64, 13)
    rng = np.random.default_rng(13)
    for _ in range(200):
        qt.side_length_map_determinant(mt.simulate_discretized_disk(p, rng=rng).quilt.template)
    assert len(matrices) == 210
    for m in matrices:
        factor, core_r, core_c = fl._expand_unit_lines(m)
        assert abs(factor) == 1 and core_r == core_c == []


# --- Gaussian partition identity ------------------------------------------------------


def test_partition_identity_star4_quadrature_oracle():
    g = star_graph_with_boundary(4)
    rep = fl.gaussian_partition_identity(g)
    assert rep.det_exact == 4
    # independent oracle: numerically integrate exp(-4 x^2)
    integral, _ = scipy.integrate.quad(lambda x: math.exp(-4 * x * x), -20, 20)
    assert integral == pytest.approx(math.sqrt(math.pi / 4.0), rel=1e-10)
    assert integral**2 * rep.det_exact == pytest.approx(math.pi, rel=1e-9)
    assert rep.residual < 1e-12


def test_partition_identity_two_vertex_quadrature():
    # path boundary-0-1-boundary: interior 2x2 block
    g = fl.Graph(n=4, edges=((0, 1), (1, 2), (2, 3)), boundary=frozenset({0, 3}))
    rep = fl.gaussian_partition_identity(g)

    def integrand(y, x):
        return math.exp(-(x * x + (x - y) ** 2 + y * y))

    integral, _ = scipy.integrate.dblquad(integrand, -12, 12, -12, 12)
    assert integral**2 * rep.det_exact == pytest.approx(math.pi**2, rel=1e-8)
    assert rep.residual < 1e-12


def test_partition_identity_grids():
    for L in (3, 4, 5, 6):
        rep = fl.gaussian_partition_identity(fl.grid_graph(L))
        assert rep.residual < 1e-10
        assert rep.interior_count == (L - 2) ** 2


def test_partition_identity_disjoint_boundary_component():
    g = star_graph_with_boundary(4)
    bigger = fl.Graph(
        n=g.n + 2,
        edges=g.edges + ((g.n, g.n + 1),),
        boundary=frozenset(g.boundary | {g.n, g.n + 1}),
    )
    assert (
        fl.gaussian_partition_identity(bigger).residual
        == fl.gaussian_partition_identity(g).residual
    )


def test_graph_file_round_trip():
    g = fl.Graph(n=4, edges=((0, 1), (1, 2), (2, 3)), boundary=frozenset({0, 3}))
    text = fl.dump_graph(g)
    again = fl.load_graph(text)
    assert again == g
