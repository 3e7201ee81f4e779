"""Coupling-constant arithmetic, discrete zero-boundary Gaussian fields,
orthogonal rotation of field vectors, and the lattice determinant identities.

Conventions, fixed once:

* central charges: c_sle(kappa) = 1 - 6*(2/sqrt(kappa) - sqrt(kappa)/2)^2,
  c_liouville(gamma) = 1 + 6*(2/gamma + gamma/2)^2, matter charge
  c = 1 - 6*chi^2 with chi = sqrt((1-c)/6) >= 0.
* lattice Laplacian: unnormalized combinatorial Laplacian (degree minus
  adjacency) with Dirichlet deletion of boundary rows/columns; on the grid
  every interior vertex keeps degree 4 (boundary neighbors contribute to the
  degree but are pinned to zero).  The continuum normalization constant is
  irrelevant to every identity asserted here and deliberately left arbitrary.
* GFF sampling is exact and spectral: the 2-D type-I discrete sine transform
  diagonalizes the grid Dirichlet Laplacian, so a draw is the eigenfunction
  expansion of the field with independent N(0, 1/lambda) coefficients.
  Seeded field values differ from those of the earlier dense-Cholesky
  sampler; the law and the number of normals drawn are unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Disconnected,
    FieldsError,
    NegativeChi,
    NotOrthogonal,
    ParseError,
    SingularLaplacian,
)

ORTHO_TOL = 1e-12
PARTITION_TOL = 1e-10  # the Gaussian partition identity's relative residual
# the rotation rule: family-wise z bounds (rates: rotation_independence_test), charge drift
CROSS_Z_MAX, MARGINAL_Z_MAX, CHARGE_DRIFT_TOL = 4.0, 5.0, 1e-12
# c_sle(2) = -2 and the kappa <-> 16/kappa duality, each to this rounding bound
CENTRAL_CHARGE_TOL = 1e-12


# --- coupling constants ---------------------------------------------------------

def c_sle(kappa: float) -> float:
    """Central charge of SLE_kappa; satisfies c_sle(kappa) = c_sle(16/kappa)."""
    if kappa <= 0:
        raise FieldsError(f"kappa must be positive, got {kappa}")
    x = 2.0 / math.sqrt(kappa) - math.sqrt(kappa) / 2.0
    return 1.0 - 6.0 * x * x


def c_liouville(gamma: float) -> float:
    """Liouville central charge of gamma-LQG; > 25 for gamma in (0, 2)."""
    if not 0 < gamma < 2:
        raise FieldsError(f"gamma must lie in (0, 2), got {gamma}")
    q = 2.0 / gamma + gamma / 2.0
    return 1.0 + 6.0 * q * q


def chi_of_charge(c: float) -> float:
    """chi(c) = sqrt((1-c)/6) for matter charge c <= 1."""
    if c > 1 + 1e-12:
        raise FieldsError(f"matter central charge must be <= 1, got {c}")
    return math.sqrt(max(0.0, (1.0 - c) / 6.0))


def q_of_charge(c_l: float) -> float:
    """Q(c_L) = sqrt((c_L-1)/6) for Liouville charge c_L > 25."""
    if c_l <= 25:
        raise FieldsError(f"Liouville central charge must be > 25, got {c_l}")
    return math.sqrt((c_l - 1.0) / 6.0)


@dataclass(frozen=True)
class Coupling:
    """A central charge with its coupling constant and role tag."""

    c: float
    role: str = "matter"  # matter | liouville | sle

    @property
    def chi(self):
        return chi_of_charge(self.c)

    @property
    def q(self):
        return q_of_charge(self.c)

    @classmethod
    def matter(cls, c):
        return cls(c=float(c), role="matter")

    @classmethod
    def liouville(cls, gamma):
        return cls(c=c_liouville(gamma), role="liouville")

    @classmethod
    def sle(cls, kappa):
        return cls(c=c_sle(kappa), role="sle")


def charge_sum_check(couplings, target=26.0, tol=1e-9) -> bool:
    """True iff the central charges sum to 26 within tolerance."""
    total = math.fsum(c.c if isinstance(c, Coupling) else float(c) for c in couplings)
    return abs(total - target) <= tol


# --- grid Laplacian and GFF sampling ----------------------------------------------

def _interior_side(L: int) -> int:
    if L < 3:
        raise FieldsError(f"grid size must be >= 3, got {L}")
    return L - 2


def interior_indices(L: int):
    """Interior vertices of the L x L lattice square, row-major."""
    _interior_side(L)
    return [(i, j) for i in range(1, L - 1) for j in range(1, L - 1)]


def grid_dirichlet_laplacian(L: int) -> np.ndarray:
    """Dirichlet Laplacian on the interior of the L x L grid (4-regular)."""
    interior = interior_indices(L)
    index = {v: k for k, v in enumerate(interior)}
    n = len(interior)
    lap = np.zeros((n, n))
    for (i, j), k in index.items():
        lap[k, k] = 4.0
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (i + di, j + dj)
            if nb in index:
                lap[k, index[nb]] = -1.0
    return lap


@dataclass
class FieldVector:
    """n independent zero-boundary discrete GFFs on an L x L grid.

    ``values`` has shape (n, k) with k the interior vertex count; boundary
    vertices are excluded (implicitly zero).  ``charges`` carries one matter
    central charge per field.
    """

    grid: int
    values: np.ndarray
    charges: np.ndarray

    @property
    def n_fields(self):
        return self.values.shape[0]

    @property
    def chis(self):
        return np.array([chi_of_charge(c) for c in self.charges])


def gff_sampling_factor(L: int) -> np.ndarray:
    """(L-2) x (L-2) grid of lambda_pq^(-1/2) for the Dirichlet Laplacian's
    eigenvalues lambda_pq = 4 - 2 cos(pi p/(L-1)) - 2 cos(pi q/(L-1)),
    p, q = 1..L-2; the eigenvector of (p, q) is the 2-D type-I DST mode."""
    m = _interior_side(L)
    half = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (L - 1))
    return 1.0 / np.sqrt(half[:, None] + half[None, :])


def _spectral_gff(L: int, g: np.ndarray) -> np.ndarray:
    """Map iid standard normals g (..., k) to GFF values (..., k) on the
    row-major interior: the orthonormal DST-I is its own inverse, so the
    covariance is S diag(1/lambda) S = inverse Dirichlet Laplacian."""
    import scipy.fft  # here, not at import: only GFF draws need it

    m = L - 2
    coeffs = g.reshape(*g.shape[:-1], m, m) * gff_sampling_factor(L)
    values = scipy.fft.dstn(coeffs, type=1, axes=(-2, -1), norm="ortho")
    return values.reshape(g.shape)


def sample_gff(L: int, n: int, seed, charges=None, rng=None) -> FieldVector:
    """Sample n independent zero-boundary GFFs (covariance = inverse Dirichlet
    Laplacian, in the 4-regular convention) with the exact DST-I sampler."""
    if rng is None:
        rng = np.random.default_rng(seed)
    k = _interior_side(L) ** 2
    values = _spectral_gff(L, rng.standard_normal((n, k)))
    if charges is None:
        charges = np.ones(n)
    return FieldVector(grid=L, values=values, charges=np.asarray(charges, dtype=float))


def sample_gff_batch(L: int, n: int, samples: int, rng) -> np.ndarray:
    """(samples, n, k) array of independent GFF draws."""
    k = _interior_side(L) ** 2
    return _spectral_gff(L, rng.standard_normal((samples * n, k))).reshape(samples, n, k)


# --- rotation of field vectors -----------------------------------------------------

def check_orthogonal(A: np.ndarray, tol=ORTHO_TOL):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotOrthogonal("matrix must be square")
    err = np.max(np.abs(A.T @ A - np.eye(A.shape[0])))
    if not err <= tol:  # a NaN error fails too
        raise NotOrthogonal(f"max |A^T A - I| = {err:.3e} > {tol}")
    return A


def rotate_fields(fv: FieldVector, A, interpret_charges=True) -> FieldVector:
    """Rotate the field vector and its coupling constants by an orthogonal A.

    Values rotate pointwise; the coupling vector rotates the same way and the
    new charges are c_i = 1 - 6 * chi_i^2, so the charge sum is conserved.
    A negative rotated chi is an error only under charge interpretation; the
    linear mixing of field values is always permitted.
    """
    A = check_orthogonal(np.asarray(A, dtype=float))
    if A.shape[0] != fv.n_fields:
        raise FieldsError("matrix size does not match the number of fields")
    new_chis = A @ fv.chis
    if interpret_charges and np.any(new_chis < -1e-12):
        raise NegativeChi(f"rotated chi vector {new_chis} has a negative entry")
    new_values = A @ fv.values
    new_charges = 1.0 - 6.0 * new_chis**2
    return FieldVector(grid=fv.grid, values=new_values, charges=new_charges)


@dataclass(frozen=True)
class RotationReport:
    grid: int
    n_fields: int
    samples: int
    max_cross_z: float
    max_marginal_dev_stderr: float
    charge_sum_before: float
    charge_sum_after: float

    @property
    def charge_sum_drift(self):
        return abs(self.charge_sum_after - self.charge_sum_before)

    @property
    def passed(self):
        return (self.max_cross_z < CROSS_Z_MAX and self.max_marginal_dev_stderr < MARGINAL_Z_MAX
                and self.charge_sum_drift < CHARGE_DRIFT_TOL)


_BLOCK = 1000  # draws per block: the check holds sums of products, not the draws


def _familywise_z(max_abs_z: float, entries: int) -> float:
    """Bonferroni over ``entries`` z-scores, as a z-score: the t >= 0 with
    1 - Phi(t) = entries * (1 - Phi(max_abs_z)), or 0 when that exceeds 1/2.
    Under the null P(t >= x) <= 2 (1 - Phi(x)) however the entries correlate.
    """
    import scipy.special  # here, not at import: whichever scipy module loads first costs 0.2 s

    log_tail = math.log(entries) + float(scipy.special.log_ndtr(-max_abs_z))
    return max(0.0, -float(scipy.special.ndtri_exp(min(log_tail, math.log(0.5)))))


def rotation_independence_test(L: int, A, samples: int, seed, charges=None) -> RotationReport:
    """Empirical independence/covariance check for rotated field vectors.

    Samples fields, rotates each draw by A, and compares the second moments
    of the rotated draws, entry by entry in the site basis, with the
    inverse-Laplacian oracle: (i) the cross-covariance entries between
    distinct rotated fields as z-scores, and (ii) the deviations of each
    rotated marginal covariance in estimator-stderr units.  Each is reported
    as the family-wise (Bonferroni) z-score of its largest entry over the
    entries compared, so a threshold x has a false-alarm rate of at most
    2 (1 - Phi(x)) at any grid, field count, sample count and seed: 6.3e-5 at
    4 and 5.7e-7 at 5.
    """
    if samples < 1:
        raise FieldsError(f"need at least one sample, got {samples}")
    A = check_orthogonal(np.asarray(A, dtype=float))
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    cov_oracle = np.linalg.inv(grid_dirichlet_laplacian(L))
    k = cov_oracle.shape[0]
    second = np.zeros((n * k, n * k))
    for start in range(0, samples, _BLOCK):
        draws = sample_gff_batch(L, n, min(_BLOCK, samples - start), rng)
        rotated = (A @ draws).reshape(len(draws), n * k)
        second += rotated.T @ rotated
    moments = (second / samples).reshape(n, k, n, k)
    diag = np.diag(cov_oracle)

    # cross-covariance z-scores: under independence Var(f_i(x) f_j(y)) = C_xx C_yy
    stderr = np.sqrt(np.outer(diag, diag) / samples)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    max_z = max((float(np.max(np.abs(moments[i, :, j, :]) / stderr))
                 for i, j in pairs), default=0.0)

    # marginal covariance vs oracle: Var(f(x) f(y)) = C_xx C_yy + C_xy^2;
    # each estimate is symmetric, so k(k+1)/2 of its entries are distinct
    stderr = np.sqrt((np.outer(diag, diag) + cov_oracle**2) / samples)
    max_dev = max(float(np.max(np.abs(moments[i, :, i, :] - cov_oracle) / stderr))
                  for i in range(n))

    if charges is None:
        charges = np.ones(n)
    fv = FieldVector(grid=L, values=np.zeros((n, k)),
                     charges=np.asarray(charges, float))
    rotated_fv = rotate_fields(fv, A, interpret_charges=False)
    return RotationReport(
        grid=L,
        n_fields=n,
        samples=samples,
        max_cross_z=_familywise_z(max_z, len(pairs) * k * k) if pairs else 0.0,
        max_marginal_dev_stderr=_familywise_z(max_dev, n * k * (k + 1) // 2),
        charge_sum_before=float(np.sum(fv.charges)),
        charge_sum_after=float(np.sum(rotated_fv.charges)),
    )


def random_orthogonal(n: int, rng) -> np.ndarray:
    """Orthonormalization of a Gaussian matrix (QR with sign fix)."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


# --- exact determinants and the matrix-tree theorem ---------------------------------

def _parity(perm):
    """+1 or -1, the sign of the permutation ``perm`` of 0..len-1."""
    seen = [False] * len(perm)
    sign = 1
    for s in range(len(perm)):
        k = s
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            if k != s:
                sign = -sign
    return sign


def _expand_unit_lines(m):
    """Cofactor expansion of the square matrix ``m`` along its unit lines:
    (factor, core rows, core columns) with det m = factor * det of the core,
    the submatrix left in its original order.

    While some row or column has exactly one nonzero entry, det m is that
    entry times the determinant without its row and column.  With the
    expanded pairs first and the core after them, the sign is the parity
    of the row order times that of the column order.  A row or column with
    no nonzero entry left gives factor 0.
    """
    n = len(m)
    row_nz = [set(itertools.compress(range(n), row)) for row in m]
    col_nz = [set() for _ in range(n)]
    for i, nz in enumerate(row_nz):
        for j in nz:
            col_nz[j].add(i)
    # a line is (0, row) or (1, column); an expanded line's set becomes None
    lines = (row_nz, col_nz)
    todo = [(axis, i) for axis in (0, 1) for i in range(n) if len(lines[axis][i]) <= 1]
    factor = 1
    order_r, order_c = [], []
    while todo:
        axis, i = todo.pop()
        nz = lines[axis][i]
        if nz is None:
            continue
        if not nz:
            return 0, [], []
        (j,) = nz
        r, c = (i, j) if axis == 0 else (j, i)
        factor *= int(m[r][c])
        order_r.append(r)
        order_c.append(c)
        along, across = lines[axis], lines[1 - axis]
        for k in across[j]:
            if k != i:
                along[k].discard(j)
                if len(along[k]) <= 1:
                    todo.append((axis, k))
        along[i] = across[j] = None
    core_r = [i for i in range(n) if row_nz[i] is not None]
    core_c = [j for j in range(n) if col_nz[j] is not None]
    factor *= _parity(order_r + core_r) * _parity(order_c + core_c)
    return factor, core_r, core_c


def bareiss_determinant(matrix) -> int:
    """Exact integer determinant: cofactor expansion along the rows and
    columns with one nonzero entry (:func:`_expand_unit_lines`), then
    fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968) of the
    core that expansion leaves.  On the side-length maps it leaves none.

    In the elimination, a row whose entry in the pivot column is 0 is
    skipped while the pivot equals the previous one, since the update would
    leave it unchanged; in that case the other rows are updated only in the
    pivot row's nonzero columns.  The answer is the one the dense loop
    gives on the whole matrix.
    """
    m = list(matrix)
    if any(len(row) != len(m) for row in m):
        raise FieldsError("matrix must be square")
    factor, core_r, core_c = _expand_unit_lines(m)
    if not core_r or not factor:
        return factor
    a = [[int(m[r][c]) for c in core_c] for r in core_r]
    n = len(a)
    sign = factor  # the row swaps below flip it
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
        pivot_row = a[k]
        pivot = pivot_row[k]
        same = pivot == prev
        cols = [j for j in range(k + 1, n) if pivot_row[j] or not same]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            if f or not same:
                for j in cols:
                    row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
                row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class Graph:
    """Finite undirected graph with an optional boundary vertex set."""

    n: int
    edges: tuple
    boundary: frozenset = frozenset()

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise FieldsError(f"bad edge {(u, v)}")

    @property
    def interior(self):
        return [v for v in range(self.n) if v not in self.boundary]

    def is_connected(self):
        if self.n == 0:
            return True
        adj = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


def laplacian_matrix(g: Graph):
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return lap


def reduced_laplacian(g: Graph, remove: int):
    lap = laplacian_matrix(g)
    keep = [v for v in range(g.n) if v != remove]
    return [[lap[i][j] for j in keep] for i in keep]


def dirichlet_laplacian(g: Graph):
    """Rows/columns of the boundary vertices deleted; degrees keep counting
    boundary neighbors."""
    lap = laplacian_matrix(g)
    keep = g.interior
    return [[lap[i][j] for j in keep] for i in keep]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees via the reduced-Laplacian determinant
    (matrix-tree theorem); exact integer arithmetic."""
    if g.n == 0:
        raise FieldsError("empty graph")
    if not g.is_connected():
        raise Disconnected("graph is not connected")
    if g.n == 1:
        return 1
    return bareiss_determinant(reduced_laplacian(g, 0))


def spanning_trees_brute_force(g: Graph) -> int:
    """Direct enumeration over edge subsets; cross-check for <= 6 vertices."""
    if not g.is_connected():
        raise Disconnected("graph is not connected")
    if g.n == 1:
        return 1
    count = 0
    for subset in itertools.combinations(range(len(g.edges)), g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for ei in subset:
            u, v = g.edges[ei]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


# --- Gaussian partition identity ------------------------------------------------

@dataclass(frozen=True)
class PartitionIdentityReport:
    interior_count: int
    det_exact: int
    det_float: float
    residual: float

    @property
    def passed(self):
        return self.residual < PARTITION_TOL


def gaussian_partition_identity(g: Graph) -> PartitionIdentityReport:
    """Determinant cancellation behind the lattice partition function.

    The Gaussian integral int exp(-sum_edges (phi_x - phi_y)^2) dphi over
    interior values (boundary pinned to zero) equals pi^(k/2) det(D)^(-1/2)
    for the Dirichlet Laplacian D on the k interior vertices.  Squaring and
    multiplying by the matrix-tree-style exact determinant must cancel the
    determinant, leaving pi^k; the report carries the relative residual.
    The two determinants are computed by independent routes (floating LU via
    the integral, fraction-free integer elimination for the exact one).
    """
    interior = g.interior
    k = len(interior)
    if k < 1:
        raise FieldsError("need at least one interior vertex")
    d = dirichlet_laplacian(g)
    det_exact = bareiss_determinant(d)
    if det_exact <= 0:
        raise SingularLaplacian("Dirichlet Laplacian is singular")
    sign, logdet = np.linalg.slogdet(np.asarray(d, dtype=float))
    if sign <= 0:
        raise SingularLaplacian("float determinant is not positive")
    log_integral = 0.5 * k * math.log(math.pi) - 0.5 * logdet
    # [integral]^2 * det_exact should equal pi^k
    log_resid = 2.0 * log_integral + math.log(det_exact) - k * math.log(math.pi)
    residual = abs(math.expm1(log_resid))
    return PartitionIdentityReport(
        interior_count=k,
        det_exact=det_exact,
        det_float=sign * math.exp(logdet),
        residual=residual,
    )


def grid_graph(L: int) -> Graph:
    """L x L lattice square; the outer ring is the boundary."""
    idx = {(i, j): i * L + j for i in range(L) for j in range(L)}
    edges = []
    for i in range(L):
        for j in range(L):
            if i + 1 < L:
                edges.append((idx[(i, j)], idx[(i + 1, j)]))
            if j + 1 < L:
                edges.append((idx[(i, j)], idx[(i, j + 1)]))
    boundary = frozenset(
        idx[(i, j)] for i in range(L) for j in range(L)
        if i in (0, L - 1) or j in (0, L - 1)
    )
    return Graph(n=L * L, edges=tuple(edges), boundary=boundary)


# --- graph file format ------------------------------------------------------------

def load_graph(text: str) -> Graph:
    """Parse the edge-list format: ``u v`` per edge, ``B v`` marks boundary."""
    edges = []
    boundary = set()
    max_v = -1
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        is_boundary = parts[0] == "B"
        try:
            ids = [int(x) for x in (parts[1:] if is_boundary else parts)]
        except ValueError as exc:
            raise ParseError(f"bad vertex id in line {ln!r}") from exc
        if len(ids) != (1 if is_boundary else 2) or min(ids) < 0:
            raise ParseError(f"expected 'u v' or 'B v' with ids >= 0, got {ln!r}")
        if is_boundary:
            boundary.add(ids[0])
        else:
            edges.append(tuple(ids))
        max_v = max(max_v, *ids)
    try:
        return Graph(n=max_v + 1, edges=tuple(edges), boundary=frozenset(boundary))
    except FieldsError as exc:
        raise ParseError(f"not a valid graph: {exc}") from exc


def dump_graph(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges]
    lines += [f"B {v}" for v in sorted(g.boundary)]
    return "\n".join(lines) + "\n"
