"""Linear comparison systems and certified upper bounds on the expected
number of accumulated infections.

On the expected phase indicators, with natural recovery folded into the
removal laws as Pi'_i = Pi_i - delta_i I, the comparison matrix is
oplus_i (Pi'_i)^T + (J B A) kron (u1 1^T) with weight row -Pi'_i 1.
`build_sir_system` is its one constructor: one sparse assembly from an
`EpidemicParams` and the graph's sparse adjacency, whatever the removal
laws. Plain SIR is the one-phase law Pi = 0, where M = J B A - D and
the weight row is delta; under isolation laws delta may be zero.
Whenever M is Hurwitz the accumulated-infection functional
integrates to -weight_row @ M^{-1} @ initial - sigma_I(0).

For Metzler M, Hurwitz is the same as -M being a nonsingular M-matrix,
which holds exactly when v = (-M)^{-T} (w + eps 1) is positive for any
w >= 0 and eps > 0 (Berman & Plemmons, ch. 6); such a v is also the
certificate v^T M + w < 0 that witnesses the bound, and it proves the
bound however it was found. So certification is solve, then check:
restarted GMRES solves for v, and a system counts as Hurwitz only when
that v is finite, positive and passes `verify_certificate` with half the
synthesis margin, so a "bounded" answer always carries a certificate
that checks on its own. The sparse LU of M decides only when Krylov
fails: when GMRES reaches its iteration cap or its v does not check,
the LU solves for v and the same check applies. GMRES cannot prove that
M is not Hurwitz, so every "unbounded" answer comes from the LU. Every
system, whatever its size, takes this one path.

The GMRES is this module's own `_krylov`, so a solve costs its
matrix-vector products and a few small BLAS calls a step: one
preallocated basis, classical Gram-Schmidt twice, Givens rotations on
the Hessenberg columns and the true residual at each cycle end (Saad &
Schultz, SIAM J. Sci. Stat. Comput. 7, 1986).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .graph import Graph
from .phase_type import PhaseType
from .simulator import EpidemicParams

UNBOUNDED = math.inf
DEFAULT_SLACK = 1e-6
# Fill-reducing column ordering of the LU, which runs only when the
# Krylov solve fails: minimum degree on the structure of M^T + M. On
# the Erlang(3) system of a 2000-node, 6000-edge graph its LU has about
# a seventh of the nonzeros that SuperLU's default COLAMD leaves, and
# factors about ten times faster.
_ORDERING = "MMD_AT_PLUS_A"
# Restarted GMRES, unpreconditioned (`_krylov`): a basis of _RESTART + 1
# rows, allocated once a solve, and at most _CYCLES cycles before the LU
# decides. On the plain system of a seeded 2000-node, 6000-edge graph
# with 10 infected nodes, the certificate took 12, 22, 27 and 29
# iterations at 0.5, 0.9, 0.99 and 0.999 of the epidemic threshold, and
# the tighter value solve 21, 36, 44 and 48; at 10^5 nodes and 0.999
# they took 35 and 67. The cap bounds the work wasted on a system that
# is not Hurwitz before the LU says so.
_RESTART = 50
_CYCLES = 3
# The value solve stops once the certificate's error bound on the value,
# ||v||_2 ||r||_2, is at most this times 1 + v^T initial.
_VALUE_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class ComparisonSystem:
    """Sparse Metzler matrix plus the removal-weight row and
    initial-condition column that close the accumulated-infection
    bound. `matrix` may be given dense or sparse; it is stored as a
    `scipy.sparse.csr_array`."""

    matrix: sp.csr_array
    weight_row: np.ndarray
    initial: np.ndarray
    sigma_I0: int

    def __post_init__(self):
        m = sp.csr_array(self.matrix, dtype=float)
        w = np.asarray(self.weight_row, dtype=float)
        x0 = np.asarray(self.initial, dtype=float)
        if m.shape[0] != m.shape[1] or w.shape != (m.shape[0],) \
                or x0.shape != (m.shape[0],):
            raise ValueError("inconsistent system dimensions")
        coo = m.tocoo()
        if np.any(coo.data[coo.row != coo.col] < 0):
            raise ValueError("comparison matrix must be Metzler")
        if np.any(w < 0) or np.any(x0 < 0):
            raise ValueError("weight row and initial must be nonnegative")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "weight_row", w)
        object.__setattr__(self, "initial", x0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _masked_transmission(g: Graph, infected: frozenset, beta) -> sp.csr_array:
    """J B A: row i scaled by beta_i, zero for initially infected i."""
    j = np.ones(g.node_count)
    j[list(infected)] = 0.0
    return sp.diags_array(j * beta) @ g.adjacency_sparse()


def build_sir_system(g: Graph, params: EpidemicParams) -> ComparisonSystem:
    """The comparison system of `params` checked against the graph:
    oplus_i (Pi'_i)^T + (J B A) kron (u1 1^T) with Pi'_i = Pi_i -
    delta_i I, weight row -Pi'_i 1 and initial u1 per infected node,
    from the folded (n, p, p) stack `params.folded` (p = 1 and Pi = 0
    in plain SIR)."""
    params.validate_for(g)
    folded = params.folded
    n, p, _ = folded.shape
    infected = params.initially_infected
    blocks = sp.bsr_array((folded.transpose(0, 2, 1), np.arange(n),
                           np.arange(n + 1)), shape=(n * p, n * p))
    u1_ones = np.zeros((p, p))
    u1_ones[0, :] = 1.0
    big = blocks.tocsr() + sp.kron(
        _masked_transmission(g, infected, params.beta), u1_ones, format="csr")
    x0 = np.zeros(n * p)
    x0[[i * p for i in infected]] = 1.0
    return ComparisonSystem(matrix=big, weight_row=-folded.sum(axis=2).ravel(),
                            initial=x0, sigma_I0=len(infected))


# Both names below are kept only for the benchmark tracer, which wraps
# them, until the program records its own spans (ROADMAP item 5).
build_isolation_system = build_sir_system


def isolation_system_from(g: Graph, infected, delta,
                          laws: Sequence[PhaseType],
                          beta) -> ComparisonSystem:
    """`build_sir_system` from raw per-node data and isolation laws."""
    return build_sir_system(g, EpidemicParams.build(
        g.node_count, beta, delta, infected, isolation=tuple(laws)))


# rates near the float range overflow here; a try that does only
# fails the residual test or the certificate check after it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _krylov(a, b: np.ndarray, atol: float) -> Optional[np.ndarray]:
    """x with ||b - a x||_2 <= atol from restarted GMRES, or None when
    _CYCLES cycles end above atol (Saad, Iterative Methods for Sparse
    Linear Systems, 2nd ed., ch. 6).

    The first cycle starts from x = 0, each later one from the last x,
    all on one basis of _RESTART + 1 rows. A step orthogonalizes a v_j
    against the basis by classical Gram-Schmidt applied twice, then
    Givens rotations turn the new Hessenberg column into a column of the
    triangle R and give the residual estimate |g_{j+1}|; the cycle stops
    once that is at most atol. The cycle's step solves R y = g, and the
    true residual is recomputed at its end: only that one is trusted."""
    n = b.shape[0]
    basis = np.empty((_RESTART + 1, n))
    tri = np.zeros((_RESTART, _RESTART))
    x = np.zeros(n)
    r, res = b, float(np.linalg.norm(b))
    for _ in range(_CYCLES):
        if res <= atol:
            return x
        np.divide(r, res, out=basis[0])
        g = [res] + [0.0] * _RESTART
        rotations = []
        k = 0
        for j in range(_RESTART):
            w = a @ basis[j]
            done = basis[:j + 1]
            first = done @ w
            w -= first @ done
            second = done @ w
            w -= second @ done
            col = (first + second).tolist()
            h = float(np.linalg.norm(w))
            if h:   # zero when the Krylov space is exhausted; the
                # estimate below is then exactly zero and the cycle stops
                np.divide(w, h, out=basis[j + 1])
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s * col[i])
            rho = math.hypot(col[j], h)
            if rho == 0.0:      # R singular: end on the first j columns
                break
            c, s = col[j] / rho, h / rho
            rotations.append((c, s))
            col[j] = rho
            tri[:j + 1, j] = col
            g[j], g[j + 1] = c * g[j], -s * g[j]
            k = j + 1
            if abs(g[k]) <= atol:
                break
        if k:
            x += solve_triangular(tri[:k, :k], g[:k],
                                  check_finite=False) @ basis[:k]
            r = b - a @ x
            res = float(np.linalg.norm(r))
    return x if res <= atol else None


def _factor(sys: ComparisonSystem):
    """Sparse LU of M, or None when the factor is exactly singular."""
    try:
        return spla.splu(sys.matrix.tocsc(), permc_spec=_ORDERING)
    except RuntimeError:
        return None


def _checked_lambda_bar(sys: ComparisonSystem, v: Optional[np.ndarray],
                        margin: float) -> Optional[float]:
    """lambda_bar = v^T initial - sigma_I0 + margin when v is finite and
    passes `verify_certificate` with it at margin/2, else None."""
    if v is None or not np.all(np.isfinite(v)):
        return None
    lam = float(v @ sys.initial) - sys.sigma_I0 + margin
    return lam if verify_certificate(sys, v, lam, slack=margin / 2) else None


def _certify(sys: ComparisonSystem, margin: float):
    """(v, lambda_bar, lu) with v solving v^T M = -(weight_row + margin)
    and passing `verify_certificate` at margin/2, or None when M is not
    Hurwitz. v comes from GMRES, with lu None, when it checks; otherwise
    from the LU, which alone can answer None."""
    rhs = -(sys.weight_row + margin)
    v = _krylov(sys.matrix.T, rhs, atol=margin / 4)
    lam = _checked_lambda_bar(sys, v, margin)
    if lam is not None:
        return v, lam, None
    lu = _factor(sys)
    if lu is None:
        return None
    v = lu.solve(rhs, trans="T")
    lam = _checked_lambda_bar(sys, v, margin)
    return None if lam is None else (v, lam, lu)


def is_hurwitz_metzler(m, tol: float = 1e-10) -> bool:
    """True iff the Metzler matrix (dense or sparse) has spectral
    abscissa < -tol, decided by certifying m + tol I: solve, then check,
    with the LU deciding when Krylov fails."""
    m = sp.csr_array(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    shifted = ComparisonSystem(matrix=m + tol * sp.eye_array(n),
                               weight_row=np.zeros(n), initial=np.zeros(n),
                               sigma_I0=0)
    return _certify(shifted, margin=1.0) is not None


def lambda_bound(sys: ComparisonSystem) -> float:
    """Upper bound on accumulated infections, or the UNBOUNDED marker
    (math.inf) when the comparison matrix is not Hurwitz, meaning this
    instance certifies nothing.

    The value is the linear-solve value -w^T M^{-1} x0 - sigma_I(0),
    which the verified certificate dominates; it is not the certified
    value v^T x0 - sigma_I(0) + margin itself. Mx = x0 is solved by
    GMRES to an error that the certificate bounds: 0 <= -w^T M^{-1} <=
    v^T entrywise, so the value is off by at most ||v||_2 ||r||_2 for
    residual r. The LU solves it only when it gave the certificate.
    When GMRES gave the certificate but misses its value target, the
    result is the certified value v^T x0 - sigma_I(0) + margin that
    `certificate_for` returns: an upper bound that has been checked, and
    no system of any size is factored for the value. The value is taken
    in flux form, -(1^T M + w)^T x + 1^T x0 - sigma_I(0): 1^T M + w is
    the transmission column sum, so nothing cancels against
    sigma_I(0)."""
    cert = _certify(sys, DEFAULT_SLACK)
    if cert is None:
        return UNBOUNDED
    v, lam, lu = cert
    if lu is None:
        err = _VALUE_RTOL * (1.0 + float(v @ sys.initial))
        x = _krylov(sys.matrix, sys.initial, atol=err / np.linalg.norm(v))
        if x is None:
            return lam
    else:
        x = lu.solve(sys.initial)
    flux = np.ones(sys.dim) @ sys.matrix + sys.weight_row
    val = float(-flux @ x) + (float(sys.initial.sum()) - sys.sigma_I0)
    if not np.isfinite(val):
        raise ArithmeticError("singular solve on a Hurwitz comparison matrix")
    return max(0.0, val)


def verify_certificate(sys: ComparisonSystem, v: np.ndarray,
                       lambda_bar: float,
                       slack: float = DEFAULT_SLACK) -> bool:
    """Check the strict certificate inequalities with explicit margin:
    v^T M + weight_row <= -slack entrywise and
    v^T initial <= lambda_bar + sigma_I0 - slack.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (sys.dim,):
        raise ValueError(f"certificate has dim {v.shape}, system {sys.dim}")
    if np.any(v <= 0):
        return False
    row = v @ sys.matrix + sys.weight_row
    if np.any(row > -slack):
        return False
    return float(v @ sys.initial) <= lambda_bar + sys.sigma_I0 - slack


def certificate_for(sys: ComparisonSystem) -> Optional[tuple]:
    """Construct (v, lambda_bar) witnessing the bound for a Hurwitz
    system: v solves v^T M = -(weight_row + margin) and lambda_bar is
    v^T initial - sigma_I0 + margin, with margin DEFAULT_SLACK. v is
    solved by GMRES, or by the LU when Krylov fails, and passes
    `verify_certificate` at margin/2 either way. Returns None when not
    Hurwitz."""
    cert = _certify(sys, DEFAULT_SLACK)
    return None if cert is None else cert[:2]
