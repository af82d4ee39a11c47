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
certificate v^T M + w < 0 that witnesses the bound. So one sparse LU of
M decides stability, yields the certificate and gives the bound. The
rule is factor and verify: a system counts as Hurwitz only when its
LU is nonsingular and the solved v is finite, positive and passes
`verify_certificate` with half the synthesis margin, so a "bounded"
answer always carries a certificate that checks on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import Graph
from .phase_type import PhaseType
from .simulator import EpidemicParams

UNBOUNDED = math.inf
DEFAULT_SLACK = 1e-6
# Fill-reducing column ordering of the comparison LU: minimum degree on
# the structure of M^T + M. On the Erlang(3) system of a 2000-node,
# 6000-edge graph its LU has about a seventh of the nonzeros that
# SuperLU's default COLAMD leaves, and factors about ten times faster.
_ORDERING = "MMD_AT_PLUS_A"


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
    return sp.diags_array(j * beta) @ sp.csr_array(g.adjacency_sparse())


def build_sir_system(g: Graph, params: EpidemicParams) -> ComparisonSystem:
    """The comparison system of `params` checked against the graph:
    oplus_i (Pi'_i)^T + (J B A) kron (u1 1^T) with Pi'_i = Pi_i -
    delta_i I, weight row -Pi'_i 1 and initial u1 per infected node,
    from the (n, p, p) generator stack of the removal laws (p = 1 and
    Pi = 0 in plain SIR)."""
    params.validate_for(g)
    generators, delta = params.generators, params.delta
    n, p, _ = generators.shape
    infected = params.initially_infected
    folded = generators - delta[:, None, None] * np.eye(p)
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
# them, until the program records its own spans (ROADMAP item 4).
build_isolation_system = build_sir_system


def isolation_system_from(g: Graph, infected, delta,
                          laws: Sequence[PhaseType],
                          beta) -> ComparisonSystem:
    """`build_sir_system` from raw per-node data and isolation laws."""
    return build_sir_system(g, EpidemicParams.build(
        g.node_count, beta, delta, infected, isolation=tuple(laws)))


def _factor_and_verify(sys: ComparisonSystem, margin: float):
    """(lu, v, lambda_bar) from one sparse LU of M, or None when M is not
    Hurwitz: v solves v^T M = -(weight_row + margin) and must be finite,
    positive and pass `verify_certificate` at margin/2."""
    try:
        lu = spla.splu(sys.matrix.tocsc(), permc_spec=_ORDERING)
    except RuntimeError:  # exactly singular factor
        return None
    v = lu.solve(-(sys.weight_row + margin), trans="T")
    if not np.all(np.isfinite(v)):
        return None
    lam = float(v @ sys.initial) - sys.sigma_I0 + margin
    if not verify_certificate(sys, v, lam, slack=margin / 2):
        return None
    return lu, v, lam


def is_hurwitz_metzler(m, tol: float = 1e-10) -> bool:
    """True iff the Metzler matrix (dense or sparse) has spectral
    abscissa < -tol, decided by factor and verify on m + tol I."""
    m = sp.csr_array(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    shifted = ComparisonSystem(matrix=m + tol * sp.eye_array(n),
                               weight_row=np.zeros(n), initial=np.zeros(n),
                               sigma_I0=0)
    return _factor_and_verify(shifted, margin=1.0) is not None


def lambda_bound(sys: ComparisonSystem) -> float:
    """Certified upper bound on accumulated infections, or the
    UNBOUNDED marker (math.inf) when the comparison matrix is not
    Hurwitz, meaning this instance certifies nothing."""
    factored = _factor_and_verify(sys, DEFAULT_SLACK)
    if factored is None:
        return UNBOUNDED
    val = float(-sys.weight_row @ factored[0].solve(sys.initial)) \
        - sys.sigma_I0
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


def certificate_for(sys: ComparisonSystem,
                    margin: float = DEFAULT_SLACK) -> Optional[tuple]:
    """Construct (v, lambda_bar) witnessing the bound for a Hurwitz
    system: v solves v^T M = -(weight_row + margin) and lambda_bar is
    v^T initial - sigma_I0 + margin. Returns None when not Hurwitz."""
    factored = _factor_and_verify(sys, margin)
    return None if factored is None else factored[1:]
