"""Networked SIR epidemics: exact simulation, certified
linear bounds on accumulated infections, and geometric-program resource
allocation under a budget."""

from .graph import (Graph, EdgeListParseError, GraphValidationError,
                    load_edge_list, dump_edge_list, degrees)
from .phase_type import (PhaseType, ErlangSpec, erlang, min_with_exponential,
                         cdf, exit_rates, sample, mean)
from .simulator import (EpidemicParams, SimOutcome, LambdaEstimate,
                        simulate_sir, simulate_sir_isolation,
                        replica_infections, estimate_lambda)
from .exact_oracle import (StateSpaceTooLarge, state_count, exact_lambda,
                           exact_removed_series)
from .bound import (ComparisonSystem, UNBOUNDED, build_sir_system,
                    build_isolation_system, isolation_system_from,
                    is_hurwitz_metzler, lambda_bound, verify_certificate,
                    certificate_for)
from .gp import GpSolution
from .allocator import (CostModel, MonomialBound, Allocation,
                        AllocationProblem, AllocationInfeasible,
                        BudgetModelError, fit_monomial_bound, build_problem1,
                        build_problem2, solve_allocation, baseline_uniform,
                        baseline_sis_spectral)

__version__ = "0.1.0"
