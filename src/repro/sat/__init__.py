"""A from-scratch CDCL SAT solver with native XOR constraints.

This package is the reproduction's substitute for the paper's NP oracle
(CryptoMiniSat-style CNF-XOR solvers in the authors' practice):

* :mod:`repro.sat.solver` -- conflict-driven clause learning with watched
  literals, 1-UIP learning, VSIDS, Luby restarts, phase saving and
  incremental assumptions.
* :mod:`repro.sat.xor_engine` -- parity-constraint propagation with lazy
  reason generation, so hash constraints ``h_m(x) = 0^m`` never pay the
  exponential XOR-to-CNF blow-up.
* :mod:`repro.sat.encode_xor` -- the chunked Tseitin encoding, kept for the
  native-vs-encoded ablation.
* :mod:`repro.sat.oracle` -- the NP-oracle facade the counting algorithms
  talk to (call counting, model enumeration, hash-bit auxiliary variables).
* :mod:`repro.sat.backends` -- the registry of pluggable solver backends
  every ``NpOracle`` session resolves (``cdcl``, ``bruteforce``, and a
  ``pysat`` adapter when python-sat is installed).
* :mod:`repro.sat.bruteforce` -- an exhaustive reference solver used by the
  test suite.
"""

from repro.sat.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    SolverBackend,
    backend_info,
    backend_names,
    create_solver,
    has_backend,
    register_backend,
)
from repro.sat.bruteforce import brute_force_models, brute_force_solve
from repro.sat.encode_xor import xor_to_cnf_clauses
from repro.sat.oracle import (
    EnumerationOracle,
    NpOracle,
    TrailZeroOracle,
    oracle_for,
)
from repro.sat.solver import CdclSolver, SolverStats

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CdclSolver",
    "EnumerationOracle",
    "NpOracle",
    "SolverBackend",
    "SolverStats",
    "TrailZeroOracle",
    "backend_info",
    "backend_names",
    "brute_force_models",
    "brute_force_solve",
    "create_solver",
    "has_backend",
    "oracle_for",
    "register_backend",
    "xor_to_cnf_clauses",
]
