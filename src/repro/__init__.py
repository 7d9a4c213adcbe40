"""repro: Model Counting meets F0 Estimation (PODS 2021), reproduced.

A unified hashing-based framework connecting distinct-element estimation in
data streams with approximate model counting, after Pavan, Vinodchandran,
Bhattacharyya and Meel:

* three F0 sketches (:mod:`repro.streaming`) and their transformed model
  counters (:mod:`repro.core`) -- ApproxMC, ApproxModelCountMin,
  ApproxModelCountEst -- over a from-scratch CDCL+XOR SAT substrate
  (:mod:`repro.sat`);
* distributed DNF counting with bit-metered communication
  (:mod:`repro.distributed`);
* F0 over structured set streams -- DNF sets, multidimensional ranges,
  arithmetic progressions, affine spaces, weighted-DNF reductions
  (:mod:`repro.structured`).

Quickstart::

    import random
    from repro import (SketchParams, approx_mc, exact_model_count,
                       random_dnf)

    rng = random.Random(1)
    formula = random_dnf(rng, num_vars=20, num_terms=12, width=6)
    params = SketchParams(eps=0.8, delta=0.2)
    result = approx_mc(formula, params, rng)
    print(result.estimate, exact_model_count(formula))
"""

from repro.baselines import (
    karp_luby_count,
    karp_luby_optimal_stopping,
)
from repro.core import (
    approx_mc,
    approx_model_count_est,
    approx_model_count_min,
    bounded_sat,
    exact_dnf_count,
    exact_model_count,
    find_max_range,
    find_min,
    flajolet_martin_count,
)
from repro.distributed import (
    distributed_bucketing,
    distributed_estimation,
    distributed_minimum,
    partition_round_robin,
)
from repro.formulas import (
    CnfFormula,
    DnfFormula,
    DnfTerm,
    WeightFunction,
    XorConstraint,
    parse_dimacs_cnf,
    parse_dimacs_dnf,
    random_dnf,
    random_k_cnf,
    write_dimacs_cnf,
    write_dimacs_dnf,
)
from repro.sat import CdclSolver, NpOracle
from repro.service import F0Server, ServiceClient
from repro.store import SketchStore, build_sketch
from repro.streaming import (
    BucketingF0,
    EstimationF0,
    ExactF0,
    FlajoletMartinF0,
    MinimumF0,
    ShardedF0,
    SketchParams,
    compute_f0,
)
from repro.structured import (
    AffineSet,
    DnfSet,
    MultiProgression,
    MultiRange,
    StructuredF0Bucketing,
    StructuredF0Minimum,
    weighted_dnf_count,
)

__version__ = "1.0.0"

__all__ = [
    "AffineSet",
    "BucketingF0",
    "CdclSolver",
    "CnfFormula",
    "DnfFormula",
    "DnfSet",
    "DnfTerm",
    "EstimationF0",
    "ExactF0",
    "F0Server",
    "FlajoletMartinF0",
    "MinimumF0",
    "MultiProgression",
    "MultiRange",
    "NpOracle",
    "ServiceClient",
    "ShardedF0",
    "SketchParams",
    "SketchStore",
    "StructuredF0Bucketing",
    "StructuredF0Minimum",
    "WeightFunction",
    "XorConstraint",
    "approx_mc",
    "approx_model_count_est",
    "approx_model_count_min",
    "bounded_sat",
    "build_sketch",
    "compute_f0",
    "distributed_bucketing",
    "distributed_estimation",
    "distributed_minimum",
    "exact_dnf_count",
    "exact_model_count",
    "find_max_range",
    "find_min",
    "flajolet_martin_count",
    "karp_luby_count",
    "karp_luby_optimal_stopping",
    "parse_dimacs_cnf",
    "parse_dimacs_dnf",
    "partition_round_robin",
    "random_dnf",
    "random_k_cnf",
    "weighted_dnf_count",
    "write_dimacs_cnf",
    "write_dimacs_dnf",
]
