"""Power-aware optimizations built on the input-dependent power model.

The paper's §V sketches several future directions; this package implements
working versions of each:

* :mod:`repro.optimize.weight_shift` — shift model weights toward value
  ranges that draw less power.
* :mod:`repro.optimize.permutation` — permutation-invariant reordering of
  weight matrices (computationally equivalent) that lowers switching.
* :mod:`repro.optimize.sparsity_design` — sparsity patterns chosen for
  power as well as accuracy/memory.
* :mod:`repro.optimize.power_capping` — data pruning to meet a power cap.
* :mod:`repro.optimize.compiler` — a small power-aware "compiler" that
  estimates pipeline power from pattern descriptors and applies
  semantics-preserving transforms.
* :mod:`repro.optimize.engines` — stateful optimization engines
  (Nelder–Mead, bisection, random/grid-refine) and the
  :class:`~repro.optimize.engines.OptimizationRunner` that drives them
  through the cached sweep machinery.  ``python -m repro.optimize`` runs
  study files from the command line.
"""

from repro.optimize.engines import (
    BisectionEngine,
    ConfigObjective,
    Constraint,
    Dimension,
    Evaluation,
    NelderMeadEngine,
    OptimizationEngine,
    OptimizationResult,
    OptimizationRunner,
    ParameterSpace,
    RandomRefineEngine,
    engine_from_state,
    get_engine,
    list_engines,
    load_study,
    run_study,
)
from repro.optimize.estimation import quick_power_estimate
from repro.optimize.compiler import GemmOp, Pipeline, PowerAwareCompiler
from repro.optimize.permutation import (
    greedy_low_toggle_permutation,
    permutation_by_column_norm,
    permute_columns,
    restore_columns,
)
from repro.optimize.power_capping import CapPlan, find_sparsity_for_cap
from repro.optimize.sparsity_design import SparsityDesign, design_sparsity
from repro.optimize.weight_shift import WeightShiftResult, shift_weights_for_power

__all__ = [
    # optimization engines (repro.optimize.engines)
    "OptimizationEngine",
    "Evaluation",
    "BisectionEngine",
    "NelderMeadEngine",
    "RandomRefineEngine",
    "Dimension",
    "ParameterSpace",
    "OptimizationRunner",
    "ConfigObjective",
    "Constraint",
    "OptimizationResult",
    "engine_from_state",
    "get_engine",
    "list_engines",
    "load_study",
    "run_study",
    # power-aware transforms
    "quick_power_estimate",
    "shift_weights_for_power",
    "WeightShiftResult",
    "permutation_by_column_norm",
    "greedy_low_toggle_permutation",
    "permute_columns",
    "restore_columns",
    "design_sparsity",
    "SparsityDesign",
    "find_sparsity_for_cap",
    "CapPlan",
    "GemmOp",
    "Pipeline",
    "PowerAwareCompiler",
]
