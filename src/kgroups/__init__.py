"""Energy-distance clustering (k-groups) with k-means as the alpha=2 case.

The public surface mirrors the layers of the library: distance/statistic
primitives (`energy`), partition bookkeeping (`partition`), the relocation
solvers (`solver`), validity indices (`indices`), synthetic data
(`datagen`), and the benchmark harness (`harness`).
"""

from .datagen import Component, LabeledSample, MixtureSpec, generate
from .energy import (
    DiscoResult,
    DistanceCache,
    alpha_distance,
    disco,
    dispersion,
    energy_statistic,
    weighted_energy_statistic,
)
from .errors import (
    IngestionError,
    InputError,
    KGroupsError,
    NumericInvariantError,
    RejectedMoveError,
)
from .harness import (
    ALGORITHMS,
    DESIGNS,
    ExperimentSpec,
    ExperimentResult,
    ResultTable,
    design_mixture,
    emit_outputs,
    run_experiment,
)
from .indices import (
    ContingencyTable,
    IndexReport,
    adjusted_rand,
    diag_index,
    index_report,
    kappa_index,
    rand_index,
)
from .partition import ClusterSumLedger, Partition, move_point, random_partition
from .solver import (
    FitConfig,
    FitResult,
    fit,
    min_distance_pairs,
    move_points,
    mth_variation_delta,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "KGroupsError",
    "InputError",
    "RejectedMoveError",
    "IngestionError",
    "NumericInvariantError",
    # energy
    "alpha_distance",
    "DistanceCache",
    "dispersion",
    "energy_statistic",
    "weighted_energy_statistic",
    "disco",
    "DiscoResult",
    # partition
    "Partition",
    "ClusterSumLedger",
    "random_partition",
    "move_point",
    # solver
    "FitConfig",
    "FitResult",
    "mth_variation_delta",
    "move_points",
    "min_distance_pairs",
    "fit",
    # indices
    "ContingencyTable",
    "IndexReport",
    "rand_index",
    "adjusted_rand",
    "diag_index",
    "kappa_index",
    "index_report",
    # datagen
    "Component",
    "MixtureSpec",
    "LabeledSample",
    "generate",
    # harness
    "ALGORITHMS",
    "DESIGNS",
    "ExperimentSpec",
    "ExperimentResult",
    "ResultTable",
    "design_mixture",
    "run_experiment",
    "emit_outputs",
]
