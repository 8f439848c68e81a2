"""Detector calibration by joint tomography.

Simulate joint measurement records from a known bipartite state, a
ground-truth detector POVM and a tomographer quorum, then reconstruct the
POVM from the records alone — either by linear averaging through the
inverted input map, with analytic error bars, or by constrained maximum
likelihood, with bootstrap error bars — and a config-driven experiment
runner.
"""

from .detectors import Povm, noisy_photocounter, random_povm
from .qmath import ComplexOperator, fock_quadrature_table
from .quorum import (
    FiniteQuorum,
    HomodyneQuorum,
    NoiseMap,
    build_diagonal_kernels,
    compute_dual_set,
    homodyne_quorum,
    noise_map_from_superoperator,
    pauli_quorum,
)
from .recon_avg import (
    ConditionedEstimate,
    PovmEstimate,
    estimate_conditioned_finite,
    estimate_conditioned_homodyne,
    recover_povm,
)
from .recon_ml import (
    MlResult,
    build_problem_diagonal,
    build_problem_finite,
    maximize,
)
from .sampler import Dataset, sample_finite, sample_homodyne_twinbeam
from .states import (
    BipartiteState,
    MapROperator,
    build_diagonal_map_R,
    build_map_R,
    maximally_entangled,
    twin_beam,
)
from .stats import BootstrapReport, bootstrap

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "BootstrapReport",
    "ComplexOperator",
    "ConditionedEstimate",
    "Dataset",
    "FiniteQuorum",
    "HomodyneQuorum",
    "MapROperator",
    "MlResult",
    "NoiseMap",
    "Povm",
    "PovmEstimate",
    "bootstrap",
    "build_diagonal_kernels",
    "build_diagonal_map_R",
    "build_map_R",
    "build_problem_diagonal",
    "build_problem_finite",
    "compute_dual_set",
    "estimate_conditioned_finite",
    "estimate_conditioned_homodyne",
    "fock_quadrature_table",
    "homodyne_quorum",
    "maximally_entangled",
    "maximize",
    "noise_map_from_superoperator",
    "noisy_photocounter",
    "pauli_quorum",
    "random_povm",
    "recover_povm",
    "sample_finite",
    "sample_homodyne_twinbeam",
    "twin_beam",
]
