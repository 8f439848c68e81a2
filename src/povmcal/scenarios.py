"""Builtin scenario configurations for the experiment runner.

Each entry is a fully-populated config dict; ``povmcal print-defaults``
emits them verbatim.  All scenarios are deterministic for a fixed seed.
"""

from __future__ import annotations

import copy

from .errors import ConfigError
from .quorum import KERNEL_GRID

_COMMON = {
    "seed": 2024,
    "save_dataset": False,
    "max_condition_number": 1e9,
    "svd_tolerance": 1e-10,
    "noise": None,
}
# The photon counter (efficiency 80%, one dark count on average) probed
# through a twin beam (xi = 0.88) and an efficiency-0.9 homodyne.
_PHOTOCOUNTER = {
    **_COMMON,
    "exact_probabilities": False,
    "display_cutoff": 7,
    "state": {"kind": "twin_beam", "xi": 0.88, "fock_cutoff": 54},
    "detector": {"kind": "noisy_photocounter", "eta_p": 0.8, "nu": 1.0, "env_cutoff": 30},
    "quorum": {
        "kind": "homodyne",
        "eta_h": 0.9,
        "fock_cutoff": 12,
        "unbias_cutoff": 20,
        "grid": list(KERNEL_GRID),
    },
    "ml": {"fock_cutoff": 36},
}
_FINITE = {**_COMMON, "display_cutoff": None, "ml": {}}
# a random qubit POVM probed through a maximally entangled pair and the Pauli bases
_QUBIT = {
    "state": {"kind": "maximally_entangled", "d": 2},
    "detector": {"kind": "random", "n_outcomes": 3, "seed": 7},
    "quorum": {"kind": "pauli"},
}
# infinite-data distributions fed to the averaging pipeline
_EXACT = {"n_records": 0, "exact_probabilities": True, "strategy": "averaging", "bootstrap_reps": 0}

SCENARIOS: dict[str, dict] = {
    # Photocounter calibration at desk scale, averaging estimator.
    "fig2": {
        **_PHOTOCOUNTER,
        "name": "fig2",
        "n_records": 200_000,
        "strategy": "averaging",
        "bootstrap_reps": 0,
    },
    # Same physics, maximum-likelihood estimator on a 4x smaller record
    # count, with bootstrap error bars over 50 virtual repetitions.
    "fig4": {
        **_PHOTOCOUNTER,
        "name": "fig4",
        "n_records": 50_000,
        "strategy": "ml",
        "bootstrap_reps": 50,
    },
    # Exact-probability round trip on a qubit: the averaging pipeline must
    # reproduce the random POVM to numerical precision.
    "qubit-oracle": {**_FINITE, **_QUBIT, **_EXACT, "name": "qubit-oracle"},
    # d = 3 variant of the exact-probability round trip.
    "qutrit-oracle": {
        **_FINITE,
        **_EXACT,
        "name": "qutrit-oracle",
        "state": {"kind": "maximally_entangled", "d": 3},
        "detector": {"kind": "random", "n_outcomes": 4, "seed": 11},
        "quorum": {"kind": "random_bases", "n_settings": 4, "seed": 5},
    },
    # Sampled qubit calibration with bootstrap error bars.
    "qubit-sampled": {
        **_FINITE,
        **_QUBIT,
        "name": "qubit-sampled",
        "n_records": 100_000,
        "exact_probabilities": False,
        "strategy": "both",
        "bootstrap_reps": 30,
    },
}


def scenario_config(name: str) -> dict:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    return copy.deepcopy(SCENARIOS[name])


def list_scenarios() -> list[str]:
    return sorted(SCENARIOS)
