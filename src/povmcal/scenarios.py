"""Builtin scenario configurations for the experiment runner.

Each entry is a fully-populated config dict; ``povmcal print-defaults``
emits them verbatim.  All scenarios are deterministic for a fixed seed.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

_KERNEL_GRID = [-8.0, 8.0, 1.0 / 512.0]

SCENARIOS: dict[str, dict] = {
    # Photocounter calibration at desk scale, averaging estimator.  The
    # photon counter (efficiency 80%, one dark count on average) is probed
    # through a twin beam (xi = 0.88) and an efficiency-0.9 homodyne.
    "fig2": {
        "name": "fig2",
        "seed": 2024,
        "n_records": 200_000,
        "exact_probabilities": False,
        "strategy": "averaging",
        "bootstrap_reps": 0,
        "save_dataset": False,
        "max_condition_number": 1e9,
        "svd_tolerance": 1e-10,
        "display_cutoff": 7,
        "state": {"kind": "twin_beam", "xi": 0.88, "fock_cutoff": 54},
        "detector": {
            "kind": "noisy_photocounter",
            "eta_p": 0.8,
            "nu": 1.0,
            "env_cutoff": 30,
        },
        "quorum": {
            "kind": "homodyne",
            "eta_h": 0.9,
            "fock_cutoff": 12,
            "unbias_cutoff": 20,
            "grid": _KERNEL_GRID,
        },
        "ml": {"fock_cutoff": 36},
        "noise": None,
    },
    # Same physics, maximum-likelihood estimator on a 4x smaller record
    # count, with bootstrap error bars over 50 virtual repetitions.
    "fig4": {
        "name": "fig4",
        "seed": 2024,
        "n_records": 50_000,
        "exact_probabilities": False,
        "strategy": "ml",
        "bootstrap_reps": 50,
        "save_dataset": False,
        "max_condition_number": 1e9,
        "svd_tolerance": 1e-10,
        "display_cutoff": 7,
        "state": {"kind": "twin_beam", "xi": 0.88, "fock_cutoff": 54},
        "detector": {
            "kind": "noisy_photocounter",
            "eta_p": 0.8,
            "nu": 1.0,
            "env_cutoff": 30,
        },
        "quorum": {
            "kind": "homodyne",
            "eta_h": 0.9,
            "fock_cutoff": 12,
            "unbias_cutoff": 20,
            "grid": _KERNEL_GRID,
        },
        "ml": {"fock_cutoff": 36},
        "noise": None,
    },
    # Exact-probability round trip on a qubit: the averaging pipeline fed
    # with infinite-data distributions must reproduce the random POVM to
    # numerical precision.
    "qubit-oracle": {
        "name": "qubit-oracle",
        "seed": 2024,
        "n_records": 0,
        "exact_probabilities": True,
        "strategy": "averaging",
        "bootstrap_reps": 0,
        "save_dataset": False,
        "max_condition_number": 1e9,
        "svd_tolerance": 1e-10,
        "display_cutoff": None,
        "state": {"kind": "maximally_entangled", "d": 2},
        "detector": {"kind": "random", "n_outcomes": 3, "seed": 7},
        "quorum": {"kind": "pauli"},
        "ml": {},
        "noise": None,
    },
    # d = 3 variant of the exact-probability round trip.
    "qutrit-oracle": {
        "name": "qutrit-oracle",
        "seed": 2024,
        "n_records": 0,
        "exact_probabilities": True,
        "strategy": "averaging",
        "bootstrap_reps": 0,
        "save_dataset": False,
        "max_condition_number": 1e9,
        "svd_tolerance": 1e-10,
        "display_cutoff": None,
        "state": {"kind": "maximally_entangled", "d": 3},
        "detector": {"kind": "random", "n_outcomes": 4, "seed": 11},
        "quorum": {"kind": "random_bases", "n_settings": 4, "seed": 5},
        "ml": {},
        "noise": None,
    },
    # Sampled qubit calibration with bootstrap error bars.
    "qubit-sampled": {
        "name": "qubit-sampled",
        "seed": 2024,
        "n_records": 100_000,
        "exact_probabilities": False,
        "strategy": "both",
        "bootstrap_reps": 30,
        "save_dataset": False,
        "max_condition_number": 1e9,
        "svd_tolerance": 1e-10,
        "display_cutoff": None,
        "state": {"kind": "maximally_entangled", "d": 2},
        "detector": {"kind": "random", "n_outcomes": 3, "seed": 7},
        "quorum": {"kind": "pauli"},
        "ml": {},
        "noise": None,
    },
}


def scenario_config(name: str) -> dict:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    return copy.deepcopy(SCENARIOS[name])


def list_scenarios() -> list[str]:
    return sorted(SCENARIOS)
