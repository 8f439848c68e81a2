"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py '<config JSON>'

Prints the seconds taken to import povmcal and build the config's state,
detector, quorum (homodyne kernels, or a dual set with its noise
correction) and input map R, including the map's faithfulness check, all
through the package's public builders.  Exits 1 if the map is not faithful.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    cfg = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    from povmcal import cli, quorum, states

    state = cli.build_state(cfg["state"])
    cli.build_detector(cfg["detector"], state)
    tomographer = cli.build_quorum(cfg["quorum"], state.dim_tomo)
    if isinstance(tomographer, quorum.HomodyneQuorum):
        map_r = states.build_diagonal_map_R(
            state, cutoff=tomographer.fock_cutoff, svd_tolerance=cfg["svd_tolerance"]
        )
    else:
        duals = quorum.compute_dual_set(tomographer)
        noise = cli.build_noise(cfg["noise"], state.dim_tomo)
        if noise is not None:
            quorum.noise_corrected_duals(duals, noise)
        map_r = states.build_map_R(state, svd_tolerance=cfg["svd_tolerance"])
    if not map_r.condition_number <= cfg["max_condition_number"]:
        print(f"not faithful: condition number {map_r.condition_number}", file=sys.stderr)
        return 1
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
