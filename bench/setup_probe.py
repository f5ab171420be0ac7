"""Set-up probe: a fresh interpreter imports tsu11 and builds one
workload's inputs, without calling the engine.

    python3 bench/setup_probe.py <workload> <seed>

``run.py`` times this process from start to exit for ``setup_s``.
"""

import sys

from checkout import use_checkout_sources


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    use_checkout_sources()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    wl.build(wl.inputs(seed))


if __name__ == "__main__":
    main()
