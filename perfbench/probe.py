"""Set-up probe: one fresh process that does a workload's set-up and stops.

It imports the package, parses the workload's command line and config, and
builds its initial data, then prints ``ready``.  ``run.py`` times it from
process start to that line and reports the median over several probes as
``setup_s``.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

from __future__ import annotations

import sys

import workloads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.load_package()
    from gkdvlab import cli, harness
    from gkdvlab.estimates import SampleSpec, random_field
    from gkdvlab.spectral import SpectralGrid

    args = cli.build_parser().parse_args(workloads.cli_args(workload, seed))
    config = harness.apply_overrides(
        harness.RunConfig(kind=args.command), args.overrides + [f"seed={args.seed}"]
    )
    if workload == "lab":
        grid = SpectralGrid(config.lab_half_length, config.lab_num_points)
        random_field(grid, SampleSpec(seed=config.seed, amplitude=config.amplitude))
    else:
        harness.initial_state(config)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
