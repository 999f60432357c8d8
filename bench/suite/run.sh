#!/usr/bin/env bash
# Two-clock benchmark suite: builds bench_suite (Release, into
# build-bench/) and runs the workloads. See README.md and run.py --help.
#
#   bench/suite/run.sh [--seed N] [--smoke] [--workload NAME]
#   bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
exec python3 "$(dirname "${BASH_SOURCE[0]}")/run.py" "$@"
