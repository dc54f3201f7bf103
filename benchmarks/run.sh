#!/usr/bin/env bash
# The NEAT-rs ledger, one command.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the `command` of BENCHMARK.json): builds,
#       then runs `ledger` (--trace 0, end-to-end metrics) or `ledger-traced`
#       (--trace 1, per-layer metrics); the last line of output is the result.
#   run.sh [--seed N] [--workload W] [--repeat K] [--smoke]
#       every workload (or W), each in its own process, untraced then traced;
#       prints every metric as `metric <name> <workload> <value> <unit>` and
#       the machine, writes benchmarks/out/result.json, and exits non-zero on
#       any failed check. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

cargo build --release --offline --quiet --manifest-path benchmarks/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmarks/target}/release"

trace=""
args=("$@")
for i in "${!args[@]}"; do
    if [[ "${args[$i]}" == "--trace" ]]; then
        trace="${args[$((i + 1))]:-}"
    fi
done

case "$trace" in
    0) exec "$bin/ledger" "$@" ;;
    1) exec "$bin/ledger-traced" "$@" ;;
    "") LEDGER_BIN="$bin" exec python3 benchmarks/ledger.py run "$@" ;;
    *) echo "--trace takes 0 or 1" >&2; exit 2 ;;
esac
