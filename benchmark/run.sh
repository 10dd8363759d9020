#!/usr/bin/env bash
# xqbench entry point. Run from the repository root:
#   benchmark/run.sh --workload warm-scan --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh all --seed 1
#   benchmark/run.sh compare old.json new.json
set -euo pipefail
exec cargo run --release --quiet --offline \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
