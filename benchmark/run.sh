#!/usr/bin/env bash
# The benchmark's single entry point.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# Builds the standalone `benchmark/` package from source (offline, release)
# and runs one workload; without --workload it runs all four in turn. The
# last line of each workload's output is its JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# The build log goes to stderr so stdout carries only the benchmark's output.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2
bin="$target/release/dl-bench"

case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
esac
for workload in net_hot store_cold update publish_serve; do
    "$bin" --workload "$workload" "$@"
done
