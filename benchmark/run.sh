#!/usr/bin/env bash
# The one command of this repository's benchmark (README.md beside this
# file; BENCHMARK.json at the repository root declares it).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object the builder's driver reads
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat K]
#       every workload, timed and traced, each in a child process of its
#       own, every metric by name and unit, every correctness check;
#       exits non-zero if a check fails. --repeat 2 runs the whole set
#       twice and holds the two against each metric's own bound.
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh spread [--runs N] [--seed FIRST] [--seconds S]
#
# Builds the harness in release mode first. The build is offline (the
# root .cargo/config.toml says so, and says it again here for a caller
# whose working directory is elsewhere); it fails, and this script with
# it, anywhere the crates under ../crates are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The driver names the target directory; on its own the harness builds
# into the root's target/ (ignored by git, skipped by pandora-check).
target="${CARGO_TARGET_DIR:-target/benchmark}"

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/pandora-benchmark" "$@"
