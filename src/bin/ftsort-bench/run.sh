#!/usr/bin/env bash
# Builds the release ftsort-cli, ftsort-campaign and ftsort-bench from the
# checkout in the working directory, then runs the benchmark with the given
# arguments. Cargo output goes to stderr; the last stdout line is the
# benchmark's JSON result.
set -euo pipefail
cargo build --release --offline --quiet \
    --bin ftsort-cli --bin ftsort-campaign --bin ftsort-bench >&2
exec "${CARGO_TARGET_DIR:-target}/release/ftsort-bench" "$@"
