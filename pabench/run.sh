#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the program under test
# (the repository's `pathalias` binary) and the pabench rig from source,
# then hands every argument to the rig. Run from the repository root.
set -euo pipefail

root=$PWD
here=$root/pabench
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/cli" ]; then
    echo "pabench: run from the root of a pathalias checkout (no Cargo.toml / crates/cli here)" >&2
    exit 2
fi

# One target directory for both builds, absolute so that cargo's idea of
# it does not depend on which manifest is being built.
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
    /*) ;;
    *) target=$root/$target ;;
esac
export CARGO_TARGET_DIR=$target

# Build output goes to stderr: stdout carries only the rig's report.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p pathalias-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/pabench" --bin "$target/release/pathalias" --out "$target/pabench" "$@"
