#!/usr/bin/env bash
# Runs `cargo test ARGS -- [--exact] NAME...`, but first fails when any NAME
# (a full test path under --exact, a substring filter otherwise) selects no
# test: a renamed or never-defined test must fail the step, not pass it by
# running nothing.
#
# usage: cargo-test-named.sh CARGO_TEST_ARGS... -- [--exact] NAME...
set -euo pipefail
cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  cargo_args+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 CARGO_TEST_ARGS... -- [--exact] NAME..." >&2
  exit 2
fi
shift
exact=()
if [ "$1" = "--exact" ]; then
  exact=(--exact)
  shift
fi
for name in "$@"; do
  listed=$(cargo test "${cargo_args[@]}" -- --list "${exact[@]}" "$name")
  if ! grep -q ': test$' <<<"$listed"; then
    echo "error: '$name' selects no test in \`cargo test ${cargo_args[*]}\`" >&2
    exit 1
  fi
done
cargo test "${cargo_args[@]}" -- "${exact[@]}" "$@"
