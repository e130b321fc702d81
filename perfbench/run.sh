#!/bin/sh
# Builds the benchmark from source in the current checkout and runs it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the root of a checkout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# --cache=disabled keeps every build product inside the checkout's _build.
exec dune exec --root . --cache=disabled --display=quiet perfbench/main.exe -- "$@"
