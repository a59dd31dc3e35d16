#!/usr/bin/env bash
# Build the ledger from source, then run it with the given arguments:
#   bash bench/ledger/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# last line on stdout is the ledger's JSON result.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
