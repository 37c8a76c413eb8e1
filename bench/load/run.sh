#!/usr/bin/env bash
# Build tpan and the tpan-load generator from source, then run the
# generator with the given arguments, e.g.
#
#   bash bench/load/run.sh --workload eval-hot --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a tpan checkout. Build output goes to stderr,
# so the last line of standard output is the generator's JSON summary.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/main.ml ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a tpan checkout (dune-project, bin/ and lib/ not found)" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "run.sh: dune not found on PATH" >&2
  exit 2
fi

"${dune[@]}" build --root . bin/tpan.exe bench/load/tpan_load.exe 1>&2

exec ./_build/default/bench/load/tpan_load.exe "$@"
