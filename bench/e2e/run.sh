#!/usr/bin/env bash
# Build the load generator and the server from source, then measure one
# workload; the last line of standard output is the JSON result.
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Everything it writes stays below that
# directory: dune's _build, and the benchmark's scratch files in
# .e2e-work, which are removed when the run ends.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/clio_bench.exe ./bin/clio_serve.exe 1>&2
exec ./_build/default/bench/e2e/clio_bench.exe bench "$@"
