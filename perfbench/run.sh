#!/usr/bin/env bash
# Build simq and the benchmark from this checkout, then run one workload:
#   bash perfbench/run.sh --workload index-mixed --seed 1 --seconds 15 --trace 0
# Run from the root of the checkout. Build output goes to stderr, so the
# last line on stdout is the benchmark's JSON result. The dune cache is
# off so that the build reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
unset SIMQ_METRICS
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --cache=disabled --display quiet \
  ./bin/simq.exe ./perfbench/perfbench.exe 1>&2
commit=unknown
if [ -e .git ]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT="$commit" exec ./_build/default/perfbench/perfbench.exe "$@"
