#!/usr/bin/env bash
# Builds the qpgc CLI and the benchmark from source (release profile) and
# runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of a qpgc source tree.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/qpgc.ml ]; then
  echo "perfbench: not a qpgc source tree (needs dune-project, lib/, bin/)" >&2
  exit 2
fi
dune build --root . --profile release ./perfbench/perfbench.exe ./bin/qpgc.exe >&2
export PERFBENCH_PROFILE=release
PERFBENCH_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_REV
exec ./_build/default/perfbench/perfbench.exe "$@"
