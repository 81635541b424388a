#!/usr/bin/env bash
# Build the benchmark in the release profile and run it.
#   bash wscbench/run.sh --workload NAME --seed N --seconds N --trace 0|1
# Run from the root of a checkout of the repository.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f wscbench/dune ]; then
  echo "wscbench: run from the root of a full checkout (dune-project, lib/ and wscbench/ not found)" >&2
  exit 2
fi

# All build output goes to stderr: the last line of stdout is the result.
dune build --root . --profile release ./wscbench/wscbench.exe 1>&2

WSCBENCH_GIT_REV=$(git rev-parse HEAD 2>/dev/null || echo "not-a-git-checkout")
export WSCBENCH_GIT_REV
exec ./_build/default/wscbench/wscbench.exe "$@"
