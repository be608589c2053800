#!/usr/bin/env bash
# Builds the benchmark and the serving daemon from source, then runs one
# benchmark invocation from the root of the checkout:
#
#   bash bench/pipeline/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build log goes to stderr; the last stdout line is the JSON result.
# The shared dune cache stays off, so the build writes only under _build.
set -euo pipefail
dune build --root . --cache=disabled bench/pipeline/pipeline.exe bin/cmd_serve.exe 1>&2
exec ./_build/default/bench/pipeline/pipeline.exe "$@"
