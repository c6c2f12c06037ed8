#!/usr/bin/env bash
# Runs one benchmark workload from a source checkout:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the CLI and perf.exe from source (build output goes to stderr),
# then passes every argument to `perf.exe run`, whose last line on stdout
# is the JSON result.  The dune cache stays off so that nothing is read
# or written outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/selfish_routing.exe bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe run --cli ./_build/default/bin/selfish_routing.exe "$@"
