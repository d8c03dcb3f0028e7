#!/bin/sh
# End-to-end walkthrough of the sqvac command line.
# Run from anywhere; writes into a temporary directory. Without the installed
# console script it runs the module, e.g. from a checkout with PYTHONPATH=src.
set -eu

if ! command -v sqvac >/dev/null 2>&1; then
    sqvac() { python3 -m sqvac.cli "$@"; }
fi

out=$(mktemp -d)
echo "working in $out"
export SQVAC_OUT="$out"

echo "# 1. build a pure squeezed state file (sigma_x = 2)"
sqvac state --kind pure --sigma-x 2 -o "$out/pure.json"

echo "# 2. rasterize it to a Wigner grid"
sqvac wigner --state "$out/pure.json" -o "$out/grid.csv"

echo "# 3. residual of the added-vs-subtracted comparison (expect ~1e-3 at"
echo "#    the default casual resolution; refined grids reach ~1e-5)"
sqvac residual --grid "$out/grid.csv"

echo "# 4. the renormalized photon-added outcome (R_used ~ 25/9)"
sqvac add --grid "$out/grid.csv" -o "$out/added.csv"

echo "# 5. the same flow from the number basis (the transform replaces rasterizing)"
sqvac state --kind squeezed --sigma-x 2 --trunc 68 -o "$out/fock.json"
sqvac wigner --state "$out/fock.json" -o "$out/fockgrid.csv"
sqvac add --grid "$out/fockgrid.csv" -o "$out/added_fock.csv"

echo "# 6. vacuum input is refused (exit 1, the sigma_x = 1 exclusion)"
sqvac state --kind pure --sigma-x 1 -o "$out/vac.json"
sqvac wigner --state "$out/vac.json" -o "$out/vacgrid.csv"
if sqvac residual --grid "$out/vacgrid.csv"; then
    echo "unexpected success" >&2; exit 1
else
    echo "refused as expected (exit $?)"
fi

echo "# 7. run a fast verification suite"
sqvac verify --suite fock-ratio -o "$out"

echo "# 8. a saved outcome reloads through the same strict grid reader; the"
echo "#    added state is no squeezed vacuum, so a second round breaks the"
echo "#    identity (residual ~0.59)"
sqvac residual --grid "$out/added.csv"

echo "done; artifacts in $out"
