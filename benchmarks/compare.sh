#!/usr/bin/env bash
# compare.sh A.json B.json — two result.json files of run.sh, A as the base.
# Per (metric, workload): both medians, the ratio B/A, the bound and a verdict
# improved | unchanged | regressed | unresolved. Count and digest differences
# come first. Exits 1 on any difference in counts or digests, or any
# regressed or unresolved cell.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/ledger.py" compare "$@"
