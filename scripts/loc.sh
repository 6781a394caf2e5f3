#!/usr/bin/env bash
# Non-test line count of the workspace crates: for every `.rs` file
# under crates/<crate>/src, the lines above its first `#[cfg(test)]`
# (the whole file when it has none). Prints one line per crate and a
# total; the counts are what CHANGES.md entries quote when a change
# claims to leave the code smaller.
#
# Usage:
#   scripts/loc.sh              # every crate under crates/
#   scripts/loc.sh algos sim    # only the named crates (and their sum)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  CRATES=("$@")
else
  CRATES=()
  for dir in crates/*/; do
    CRATES+=("$(basename "$dir")")
  done
fi

total=0
for crate in "${CRATES[@]}"; do
  if [ ! -d "crates/$crate/src" ]; then
    echo "loc: no crate crates/$crate" >&2
    exit 2
  fi
  lines="$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z \
    | xargs -0 awk 'FNR == 1 { in_tests = 0 }
                    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
                    !in_tests { n++ }
                    END { print n + 0 }')"
  printf '%-12s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-12s %6d\n' "total" "$total"
