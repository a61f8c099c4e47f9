#!/usr/bin/env bash
# Counts the non-test source lines ROADMAP.md quotes — for every
# crates/*/src/**/*.rs, the lines before its first top-level `#[cfg(test)]` —
# prints them per file and fails when the total, or one of the files ROADMAP
# item 3 names, is over the ceiling committed below. The total's,
# campaign.rs's and ingest.rs's ceilings sit just above what the tree holds;
# trace_store.rs and persist.rs are held to the roadmap's < 900 target, which
# they have reached. A change that needs more raises a ceiling in its own diff, where a
# reviewer sees it, instead of the counts drifting up unnoticed (campaign.rs
# once went 1 192 -> 1 393 that way).
#
# usage: check-line-budget.sh   (from the repository root)
set -euo pipefail

find crates/*/src -name '*.rs' | sort | while read -r file; do
  awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, FILENAME }' "$file"
done | awk '
  BEGIN {
    total_ceiling = 18483
    ceiling["crates/core/src/campaign.rs"] = 1287
    ceiling["crates/graph/src/ingest.rs"] = 1177
    ceiling["crates/core/src/trace_store.rs"] = 899
    ceiling["crates/cachesim/src/trace/persist.rs"] = 899
  }
  { total += $1 }
  $2 in ceiling {
    $0 = $0 " (ceiling " ceiling[$2] ")"
    if ($1 > ceiling[$2]) over = over " " $2
  }
  { print }
  END {
    printf "%d total non-test lines (ceiling %d)\n", total, total_ceiling
    if (total > total_ceiling) over = over " total"
    if (over != "") {
      print "line budget exceeded (" substr(over, 2) "): delete something, or raise the ceiling in .github/scripts/check-line-budget.sh and say why"
      exit 1
    }
  }'
