#!/usr/bin/env bash
# Counts the non-test source lines ROADMAP.md quotes — for every
# crates/*/src/**/*.rs, the lines before its first top-level `#[cfg(test)]` —
# prints them per file and fails when the total, or campaign.rs on its own,
# is over the ceiling committed below. The ceilings sit just above what the
# tree holds: a change that needs more raises them in its own diff, where a
# reviewer sees it, instead of the counts drifting up unnoticed
# (campaign.rs once went 1 192 -> 1 393 that way).
#
# usage: check-line-budget.sh   (from the repository root)
set -euo pipefail
total_ceiling=19700
campaign_ceiling=1340

find crates/*/src -name '*.rs' | sort | while read -r file; do
  awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, FILENAME }' "$file"
done | awk -v total_ceiling="$total_ceiling" -v campaign_ceiling="$campaign_ceiling" '
  { print; total += $1 }
  $2 == "crates/core/src/campaign.rs" { campaign = $1 }
  END {
    printf "%d total non-test lines (ceiling %d); campaign.rs %d (ceiling %d)\n",
      total, total_ceiling, campaign, campaign_ceiling
    if (total > total_ceiling || campaign > campaign_ceiling) {
      print "line budget exceeded: delete something, or raise the ceiling in .github/scripts/check-line-budget.sh and say why"
      exit 1
    }
  }'
