#!/usr/bin/env bash
# Guards the property that makes replay fast: `grasp_cachesim::cache::replay_columns`
# — one instance per replacement policy — is the loop, with the per-record
# work compiled into it. Disassembles <binary> and fails when any instance
# calls `CacheCore::access_one`, `CacheCore::find_way`, a closure, the
# reuse-hint `RegionClassifier::classify` (GRASP's and PIN-X's instances
# classify every request), one of the policies' per-set searches
# (`first_distant`, `find_victim`, `age_friendly`, `choose_victim`) or one of
# the byte-lane primitives those scans are built from (`grasp_cachesim::lanes`,
# a handful of SSE2 instructions each), i.e. when a refactor has quietly
# pushed the loop body, or the searches replay spends its time in, back out
# of line.
# One call is allowed: `Leeway::choose_victim` is `#[inline(never)]` because
# inlining its dead-block scan measured ≈ 10 % slower per record.
#
# A PIE binary calls into another codegen unit through a GOT slot
# (`call *0x..(%rip)  # <slot>`), which objdump leaves unnamed, so every slot
# is first mapped to the symbol its R_X86_64_RELATIVE relocation points at.
#
# usage: check-replay-kernel.sh <binary>
set -euo pipefail
binary=${1:?usage: $0 <binary>}
tables=$(mktemp -d)
trap 'rm -rf "$tables"' EXIT
objdump -R "$binary" > "$tables/relocs"
nm -C "$binary" > "$tables/symbols"
objdump -d --no-show-raw-insn -C "$binary" | awk -v relocs="$tables/relocs" -v symbols="$tables/symbols" '
  function bare(hex) { sub(/^(0x)?0*/, "", hex); return hex }
  BEGIN {
    while ((getline line < symbols) > 0) {
      if (line !~ /^[0-9a-f]+ /) continue
      name = line
      sub(/^[0-9a-f]+ [A-Za-z] /, "", name)
      symbol[bare(substr(line, 1, index(line, " ") - 1))] = name
    }
    while ((getline line < relocs) > 0) {
      split(line, field, " ")
      if (field[2] != "R_X86_64_RELATIVE") continue
      target = field[3]
      sub(/^\*ABS\*\+/, "", target)
      slot[bare(field[1])] = symbol[bare(target)]
    }
  }
  /^[0-9a-f]+ <.*>:$/ {
    inside = ($0 ~ /cache::replay_columns/)
    if (inside) instances++
    next
  }
  inside && /[ \t]call[ \t]/ {
    call = $0
    if (match(call, /# [0-9a-f]+ </)) call = call " -> " slot[bare(substr(call, RSTART + 2, RLENGTH - 4))]
    if (call ~ /CacheCore::access_one|CacheCore::find_way|classify|first_distant|find_victim|age_friendly|choose_victim|grasp_cachesim::lanes::|\{\{closure\}\}/ &&
        call !~ /leeway::Leeway as grasp_cachesim::policy::ReplacementPolicy>::choose_victim$/) {
      print call
      bad++
    }
  }
  END {
    if (instances == 0) {
      print "no replay_columns instance in the binary: was the kernel renamed or inlined away?"
      exit 1
    }
    if (bad) {
      printf "%d out-of-line call(s) in %d replay_columns instance(s)\n", bad, instances
      exit 1
    }
    printf "%d replay_columns instance(s): no call to access_one, find_way, classify, a closure, a per-set search or a lane primitive\n", instances
  }'
