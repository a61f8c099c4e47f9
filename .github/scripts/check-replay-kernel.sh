#!/usr/bin/env bash
# Guards the property that makes replay fast: `grasp_cachesim::cache::replay_columns`
# — one instance per replacement policy — is the loop, with the per-record
# work compiled into it. Disassembles <binary> and fails when any instance
# calls `CacheCore::access_one`, `CacheCore::find_way` or a closure, i.e. when
# a refactor has quietly pushed the loop body back out of line.
#
# usage: check-replay-kernel.sh <binary>
set -euo pipefail
binary=${1:?usage: $0 <binary>}
objdump -d --no-show-raw-insn -C "$binary" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    inside = ($0 ~ /cache::replay_columns/)
    if (inside) instances++
    next
  }
  inside && /[ \t]call[ \t]/ && /CacheCore::access_one|CacheCore::find_way|\{\{closure\}\}/ {
    print
    bad++
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
    printf "%d replay_columns instance(s): no call to access_one, find_way or a closure\n", instances
  }'
