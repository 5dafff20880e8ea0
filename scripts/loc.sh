#!/usr/bin/env bash
# Non-test line counts per crate.
#
#   scripts/loc.sh
#
# For every crate under crates/, counts the lines of each src/*.rs file
# up to and including its first top-level `#[cfg(test)]` (the whole file
# when it has none), and prints one "<crate> <lines>" row per crate plus
# a total. Blank lines and comments count: the number tracks how much
# non-test source a reader has to get through, not statement density.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  lines=0
  for file in "$dir"src/*.rs; do
    [ -e "$file" ] || continue
    n="$(awk '{ n++ } /^#\[cfg\(test\)\]/ { exit } END { print n + 0 }' "$file")"
    lines=$((lines + n))
  done
  printf '%-8s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-8s %6d\n' total "$total"
