#!/bin/sh
# Counts the calls that can panic the GoVM or its collector — `expect(`,
# `unwrap()`, `panic!` and `unreachable!` — in crates/runtime/src,
# crates/heap/src and crates/core/src, outside #[cfg(test)] items and `//`
# comment lines (doc examples included): one "<file> <count>" line per file
# that has any, then the total. CI diffs the output against
# .github/panic_sites.txt, so a change that adds a site fails; one that
# removes sites records the lower count with
#   sh .github/panic_sites.sh > .github/panic_sites.txt
set -eu
awk '
  FNR == 1 { skip = 0 }
  /^#\[cfg\(test\)\]/ { skip = 1 }
  skip { if (/^}/) skip = 0; next }
  /^[ \t]*\/\// { next }
  { n = gsub(/expect\(|unwrap\(\)|panic!|unreachable!/, "&"); count[FILENAME] += n; total += n }
  END {
    for (f in count) if (count[f]) print f, count[f] | "sort"
    close("sort")
    print "total", total
  }
' crates/core/src/*.rs crates/heap/src/*.rs crates/runtime/src/*.rs
