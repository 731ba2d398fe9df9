#!/bin/sh
# Counts the calls that can panic the GoVM itself — `expect(`, `unwrap()`,
# `panic!` and `unreachable!` — in crates/runtime/src outside #[cfg(test)]
# items: one "<file> <count>" line per file that has any, then the total.
# CI diffs the output against .github/runtime_panic_sites.txt, so a change
# that adds a site fails; one that removes sites records the lower count with
#   sh .github/runtime_panic_sites.sh > .github/runtime_panic_sites.txt
set -eu
awk '
  FNR == 1 { skip = 0 }
  /^#\[cfg\(test\)\]/ { skip = 1 }
  skip { if (/^}/) skip = 0; next }
  { n = gsub(/expect\(|unwrap\(\)|panic!|unreachable!/, "&"); count[FILENAME] += n; total += n }
  END {
    for (f in count) if (count[f]) print f, count[f] | "sort"
    close("sort")
    print "total", total
  }
' crates/runtime/src/*.rs
