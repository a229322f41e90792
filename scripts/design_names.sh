#!/bin/sh
# Every name DESIGN.md cites must exist. Two kinds of backticked name are
# checked:
#   - snake_case: `two_words`, or `two_words()`;
#   - a type: a span that starts with a capital followed by a lowercase
#     letter, taken up to its first non-identifier character (`Foo` in
#     `Foo::bar`, `Foo<T>` or `Foo`).
# Each one with no whole-word `git grep` hit in crates/, tests/,
# examples/, perfbench/, third_party/, scripts/ or .github/ is printed
# with the line that cites it, and the script exits 1 if any was printed.
# Tracked files only — `git add` new ones first.
set -eu
cd "$(git rev-parse --show-toplevel)"
found=0
missing() {
    ! git grep -qw "$1" -- crates tests examples perfbench third_party scripts .github
}
for name in $(grep -o '`[a-z][a-z0-9]*_[a-z0-9_]*\(()\)\{0,1\}`' DESIGN.md | tr -d '`()' | sort -u); do
    if missing "$name"; then
        grep -n "\`$name\(()\)\{0,1\}\`" DESIGN.md | sed "s/^\([0-9]*\):.*/DESIGN.md:\1: $name/"
        found=1
    fi
done
for name in $(grep -o '`[^`]*`' DESIGN.md | sed -n 's/^`\([A-Z][a-z][A-Za-z0-9_]*\).*/\1/p' | sort -u); do
    if missing "$name"; then
        grep -n "\`$name\([^A-Za-z0-9_]\|$\)" DESIGN.md | sed "s/^\([0-9]*\):.*/DESIGN.md:\1: $name/"
        found=1
    fi
done
exit "$found"
