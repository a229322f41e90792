#!/bin/sh
# Every name DESIGN.md cites must exist: print each backticked snake_case
# name in DESIGN.md (`two_words`, or `two_words()`) that has no
# whole-word `git grep` hit in crates/, tests/, examples/, perfbench/,
# third_party/, scripts/ or .github/, with the line that cites it, and
# exit 1 if any was printed. Tracked files only — `git add` new ones first.
set -eu
cd "$(git rev-parse --show-toplevel)"
found=0
for name in $(grep -o '`[a-z][a-z0-9]*_[a-z0-9_]*\(()\)\{0,1\}`' DESIGN.md | tr -d '`()' | sort -u); do
    if ! git grep -qw "$name" -- crates tests examples perfbench third_party scripts .github; then
        grep -n "\`$name\(()\)\{0,1\}\`" DESIGN.md | sed "s/^\([0-9]*\):.*/DESIGN.md:\1: $name/"
        found=1
    fi
done
exit "$found"
