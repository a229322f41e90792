#!/bin/sh
# Every public function needs a caller: print each `pub fn` under
# crates/*/src whose name has no whole-word `git grep` hit outside its
# own file in crates/, tests/, examples/ or perfbench/src/, and exit 1
# if any was printed. Tracked files only — `git add` new ones first.
set -eu
cd "$(git rev-parse --show-toplevel)"
found=0
for file in $(git ls-files 'crates/*/src/*.rs'); do
    for name in $(sed -n 's/^[[:space:]]*pub \(const \|unsafe \)*fn \([A-Za-z_][A-Za-z0-9_]*\).*/\2/p' "$file" | sort -u); do
        if ! git grep -qw "$name" -- crates tests examples perfbench/src ":(exclude)$file"; then
            echo "$file: pub fn $name"
            found=1
        fi
    done
done
exit "$found"
