#!/bin/sh
# Every public item needs a user: print each `pub fn`, `pub struct`,
# `pub enum`, `pub trait`, `pub type`, `pub const`, `pub static` and
# `pub <field>:` under crates/*/src whose name has no whole-word
# `git grep` hit outside its own file in crates/, tests/, examples/ or
# perfbench/src/, and exit 1 if any was printed. A type, constant or
# static also counts as used when its name appears on a `pub fn` line of
# its own file, as an argument or return type. Tracked files only —
# `git add` new ones first.
set -eu
cd "$(git rev-parse --show-toplevel)"
found=0
used_elsewhere() {
    git grep -qw "$1" -- crates tests examples perfbench/src ":(exclude)$2"
}
for file in $(git ls-files 'crates/*/src/*.rs'); do
    for name in $(sed -n 's/^[[:space:]]*pub \(const \|unsafe \)*fn \([A-Za-z_][A-Za-z0-9_]*\).*/\2/p' "$file" | sort -u); do
        if ! used_elsewhere "$name" "$file"; then
            echo "$file: pub fn $name"
            found=1
        fi
    done
    for item in $(sed -n 's/^[[:space:]]*pub \(unsafe \)*\(struct\|enum\|trait\|type\|const\|static\) \(mut \)*\([A-Za-z_][A-Za-z0-9_]*\).*/\2:\4/p' "$file" | grep -v ':fn$' | sort -u); do
        kind=${item%%:*}
        name=${item#*:}
        if ! used_elsewhere "$name" "$file" &&
            ! grep -w "$name" "$file" | grep -q '^[[:space:]]*pub \(const \|unsafe \)*fn '; then
            echo "$file: pub $kind $name"
            found=1
        fi
    done
    for name in $(sed -n 's/^[[:space:]]*pub \([A-Za-z_][A-Za-z0-9_]*\):.*/\1/p' "$file" | sort -u); do
        if ! used_elsewhere "$name" "$file"; then
            echo "$file: pub field $name"
            found=1
        fi
    done
done
exit "$found"
