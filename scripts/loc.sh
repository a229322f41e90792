#!/bin/sh
# Net Rust line delta of the tree (index + working copy) against <rev>:
# `git diff --numstat <rev> -- '*.rs'` summed per crate and split into
# src / tests / benches+bin, so "every PR states its net line delta"
# (ROADMAP.md) is a command. Renames are followed (-M): a moved file
# counts only the lines that changed inside it. Untracked files are not
# in a diff — `git add` them first.
set -eu
rev=${1:?usage: scripts/loc.sh <rev>}
cd "$(git rev-parse --show-toplevel)"
git diff --numstat -M "$rev" -- '*.rs' | awk -F'\t' '
{
    path = $3
    # Rename forms: "a/{old => new}/b.rs" and "old.rs => new.rs"; file
    # the lines under the destination.
    if (match(path, /\{[^}]* => [^}]*\}/)) {
        inner = substr(path, RSTART + 1, RLENGTH - 2)
        sub(/^.* => /, "", inner)
        path = substr(path, 1, RSTART - 1) inner substr(path, RSTART + RLENGTH)
        gsub(/\/\//, "/", path)
    } else {
        sub(/^.* => /, "", path)
    }
    n = split(path, part, "/")
    if (part[1] == "crates" && n > 2) crate = part[2]
    else if (n > 1 && part[1] != "tests" && part[1] != "examples") crate = part[1]
    else crate = "(root)"
    if (path ~ /\/src\/bin\// || path ~ /\/benches\// || path ~ /^examples\//) kind = "bin"
    else if (path ~ /\/tests\// || path ~ /^tests\//) kind = "tests"
    else kind = "src"
    if (!(crate in seen)) { seen[crate] = 1; order[++crates] = crate }
    add[crate, kind] += $1; del[crate, kind] += $2
    add["total", kind] += $1; del["total", kind] += $2
}
function cell(c, k) { return sprintf("+%d/-%d", add[c, k], del[c, k]) }
function net(c,    k, s) {
    s = 0
    for (k in kinds) s += add[c, k] - del[c, k]
    return s
}
END {
    kinds["src"]; kinds["tests"]; kinds["bin"]
    printf "%-14s %14s %14s %14s %8s\n", "crate", "src", "tests", "benches+bin", "net"
    order[++crates] = "total"
    for (i = 1; i <= crates; i++) {
        c = order[i]
        printf "%-14s %14s %14s %14s %+8d\n", c, cell(c, "src"), cell(c, "tests"), cell(c, "bin"), net(c)
    }
}'
