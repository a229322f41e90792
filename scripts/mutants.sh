#!/bin/sh
# The mutant table: each row builds one `--cfg dst_mutation="<mutant>"`
# variant of the code and runs one test suite (optionally filtered to one
# test) that must FAIL against it. A row whose suite passes means the
# harness is blind to that bug.
#
#   scripts/mutants.sh [mutant ...]
#
# With arguments, only the rows of those mutants run. Each row's suite is
# built first (`--no-run`), so a mutant that does not compile is reported
# as such rather than counted as caught. Prints one verdict per row and
# exits 1 if any row's suite passed or did not build. Every mutant
# rebuilds the workspace; set CARGO_TARGET_DIR to keep that out of
# target/.
set -eu
cd "$(git rev-parse --show-toplevel)"

# What each mutant breaks, and what must notice:
#   commit_reorder            a batch's last entry is applied first; the
#                             commit-order checker sees program order broken
#   stats_after_unlock        a release is recorded after the unlock that
#                             hands the lock on; the next holder sees short counts
#   freelist                  a push raises the free list's count after
#                             unlocking; a pop answers None past a linked frame
#   no_version_check          the pin CAS trusts a fresh header, not the one
#                             its tag was validated under; the second row
#                             reaches it through `fetch_resident` from a
#                             session whose pin slots are all held
#   early_unmap               a dirty victim is unmapped before its
#                             write-back; a re-fetch reads a stale stamp
#   unguarded_recheck         a miss trusts the lock-free lookup instead of
#                             re-checking under its partition lock; two
#                             misses on one page both read it
#   stale_admit               a queued admission skips its generation check
#                             and binds a page into an invalidated frame
#   stash_leak                a session forgets the frames it evicted ahead;
#                             the miss storm's frame accounting loses them
#   write_ignores_readers     a writer does not wait for readers' pins; the
#                             torn-read checker sees half a write
#   writer_counts_itself_only a writer waits for pins == 1 and livelocks on
#                             the other queued writers
#   slot_published_late       a hit checks the header before publishing its
#                             slot pin, so an eviction passes between them
#   write_ignores_slots       a writer waits for header pins only and writes
#                             under a hit's slot pin
#   evict_ignores_slots       an eviction skips its slot scan and evicts a
#                             page a hit is reading (two suites must see it)
#   invalidate_ignores_slots  invalidate frees a page a hit is reading
#   simdisk_unguarded_read    a SimDisk read copies without its stripe's
#                             read lock and sees half an overwrite
#
# mutant | package (built with its `dst` feature) | test | filter
rows='
commit_reorder            | bpw-core       | dst_commit          |
stats_after_unlock        | bpw-core       | lock_counts         | dst_every_holder_sees_every_earlier_release
freelist                  | bpw-bufferpool | dst_free_list       |
no_version_check          | bpw-bufferpool | dst_hit_path        |
no_version_check          | bpw-bufferpool | dst_hit_path        | dst_fetch_resident_through_the_header_never_pins_an_evicted_page
early_unmap               | bpw-bufferpool | dst_evict_writeback |
unguarded_recheck         | bpw-bufferpool | dst_miss_storm      |
stale_admit               | bpw-bufferpool | dst_invalidate      |
stash_leak                | bpw-bufferpool | dst_miss_storm      |
write_ignores_readers     | bpw-bufferpool | dst_hit_path        |
writer_counts_itself_only | bpw-bufferpool | dst_hit_path        | dst_concurrent_writers_each_finish_and_one_wins_whole
slot_published_late       | bpw-bufferpool | dst_hit_path        | dst_fetch_resident_never_pins_an_evicted_page
write_ignores_slots       | bpw-bufferpool | dst_hit_path        | dst_a_read_never_sees_half_a_write
evict_ignores_slots       | bpw-bufferpool | dst_hit_path        |
evict_ignores_slots       | bpw-bufferpool | dst_miss_storm      |
invalidate_ignores_slots  | bpw-bufferpool | dst_invalidate      | dst_invalidate_never_frees_a_page_a_hit_reads
simdisk_unguarded_read    | bpw-bufferpool | simdisk_torn_read   |
'

only=" $* "
status=0
while IFS='|' read -r mutant package test filter; do
    [ -n "$mutant" ] || continue
    case $only in
        "  " | *" $mutant "*) ;;
        *) continue ;;
    esac
    label="$mutant / $package --test $test${filter:+ $filter}"
    flags="--cfg dst_mutation=\"$mutant\""
    set -- -q -p "$package" --features "$package/dst" --test "$test"
    if ! RUSTFLAGS=$flags cargo test "$@" --no-run >/dev/null 2>&1; then
        echo "DID NOT BUILD  $label"
        status=1
    elif RUSTFLAGS=$flags cargo test "$@" ${filter:+"$filter"} >/dev/null 2>&1; then
        echo "SURVIVED       $label"
        status=1
    else
        echo "killed         $label"
    fi
done <<EOF
$(echo "$rows" | tr -d ' ')
EOF
exit "$status"
