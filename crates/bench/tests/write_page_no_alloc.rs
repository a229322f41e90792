//! A `SimDisk` write stores the page in place at its offset of the
//! device's mapping: a page's first write, an overwrite and a shorter
//! overwrite neither allocate nor free. Three rows of the cost table
//! (`costs/mod.rs`).

mod costs;

use bpw_bufferpool::{SimDisk, Storage};

#[test]
fn rewriting_a_stored_page_touches_no_heap() {
    let disk = SimDisk::instant();
    let mut page = vec![0u8; 4096];
    for p in 0..64 {
        disk.write_page(p, &page).unwrap();
    }
    let same_length = costs::cost(|| {
        for round in 1..=4u8 {
            page.fill(round);
            for p in 0..64 {
                disk.write_page(p, &page).unwrap();
            }
        }
    });
    assert_eq!((disk.written_pages(), disk.writes()), (64, 5 * 64));
    let mut back = vec![0u8; 4096];
    disk.read_page(63, &mut back).unwrap();
    assert_eq!(back, page, "the overwrites landed");
    let new_length = costs::cost(|| disk.write_page(0, &page[..128]).unwrap());
    let first = costs::cost(|| {
        for p in 64..128 {
            disk.write_page(p, &page).unwrap();
        }
    });
    assert_eq!((disk.written_pages(), disk.writes()), (128, 6 * 64 + 1));
    #[rustfmt::skip]
    costs::check(&[
        // One stripe lock each; the stored copy is overwritten in place.
        ("SimDisk overwrite, same length", 256, [Some(256), Some(0), Some(0), None], same_length),
        // A shorter page is stored in place too; its length is one word.
        ("SimDisk overwrite, new length", 1, [Some(1), Some(0), Some(0), None], new_length),
        // A page's first write lands at its offset: nothing to allocate.
        ("SimDisk first write of a page", 64, [Some(64), Some(0), Some(0), None], first),
    ]);
}
