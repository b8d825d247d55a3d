//! What `fraser-opt`'s hint table costs: at most 16 table bytes per key as
//! the list grows through its doublings, and exactly one table live once
//! the grace periods of the ones it replaced are over, and none once the
//! list is dropped, also when that table was on huge pages.
//!
//! One `#[test]` only: the count of live tables is process-wide, and tests
//! of one binary run in parallel.

use ascylib::api::ConcurrentMap;
use ascylib::skiplist::{hint_tables_live, FraserOptSkipList};
use ascylib_ssmem as ssmem;

#[test]
fn a_grown_list_keeps_one_table_of_at_most_16_bytes_per_key() {
    let list = FraserOptSkipList::new();
    let mut inserted = 0u64;
    for keys in [100_000u64, 250_000] {
        while inserted < keys {
            inserted += 1;
            // Scrambled order: 1 000 003 is prime, so this visits distinct keys.
            assert!(list.insert(1 + inserted * 48_271 % 1_000_003, inserted));
        }
        let per_key = list.hint_table_bytes() as f64 / keys as f64;
        assert!(per_key > 0.0, "{keys} keys and no table");
        assert!(per_key <= 16.0, "{per_key:.2} table bytes per key at {keys} keys");
    }
    // The grows retired the smaller tables; they go back to the system once
    // their grace periods are over.
    for _ in 0..2_000 {
        ssmem::collect();
        if hint_tables_live() == 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(hint_tables_live(), 1, "tables outlived the grace periods of their retirement");
    // The last table is one of 2 MiB or more, so the teardown below gives
    // back a huge-page mapping.
    assert!(list.hint_table_bytes() >= 2 << 20, "a {} B table", list.hint_table_bytes());
    drop(list);
    assert_eq!(hint_tables_live(), 0, "teardown leaked the table");
}
