//! Property tests for the address-space allocator and copy-on-write —
//! the memory substrate under every mapping the linkers create.

use hkernel::{AddressSpace, KernelStats, Prot};
use hsfs::{SharedFs, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    /// find_free never proposes a range overlapping an existing mapping,
    /// and mapping at its result always succeeds.
    #[test]
    fn find_free_is_sound(
        sizes in proptest::collection::vec(1u32..5, 1..20),
    ) {
        let mut a = AddressSpace::new();
        let lo = 0x2000_0000;
        let hi = 0x2100_0000;
        for pages in sizes {
            let len = pages * PAGE_SIZE;
            if let Some(base) = a.find_free(len, lo, hi) {
                prop_assert!(base >= lo && base + len <= hi);
                prop_assert!(a.map_anon(base, len, Prot::RW).is_ok());
            }
        }
    }

    /// After fork, parent and child diverge exactly where each writes;
    /// unwritten pages stay identical; copy counts equal the number of
    /// distinct pages the child dirtied.
    #[test]
    fn cow_divergence_is_page_precise(
        writes in proptest::collection::vec((0u32..8, any::<u8>()), 1..24),
    ) {
        let mut shared = SharedFs::new();
        let mut totals = KernelStats::default();
        let mut parent = AddressSpace::new();
        let base = 0x1000_0000;
        parent.map_anon(base, 8 * PAGE_SIZE, Prot::RW).unwrap();
        for p in 0..8u32 {
            parent
                .write_bytes(&mut shared, &mut totals, base + p * PAGE_SIZE, &[p as u8; 16])
                .unwrap();
        }
        let mut child = parent.fork_clone();
        let mut dirtied = std::collections::HashSet::new();
        for (page, val) in writes {
            child
                .write_bytes(&mut shared, &mut totals, base + page * PAGE_SIZE + 64, &[val])
                .unwrap();
            dirtied.insert(page);
        }
        // The parent's writes had no sharer to copy away from.
        prop_assert_eq!(totals.cow_copies as usize, dirtied.len());
        for p in 0..8u32 {
            let addr = base + p * PAGE_SIZE;
            let parent_bytes = parent.read_bytes(&shared, addr, 16).unwrap();
            prop_assert_eq!(parent_bytes, vec![p as u8; 16], "parent page {} intact", p);
            if !dirtied.contains(&p) {
                let child_bytes = child.read_bytes(&shared, addr, 16).unwrap();
                prop_assert_eq!(child_bytes, vec![p as u8; 16], "clean page {} shared", p);
            }
        }
    }

    /// map / unmap round-trips leave the space empty, whatever the order.
    #[test]
    fn map_unmap_balanced(
        slots in proptest::collection::vec(0u32..16, 1..12),
    ) {
        let mut a = AddressSpace::new();
        let base = 0x1000_0000;
        let mut mapped = std::collections::HashSet::new();
        for s in &slots {
            let addr = base + s * PAGE_SIZE;
            if mapped.insert(*s) {
                prop_assert!(a.map_anon(addr, PAGE_SIZE, Prot::RW).is_ok());
            } else {
                // Second attempt must be rejected as an overlap.
                prop_assert!(a.map_anon(addr, PAGE_SIZE, Prot::RW).is_err());
            }
        }
        for s in &mapped {
            prop_assert!(a.unmap(base + s * PAGE_SIZE, PAGE_SIZE).is_ok());
        }
        prop_assert_eq!(a.page_count(), 0);
    }
}
