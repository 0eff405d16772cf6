//! F3 — the kernel address↔file mapping (§3): the paper's linear lookup
//! table vs. the B-tree it plans for 64-bit systems, plus the boot-time
//! scan that rebuilds the table after a crash.

use bench::report_detailed;
use hemlock::SimTime;
use hkernel::{AddressSpace, KernelStats, MemBus, Prot};
use hsfs::{AddrLookup, SharedFs, PAGE_SIZE};
use hvm::Bus;

fn filled(n: u32) -> (SharedFs, Vec<u32>) {
    let mut s = SharedFs::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        s.create_file(&format!("/f{i}"), 0o666, 0).unwrap();
        addrs.push(s.path_to_addr(&format!("/f{i}")).unwrap());
    }
    (s, addrs)
}

fn simulated_table() {
    // Simulated cost = probe steps × per-step cost; report probe counts.
    let mut rows = Vec::new();
    for n in [16u32, 128, 1023] {
        for lookup in [AddrLookup::Linear, AddrLookup::BTree] {
            let (mut s, addrs) = filled(n);
            s.lookup = lookup;
            s.addr_probe_steps = 0;
            for a in &addrs {
                s.addr_to_ino(*a).unwrap();
            }
            let per_lookup = s.addr_probe_steps / addrs.len() as u64;
            rows.push((
                format!("{lookup:?} table, {n} segments"),
                SimTime(per_lookup * 200),
                format!("{per_lookup} probes/lookup"),
            ));
        }
    }
    // Guest-level translation: the per-process software TLB in front of
    // the page-table walk. The cold pass misses once per page; the warm
    // pass translates every access from the TLB (48 pages < TLB_ENTRIES,
    // and consecutive pages never collide in a direct-mapped TLB).
    let npages = 48u32;
    let base = 0x1000_0000u32;
    let mut aspace = AddressSpace::new();
    let mut shared = SharedFs::new();
    let mut text = hvm::BlockTable::default();
    aspace.map_anon(base, npages * PAGE_SIZE, Prot::RW).unwrap();
    let mut totals = KernelStats::default();
    let mut bus = MemBus::new(&mut aspace, &mut shared, &mut text, &mut totals);
    for pass in ["cold", "warm"] {
        let before = *bus.totals;
        for i in 0..npages {
            bus.load32(base + i * PAGE_SIZE).unwrap();
        }
        let s = *bus.totals;
        let (hits, misses) = (
            s.tlb_hits - before.tlb_hits,
            s.tlb_misses - before.tlb_misses,
        );
        rows.push((
            format!("guest TLB, {pass} pass over {npages} pages"),
            SimTime(misses * 200),
            format!("{hits} hits / {misses} misses"),
        ));
    }
    report_detailed("F3", "address→inode translation — linear vs. B-tree", &rows);
}

fn main() {
    simulated_table();
}
