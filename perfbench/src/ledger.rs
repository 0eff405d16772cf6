//! The simulated-time ledger: one row per `CostModel::time` term,
//! computed from `WorldStats` and the public `CostModel` fields. The
//! rows must sum *exactly* to `CostModel::time`; a term added there but
//! not here breaks that, and every run checks it.

use hemlock::{CostModel, WorldStats};

/// Row names, in `CostModel::time` order. Each becomes `sim.<term>_ms`.
pub const TERMS: [&str; 13] = [
    "instr",
    "syscall",
    "fault",
    "disk",
    "lookup",
    "probe",
    "resolve",
    "cow",
    "pressure",
    "smp",
    "recovery",
    "integrity",
    "snapshot",
];

/// Simulated ns per term for the counters in `s`.
pub fn rows(m: &CostModel, s: &WorldStats) -> [u64; 13] {
    let blocks = s.root_fs.blocks_read
        + s.root_fs.blocks_written
        + s.shared_fs.blocks_read
        + s.shared_fs.blocks_written;
    [
        s.kernel.instructions * m.instruction_ns,
        (s.kernel.syscalls + s.kernel.services) * m.syscall_ns,
        s.kernel.segv_faults * m.fault_ns,
        blocks * m.disk_block_ns,
        (s.root_fs.lookups + s.shared_fs.lookups) * m.lookup_ns,
        s.addr_probe_steps * m.probe_ns,
        (s.ldl.symbols_resolved + s.ldl.symbols_unresolved) * m.resolve_ns,
        s.cow_copies * m.cow_ns,
        s.page_evictions * m.evict_ns
            + (s.page_writebacks + s.swap_outs) * m.swap_io_ns
            + s.swap_ins * m.swap_in_ns,
        s.ipis * m.ipi_ns + s.shootdowns * m.shootdown_ns,
        s.recovery_ns,
        s.blocks_scrubbed * m.scrub_block_ns + s.blocks_repaired * m.repair_ns,
        (s.snapshot_hits + s.snapshot_invalidations) * m.snapshot_validate_ns,
    ]
}

/// The counters accumulated between two snapshots of one world.
/// Gauges (resident frames, budget) keep their `after` value.
pub fn diff(before: &WorldStats, after: &WorldStats) -> WorldStats {
    zip(after, before, |x, y| x - y)
}

/// Counters of two intervals (of different worlds) added together.
pub fn add(a: &WorldStats, b: &WorldStats) -> WorldStats {
    zip(a, b, |x, y| x + y)
}

/// `x`'s counters combined with `y`'s, field by field, by `f`; gauges
/// keep `x`'s value.
fn zip(x: &WorldStats, y: &WorldStats, f: impl Fn(u64, u64) -> u64) -> WorldStats {
    let mut d = *x;
    let k = &mut d.kernel;
    k.instructions = f(k.instructions, y.kernel.instructions);
    k.syscalls = f(k.syscalls, y.kernel.syscalls);
    k.services = f(k.services, y.kernel.services);
    k.segv_faults = f(k.segv_faults, y.kernel.segv_faults);
    k.forks = f(k.forks, y.kernel.forks);
    k.dispatches = f(k.dispatches, y.kernel.dispatches);
    k.cow_copies = f(k.cow_copies, y.kernel.cow_copies);
    k.tlb_hits = f(k.tlb_hits, y.kernel.tlb_hits);
    k.tlb_misses = f(k.tlb_misses, y.kernel.tlb_misses);
    k.ipis = f(k.ipis, y.kernel.ipis);
    k.shootdowns = f(k.shootdowns, y.kernel.shootdowns);
    k.cross_cpu_steals = f(k.cross_cpu_steals, y.kernel.cross_cpu_steals);
    for (fd, fy) in [
        (&mut d.root_fs, &y.root_fs),
        (&mut d.shared_fs, &y.shared_fs),
    ] {
        fd.lookups = f(fd.lookups, fy.lookups);
        fd.opens = f(fd.opens, fy.opens);
        fd.reads = f(fd.reads, fy.reads);
        fd.bytes_read = f(fd.bytes_read, fy.bytes_read);
        fd.writes = f(fd.writes, fy.writes);
        fd.bytes_written = f(fd.bytes_written, fy.bytes_written);
        fd.blocks_read = f(fd.blocks_read, fy.blocks_read);
        fd.blocks_written = f(fd.blocks_written, fy.blocks_written);
        fd.creates = f(fd.creates, fy.creates);
        fd.removes = f(fd.removes, fy.removes);
    }
    d.addr_lookups = f(d.addr_lookups, y.addr_lookups);
    d.addr_probe_steps = f(d.addr_probe_steps, y.addr_probe_steps);
    let l = &mut d.ldl;
    l.faults_resolved = f(l.faults_resolved, y.ldl.faults_resolved);
    l.lazy_links = f(l.lazy_links, y.ldl.lazy_links);
    l.init_links = f(l.init_links, y.ldl.init_links);
    l.segments_mapped = f(l.segments_mapped, y.ldl.segments_mapped);
    l.symbols_resolved = f(l.symbols_resolved, y.ldl.symbols_resolved);
    l.symbols_unresolved = f(l.symbols_unresolved, y.ldl.symbols_unresolved);
    l.trampolines = f(l.trampolines, y.ldl.trampolines);
    l.dir_scans = f(l.dir_scans, y.ldl.dir_scans);
    l.cross_domain_resolutions = f(l.cross_domain_resolutions, y.ldl.cross_domain_resolutions);
    l.resolve_cache_hits = f(l.resolve_cache_hits, y.ldl.resolve_cache_hits);
    l.link_retries = f(l.link_retries, y.ldl.link_retries);
    l.retry_backoff_steps = f(l.retry_backoff_steps, y.ldl.retry_backoff_steps);
    l.snapshot_hits = f(l.snapshot_hits, y.ldl.snapshot_hits);
    l.snapshot_misses = f(l.snapshot_misses, y.ldl.snapshot_misses);
    l.snapshot_invalidations = f(l.snapshot_invalidations, y.ldl.snapshot_invalidations);
    l.snapshot_rebuilds = f(l.snapshot_rebuilds, y.ldl.snapshot_rebuilds);
    d.cow_copies = f(d.cow_copies, y.cow_copies);
    d.tlb_hits = f(d.tlb_hits, y.tlb_hits);
    d.tlb_misses = f(d.tlb_misses, y.tlb_misses);
    d.faults_injected = f(d.faults_injected, y.faults_injected);
    d.faults_recovered = f(d.faults_recovered, y.faults_recovered);
    d.page_evictions = f(d.page_evictions, y.page_evictions);
    d.page_writebacks = f(d.page_writebacks, y.page_writebacks);
    d.swap_outs = f(d.swap_outs, y.swap_outs);
    d.swap_ins = f(d.swap_ins, y.swap_ins);
    d.oom_kills = f(d.oom_kills, y.oom_kills);
    d.shootdowns = f(d.shootdowns, y.shootdowns);
    d.ipis = f(d.ipis, y.ipis);
    d.cross_cpu_steals = f(d.cross_cpu_steals, y.cross_cpu_steals);
    d.bblocks_built = f(d.bblocks_built, y.bblocks_built);
    d.bblock_hits = f(d.bblock_hits, y.bblock_hits);
    d.bblock_invalidations = f(d.bblock_invalidations, y.bblock_invalidations);
    d.crashes = f(d.crashes, y.crashes);
    d.journal_replays = f(d.journal_replays, y.journal_replays);
    d.blocks_discarded = f(d.blocks_discarded, y.blocks_discarded);
    d.recovery_ns = f(d.recovery_ns, y.recovery_ns);
    d.blocks_scrubbed = f(d.blocks_scrubbed, y.blocks_scrubbed);
    d.corruptions_detected = f(d.corruptions_detected, y.corruptions_detected);
    d.blocks_repaired = f(d.blocks_repaired, y.blocks_repaired);
    d.eio_kills = f(d.eio_kills, y.eio_kills);
    d.snapshot_hits = f(d.snapshot_hits, y.snapshot_hits);
    d.snapshot_misses = f(d.snapshot_misses, y.snapshot_misses);
    d.snapshot_invalidations = f(d.snapshot_invalidations, y.snapshot_invalidations);
    d.snapshot_rebuilds = f(d.snapshot_rebuilds, y.snapshot_rebuilds);
    d
}

/// Whether the ledger of the interval `before..after` sums exactly to
/// the simulated time `CostModel::time` bills for that interval.
pub fn conserved(m: &CostModel, before: &WorldStats, after: &WorldStats) -> bool {
    let total = m.time(after).0 - m.time(before).0;
    rows(m, &diff(before, after)).iter().sum::<u64>() == total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_priced_counter_lands_in_one_row() {
        let m = CostModel::default();
        let mut s = WorldStats::default();
        s.kernel.instructions = 3;
        s.kernel.syscalls = 5;
        s.kernel.services = 7;
        s.kernel.segv_faults = 11;
        s.root_fs.blocks_read = 13;
        s.shared_fs.blocks_written = 17;
        s.shared_fs.lookups = 19;
        s.addr_probe_steps = 23;
        s.ldl.symbols_resolved = 29;
        s.ldl.symbols_unresolved = 31;
        s.cow_copies = 37;
        s.page_evictions = 41;
        s.page_writebacks = 43;
        s.swap_outs = 47;
        s.swap_ins = 53;
        s.ipis = 59;
        s.shootdowns = 61;
        s.recovery_ns = 67;
        s.blocks_scrubbed = 71;
        s.blocks_repaired = 73;
        s.snapshot_hits = 79;
        s.snapshot_invalidations = 83;
        s.snapshot_misses = 89;
        s.snapshot_rebuilds = 97;
        assert_eq!(rows(&m, &s).iter().sum::<u64>(), m.time(&s).0);
        assert!(rows(&m, &s).iter().all(|&ns| ns > 0));
        assert!(conserved(&m, &WorldStats::default(), &s));
    }
}
