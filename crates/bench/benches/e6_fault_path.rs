//! E6 — the fault-handling path (§2): fault → translate address → map
//! segment → restart, vs. warm access, vs. explicit `map_segment`.
//!
//! The shape: the first touch of an unmapped segment costs a fault plus
//! the kernel's address→name translation plus the map; every subsequent
//! access is an ordinary load. Programs that know the path in advance
//! can pre-map with one service call and avoid the fault entirely — but
//! pointer-following requires no prior knowledge, which is the point.

use bench::{report_detailed, run_ok, sim_delta, sim_time};
use hemlock::{ShareClass, World};
use hsfs::AddrLookup;

/// A world with `nsegs` raw shared segments; returns their base
/// addresses.
fn seg_world(nsegs: u32) -> (World, Vec<u32>) {
    let mut world = World::new();
    let mut addrs = Vec::new();
    for i in 0..nsegs {
        world
            .kernel
            .vfs
            .create_file(&format!("/shared/s{i}"), 0o666, 1)
            .unwrap();
        let a = world
            .kernel
            .vfs
            .path_to_addr(&format!("/shared/s{i}"))
            .unwrap();
        world
            .kernel
            .vfs
            .write(&format!("/shared/s{i}"), 0, &(i + 1).to_le_bytes())
            .unwrap();
        addrs.push(a);
    }
    (world, addrs)
}

/// A guest that loads from `addr` `touches` times and exits with the sum.
fn toucher(world: &mut World, addr: u32, touches: u32) -> String {
    world
        .install_template(
            "/src/t.o",
            &format!(
                ".module t\n.text\n.globl main\nmain: li r8, {addr}\nli r16, {touches}\nli r17, 0\n\
                 loop: blez r16, done\nlw r9, 0(r8)\nadd r17, r17, r9\naddi r16, r16, -1\nb loop\n\
                 done: or v0, r17, r0\njr ra\n"
            ),
        )
        .unwrap();
    world
        .link("/bin/t", &[("/src/t.o", ShareClass::StaticPrivate)])
        .unwrap()
}

fn simulated_table() {
    let mut rows = Vec::new();
    // Cold touch: one fault maps the segment.
    for touches in [1u32, 10, 1000] {
        let (mut world, addrs) = seg_world(1);
        let exe = toucher(&mut world, addrs[0], touches);
        let t0 = sim_time(&world);
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert_eq!(world.exit_code(pid).unwrap() as u32, touches);
        // Warm-vs-cold breakdown: the first touch walks the page table
        // (TLB miss); the rest of the loop translates via the TLB. The
        // counts are diagnostics, not identity — they ride in the detail
        // column so the regression gate keys stay stable.
        let s = world.stats();
        rows.push((
            format!("fault-mapped segment, {touches} accesses"),
            sim_delta(t0, sim_time(&world)),
            format!(
                "TLB {:.1}% hit, {} misses",
                100.0 * s.tlb_hit_rate(),
                s.tlb_misses
            ),
        ));
    }
    // E9 gate: the same cold-touch run with the happens-before
    // sanitizer armed. A pure observer adds zero simulated time, so the
    // armed row must equal the unarmed one exactly (well under the <3x
    // acceptance bound); baking it into the baseline keeps it that way.
    for touches in [1u32, 1000] {
        let (mut world, addrs) = seg_world(1);
        let exe = toucher(&mut world, addrs[0], touches);
        world.arm_sanitizer();
        let t0 = sim_time(&world);
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert_eq!(world.exit_code(pid).unwrap() as u32, touches);
        assert_eq!(world.stats().races_detected, 0, "{:?}", world.log);
        let armed = sim_delta(t0, sim_time(&world));
        let plain = rows
            .iter()
            .find_map(|(l, t, _)| {
                (l == &format!("fault-mapped segment, {touches} accesses")).then_some(*t)
            })
            .unwrap();
        assert_eq!(armed, plain, "sanitizer must add zero simulated time");
        rows.push((
            format!("fault-mapped segment, {touches} accesses (sanitized)"),
            armed,
            String::new(),
        ));
    }
    // Many segments: one fault each (pointer-walk across N segments).
    for nsegs in [1u32, 16, 64] {
        let (mut world, addrs) = seg_world(nsegs);
        // Touch each segment once via a generated unrolled program.
        let body: String = addrs
            .iter()
            .map(|a| format!("li r8, {a}\nlw r9, 0(r8)\nadd r17, r17, r9\n"))
            .collect();
        world
            .install_template(
                "/src/t.o",
                &format!(
                    ".module t\n.text\n.globl main\nmain: li r17, 0\n{body}or v0, r17, r0\njr ra\n"
                ),
            )
            .unwrap();
        let exe = world
            .link("/bin/t", &[("/src/t.o", ShareClass::StaticPrivate)])
            .unwrap();
        let t0 = sim_time(&world);
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert_eq!(
            world.exit_code(pid).unwrap() as u32,
            (1..=nsegs).sum::<u32>()
        );
        let stats = world.stats();
        assert_eq!(stats.ldl.segments_mapped as u32, nsegs);
        rows.push((
            format!("walk across {nsegs} segments (1 fault each)"),
            sim_delta(t0, sim_time(&world)),
            format!("TLB {:.1}% hit", 100.0 * stats.tlb_hit_rate()),
        ));
    }
    // Ablation: the linear table vs. the B-tree under many lookups.
    for lookup in [AddrLookup::Linear, AddrLookup::BTree] {
        let (mut world, addrs) = seg_world(200);
        world.kernel.vfs.shared.lookup = lookup;
        let t0 = sim_time(&world);
        for a in addrs.iter().rev() {
            world.kernel.vfs.shared.addr_to_ino(*a).unwrap();
        }
        rows.push((
            format!("addr→ino x200, {lookup:?} table (200 segments)"),
            sim_delta(t0, sim_time(&world)),
            String::new(),
        ));
    }
    report_detailed(
        "E6",
        "fault path — first touch vs. warm access; table ablation",
        &rows,
    );
}

fn main() {
    simulated_table();
}
