//! E15 — persistent prelink snapshots (DESIGN.md §15): what cross-boot
//! link-state caching buys, and what it must not cost.
//!
//! Three claims, each pinned by a gated row:
//!
//! 1. **Cold boots are free.** A first run with snapshots on pays
//!    exactly what a snapshots-off run pays — the miss is unpriced and
//!    the rebuild is unpriced cache maintenance. Asserted equal,
//!    nanosecond for nanosecond.
//! 2. **Warm boots win big.** After a clean reboot, a snapshot hit
//!    replaces the 40-module eager chain's per-symbol resolution with
//!    one flat validation charge — at least 2x fewer simulated ns.
//! 3. **Staleness costs one validation, no more.** A snapshot
//!    invalidated by a shared write bills the flat
//!    `snapshot_validate_ns` on top of the full resolution it falls
//!    back to — asserted exactly.

use bench::{report, run_ok, sim_delta, sim_time};
use hemlock::{CostModel, ShareClass, SimTime, World};

const N: usize = 40;

/// Installs an `N`-module `.uses` chain (cf. `e2_lazy_linking`):
/// `mod_i` calls `mod_{i+1}`, the last returns its index. The tail
/// module also exports a data word, `pad` — a harmless shared-write
/// target the stale lane pokes to invalidate the snapshot without
/// changing any code the run executes.
fn install_chain(world: &mut World) {
    for i in 0..N {
        let body = if i + 1 < N {
            format!(
                ".module mod{i}\n.uses mod{next}\n.text\n.globl mod{i}_fn\n\
                 mod{i}_fn: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 addi a0, a0, -1\nblez a0, stop\njal mod{next}_fn\n\
                 b out\nstop: li v0, {i}\nout: lw ra, 0(sp)\naddi sp, sp, 8\njr ra\n",
                next = i + 1
            )
        } else {
            format!(
                ".module mod{i}\n.text\n.globl mod{i}_fn\nmod{i}_fn: li v0, {i}\njr ra\n\
                 .data\n.globl pad\npad: .word 0\n"
            )
        };
        world
            .install_template(&format!("/shared/lib/mod{i}.o"), &body)
            .unwrap();
    }
}

/// A world holding the eager chain program, snapshots as given.
fn chain_world(snapshots: bool) -> (World, String) {
    let mut world = World::new();
    world.eager = true;
    world.set_link_snapshots(snapshots);
    install_chain(&mut world);
    world
        .install_template(
            "/src/main.o",
            &format!(
                ".module main\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 li a0, {N}\njal mod0_fn\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n"
            ),
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/chain",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/mod0.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    (world, exe)
}

/// Spawns and runs the chain once, returning the run's simulated time.
fn run_once(world: &mut World, exe: &str) -> SimTime {
    let t0 = sim_time(world);
    let pid = world.spawn(exe).unwrap();
    run_ok(world);
    assert!(world.exit_code(pid).is_some());
    sim_delta(t0, sim_time(world))
}

/// Cold boot: build and first run. Returns the run time and the world
/// (warm lanes continue from it).
fn cold(snapshots: bool) -> (World, String, SimTime) {
    let (mut world, exe) = chain_world(snapshots);
    let t = run_once(&mut world, &exe);
    (world, exe, t)
}

/// Reboots the cold world cleanly and measures a second run — a
/// snapshot hit (snapshots on), a full re-resolution (off), or an
/// invalidation + re-resolution (`stale` pokes a shared data word
/// between the boots).
fn warm(snapshots: bool, stale: bool) -> (SimTime, u64, u64, u64) {
    let (mut world, exe, _) = cold(snapshots);
    world.reboot();
    if stale {
        world
            .poke_shared_word(&format!("/shared/lib/mod{}", N - 1), "pad", 0xBEEF)
            .unwrap();
    }
    // Counters accumulate across boots; the warm run's share is the
    // delta over the second spawn.
    let s0 = world.stats();
    let t = run_once(&mut world, &exe);
    let s = world.stats();
    (
        t,
        s.snapshot_hits - s0.snapshot_hits,
        s.snapshot_invalidations - s0.snapshot_invalidations,
        s.ldl.symbols_resolved - s0.ldl.symbols_resolved,
    )
}

fn simulated_table() {
    let mut rows = Vec::new();

    // 1. Cold identity: the miss and the rebuild are both unpriced.
    let (_, _, cold_on) = cold(true);
    let (_, _, cold_off) = cold(false);
    assert_eq!(
        cold_on, cold_off,
        "a cold boot with snapshots on must cost exactly a snapshots-off boot"
    );
    rows.push((format!("cold boot, snapshots on  (N={N} eager)"), cold_on));
    rows.push((format!("cold boot, snapshots off (N={N} eager)"), cold_off));

    // 2. Warm win: one flat validation beats per-symbol resolution.
    let (warm_on, hits, _, resolved_on) = warm(true, false);
    let (warm_off, _, _, resolved_off) = warm(false, false);
    assert!(hits >= 1, "the warm boot must validate and hit");
    assert_eq!(resolved_on, 0, "a hit must skip symbol resolution");
    assert!(resolved_off > 0, "the off twin must resolve for real");
    assert!(
        warm_off.0 >= 2 * warm_on.0,
        "snapshot hit must be at least 2x cheaper: hit {warm_on} vs full {warm_off}"
    );
    rows.push((format!("warm boot, snapshot hit  (N={N} eager)"), warm_on));
    rows.push((format!("warm boot, snapshots off (N={N} eager)"), warm_off));

    // 3. Staleness: exactly one validation charge on top of the full
    //    resolution the invalidated run falls back to.
    let (warm_stale, _, invals, _) = warm(true, true);
    // The off twin of the stale scenario takes the same (unpriced,
    // code-invisible) poke, so the two runs differ only in the
    // snapshot consultation itself.
    let (warm_off_poked, _, _, _) = warm(false, true);
    assert_eq!(invals, 1, "the poked snapshot must invalidate, not hit");
    let fee = CostModel::default().snapshot_validate_ns;
    assert_eq!(
        warm_stale.0,
        warm_off_poked.0 + fee,
        "a stale snapshot must cost exactly one validation over the cold path"
    );
    rows.push((
        format!("warm boot, stale snapshot (N={N} eager)"),
        warm_stale,
    ));

    report(
        "E15",
        "prelink snapshots — free when cold, 2x+ when warm, one fee when stale",
        &rows,
    );
}

fn main() {
    simulated_table();
}
