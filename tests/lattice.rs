//! The configuration lattice: one differential harness proves that
//! every subsystem claimed free is free, and that every run conserves
//! its counters, whatever else is switched on (DESIGN.md §5).
//!
//! A fixed corpus runs in all 48 cells of bbcache{on,off} ×
//! storage{plain, journal, journal+integrity} × sanitizer{off,armed} ×
//! cpus{1,4} × budget{unbounded, half} (`common::Cell::lattice`), where
//! every switch must visibly take effect; the random-quantum property
//! also runs the one-CPU half at 2 and 8 CPUs. Every cell must
//!
//! 1. replay byte-identically: observables, clock, trace with `seq`,
//!    `WorldStats` and the shared partition's digest;
//! 2. pass `World::audit`;
//! 3. show its reference cell's guest observables (exits, consoles,
//!    shared words, and race reports when armed): CPU count and budget
//!    change when things happen and what they cost, never the answers.
//!    The racy counter's answer *is* its interleaving, so there the
//!    reference shares the CPU count;
//! 4. match its group's reference (same CPU count and budget, default
//!    cache, storage and sanitizer) in simulated ns, trace, `WorldStats`
//!    and digest, except what the differing toggles' `common::Mask`
//!    entries forgive.

mod common;

use common::{
    block_drop_pids, run_cell, sweep, Cell, Shape, EAGER_CHAIN_DEPTH, EAGER_CHAIN_MODULES,
    FORKWAIT_CHILDREN, FORKWAIT_SUM, RWHO_READERS, RWHO_SUM, SHAPES, SHARED_TEXT_SUM,
};
use proptest::prelude::*;

// --- every shape in every cell, at the quantum its own suite uses ---

#[test]
fn pressure_workers() {
    sweep(Shape::Pressure, 300, &Cell::lattice());
}

#[test]
fn pressure_workers_with_dropped_shootdowns() {
    sweep(Shape::DroppedShootdowns, 300, &Cell::lattice());
}

#[test]
fn hsan_counter_locked() {
    sweep(Shape::Locked, 50, &Cell::lattice());
}

#[test]
fn hsan_counter_elided() {
    sweep(Shape::Elided, 50, &Cell::lattice());
}

#[test]
fn crash_free_workload() {
    sweep(Shape::Workload, 300, &Cell::lattice());
}

#[test]
fn lazy_chain() {
    sweep(Shape::Chain, 300, &Cell::lattice());
}

#[test]
fn fuzz_regression_program() {
    sweep(Shape::Fuzz, 300, &Cell::lattice());
}

#[test]
fn rwho_readers() {
    sweep(Shape::Rwho, 300, &Cell::lattice());
    let (replay, _) = run_cell(Shape::Rwho, Cell::lattice()[0], 300, None, false);
    assert_eq!(replay.obs.exits, [Some(RWHO_SUM); RWHO_READERS]);
}

#[test]
fn fork_wait() {
    sweep(Shape::ForkWait, 300, &Cell::lattice());
    let (replay, _) = run_cell(Shape::ForkWait, Cell::lattice()[0], 300, None, false);
    assert_eq!(replay.obs.exits, [Some(FORKWAIT_SUM)]);
    assert_eq!(replay.obs.shared, [1 + FORKWAIT_CHILDREN as u32]);
}

#[test]
fn eager_chain() {
    sweep(Shape::EagerChain, 300, &Cell::lattice());
    let (replay, world) = run_cell(Shape::EagerChain, Cell::lattice()[0], 300, None, false);
    assert_eq!(replay.obs.exits, [Some(EAGER_CHAIN_DEPTH as i32 - 1)]);
    // Init resolved all 40 references (main's and 39 `.uses` edges),
    // so no fault ever reached the linker.
    let ldl = world.stats().ldl;
    let resolved = (ldl.symbols_resolved, ldl.faults_resolved, ldl.lazy_links);
    assert_eq!(resolved, (EAGER_CHAIN_MODULES as u64, 0, 0));
}

#[test]
fn shared_text() {
    let stats = sweep(Shape::SharedText, 300, &Cell::lattice());
    let (replay, world) = run_cell(Shape::SharedText, Cell::lattice()[0], 300, None, false);
    assert_eq!(replay.obs.exits, [Some(SHARED_TEXT_SUM)]);
    // With the cache on, the readers shared the block and the patcher's
    // store dropped it: one `store-exec` record, and its pid is the
    // patcher's, the third child.
    assert_eq!(block_drop_pids(&world, "store-exec"), [4]);
    assert!(stats[0].bblock_hits > 0, "{:?}", stats[0]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    /// Any quantum and CPU count in {1, 2, 4, 8}: one shape on the 24
    /// cells of that CPU count.
    #[test]
    fn any_quantum_keeps_the_lattice(
        quantum in 40u64..500,
        shape in 0..SHAPES.len(),
        cpu_log in 0u32..4,
    ) {
        let cpus = 1 << cpu_log;
        let cells: Vec<Cell> = Cell::slice(|c| c.cpus == 1)
            .into_iter()
            .map(|c| Cell { cpus, ..c })
            .collect();
        sweep(SHAPES[shape], quantum, &cells);
    }
}
