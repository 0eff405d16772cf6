//! The configuration lattice: one differential harness proves that
//! every subsystem claimed free is free, and that every run conserves
//! its counters, whatever else is switched on (DESIGN.md §5).
//!
//! A fixed corpus runs in all 48 cells of bbcache{on,off} ×
//! storage{plain, journal, journal+integrity} × sanitizer{off,armed} ×
//! cpus{1,4} × budget{unbounded, half} (`common::Cell::lattice`), where
//! every switch must visibly take effect. Every cell must
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

use common::{run_cell, sweep, Cell, Shape, RWHO_READERS, RWHO_SUM, SHAPES};
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    /// Any quantum: one shape on one CPU count's 24 cells.
    #[test]
    fn any_quantum_keeps_the_lattice(
        quantum in 40u64..500,
        shape in 0..SHAPES.len(),
        four_cpus in 0u32..2,
    ) {
        let cpus = if four_cpus == 1 { 4 } else { 1 };
        let cells: Vec<Cell> = Cell::lattice().into_iter().filter(|c| c.cpus == cpus).collect();
        sweep(SHAPES[shape], quantum, &cells);
    }
}
