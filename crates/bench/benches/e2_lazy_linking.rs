//! E2 — lazy vs. eager vs. jump-table linking (§3).
//!
//! The paper's position: "Our fault-driven lazy linking mechanism is
//! slower than the jump table mechanism of SunOS, but works for both
//! functions and data objects, and does not require compiler support."
//! And the payoff: "It allows us to run processes with a huge
//! 'reachability graph' of external references, while linking only the
//! portions of that graph that are actually used during any particular
//! run."
//!
//! The workload: a program whose root module can reach `N` modules (a
//! chain of `.uses`), of which a run actually touches a fraction. Lazy
//! linking pays one fault + resolution per *touched* module; eager
//! linking resolves all `N` at startup; the jump-table model resolves
//! all data eagerly but functions on first call without faults.

use baseline::linking::{FaultDrivenInputs, FaultDrivenModel, JumpTableInputs, JumpTableModel};
use bench::{report, run_ok, sim_delta, sim_time};
use hemlock::{ShareClass, SimTime, World};

/// Builds a world with `n` chained modules: `mod_i` calls `mod_{i+1}`;
/// the last returns. `main(depth)` calls into the chain head; touching
/// `mod_0` transitively links `mod_0..depth` only.
fn chain_world(n: usize, touch_depth: usize) -> (World, String) {
    assert!(touch_depth <= n);
    let mut world = World::new();
    install_chain(&mut world, n);
    world
        .install_template(
            "/src/main.o",
            &format!(
                ".module main\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 li a0, {touch_depth}\njal mod0_fn\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n"
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

/// Installs the `n`-module `.uses` chain.
fn install_chain(world: &mut World, n: usize) {
    for i in 0..n {
        let body = if i + 1 < n {
            // Each module calls the next *conditionally*: it decrements
            // the depth argument in a0 and stops at zero, so a run only
            // executes (and therefore only needs) the first `depth`
            // modules. The reference to the next module still exists —
            // that is the big reachability graph.
            format!(
                ".module mod{i}\n.uses mod{next}\n.text\n.globl mod{i}_fn\n\
                 mod{i}_fn: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 addi a0, a0, -1\nblez a0, stop\njal mod{next}_fn\n\
                 b out\nstop: li v0, {i}\nout: lw ra, 0(sp)\naddi sp, sp, 8\njr ra\n",
                next = i + 1
            )
        } else {
            format!(".module mod{i}\n.text\n.globl mod{i}_fn\nmod{i}_fn: li v0, {i}\njr ra\n")
        };
        world
            .install_template(&format!("/shared/lib/mod{i}.o"), &body)
            .unwrap();
    }
}

fn run_measured(n: usize, depth: usize, eager: bool) -> (SimTime, u64, u64) {
    run_measured_cache(n, depth, eager, true)
}

fn run_measured_cache(n: usize, depth: usize, eager: bool, cache: bool) -> (SimTime, u64, u64) {
    let (mut world, exe) = chain_world(n, depth);
    world.eager = eager;
    world.set_bbcache(cache);
    let t0 = sim_time(&world);
    let pid = world.spawn(&exe).unwrap();
    run_ok(&mut world);
    assert!(world.exit_code(pid).is_some());
    let stats = world.stats();
    (
        sim_delta(t0, sim_time(&world)),
        stats.ldl.lazy_links,
        stats.ldl.symbols_resolved,
    )
}

fn simulated_table() {
    let mut rows = Vec::new();
    let n = 40;
    for depth in [1usize, 5, 20, 40] {
        let (lazy_t, lazy_links, _) = run_measured(n, depth, false);
        let (eager_t, _, eager_syms) = run_measured(n, depth, true);
        // Jump-table model: all N modules mapped, all data resolved
        // eagerly (here the chain has ~1 data symbol per module: the
        // function address entry), functions fixed up on first call.
        let jt = JumpTableModel::default();
        let jt_t = SimTime(jt.time_ns(&JumpTableInputs {
            modules: n as u64,
            data_symbols: n as u64,
            functions_used: depth as u64,
            total_calls: depth as u64,
        }));
        // Linking-only cost of the fault-driven run, from its measured
        // counters, so it is directly comparable to the jump-table model
        // (the lazy/eager rows above include the whole program run).
        let fd_t = SimTime(FaultDrivenModel::default().time_ns(&FaultDrivenInputs {
            modules_linked: lazy_links,
            symbols_resolved: lazy_links,
            faults: lazy_links,
        }));
        let _ = eager_syms;
        rows.push((
            format!("lazy run total      (N={n}, touched={depth})"),
            lazy_t,
        ));
        rows.push((
            format!("eager run total     (N={n}, touched={depth})"),
            eager_t,
        ));
        rows.push((
            format!("link-only: fault-driven model (touched={depth})"),
            fd_t,
        ));
        rows.push((
            format!("link-only: jump-table model   (touched={depth})"),
            jt_t,
        ));
    }
    // Block-cache identity row: the deepest lazy run with the decoded-
    // block cache disabled is simulated-time identical (E12 property).
    let (on_t, _, _) = run_measured(n, n, false);
    let (off_t, _, _) = run_measured_cache(n, n, false, false);
    assert_eq!(off_t, on_t, "bbcache must not move simulated time");
    rows.push((
        format!("lazy run total      (N={n}, touched={n}) (bbcache off)"),
        off_t,
    ));
    report(
        "E2",
        "linking discipline — startup+run cost vs. fraction of graph used",
        &rows,
    );
}

fn main() {
    simulated_table();
}
