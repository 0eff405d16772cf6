//! F2 — Figure 2: scoped-linking resolution cost as the module DAG
//! deepens, and flat-vs-scoped namespace behavior.
//!
//! Shape: a symbol satisfied at depth *d* of the escalation chain costs
//! O(d) scope visits; the DAG walk itself is cheap next to the directory
//! scans it avoids repeating (cached per process).

use bench::{report, run_ok, sim_delta, sim_time};
use hemlock::{ShareClass, World};

/// A chain of depth `d`: main → c0 → c1 → … → c{d-1}; the leaf calls
/// `answer_fn`, which only the *root* provides — resolution must climb
/// the whole chain.
fn chain_world(d: usize) -> (World, String) {
    let mut world = World::new();
    for i in 0..d {
        let callee = if i + 1 < d {
            format!("c{}_fn", i + 1)
        } else {
            "answer_fn".into()
        };
        world
            .install_template(
                &format!("/shared/lib/c{i}.o"),
                &format!(
                    ".module c{i}\n.text\n.globl c{i}_fn\nc{i}_fn: addi sp, sp, -8\nsw ra, 0(sp)\n\
                     jal {callee}\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n"
                ),
            )
            .unwrap();
    }
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\n.globl answer_fn\n\
             main: addi sp, sp, -8\nsw ra, 0(sp)\njal c0_fn\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n\
             answer_fn: li v0, 99\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/a.out",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/c0.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    (world, exe)
}

fn simulated_table() {
    let mut rows = Vec::new();
    for d in [1usize, 4, 16] {
        let (mut world, exe) = chain_world(d);
        let t0 = sim_time(&world);
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert_eq!(world.exit_code(pid), Some(99), "log: {:?}", world.log);
        let stats = world.stats();
        assert!(stats.ldl.lazy_links as usize >= d);
        rows.push((
            format!(
                "chain depth {d}: run + {0} lazy links",
                stats.ldl.lazy_links
            ),
            sim_delta(t0, sim_time(&world)),
        ));
    }
    report(
        "F2",
        "scoped linking — resolution cost vs. DAG depth",
        &rows,
    );
}

fn main() {
    simulated_table();
}
