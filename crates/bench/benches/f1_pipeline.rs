//! F1 — Figure 1: cost of each stage of the build-and-run pipeline
//! (assemble → lds → spawn/exec → crt0+ldl → main).

use bench::{report, run_ok, sim_delta, sim_time};
use hemlock::{ShareClass, World};

const MAIN: &str = ".module main\n.text\n.globl main\nmain: li v0, 1\njr ra\n";
const LIB: &str = r#"
.module lib
.text
.globl lib_fn
lib_fn: li v0, 2
        jr ra
.data
.globl lib_data
lib_data: .word 7
"#;

fn simulated_table() {
    let mut world = World::new();
    let mut rows = Vec::new();
    let t0 = sim_time(&world);
    world.install_template("/src/main.o", MAIN).unwrap();
    world.install_template("/shared/lib/lib.o", LIB).unwrap();
    rows.push((
        "assemble two templates (cc stage)".into(),
        sim_delta(t0, sim_time(&world)),
    ));
    let t0 = sim_time(&world);
    let exe = world
        .link(
            "/bin/a.out",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/lib.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    rows.push(("lds static link".into(), sim_delta(t0, sim_time(&world))));
    let t0 = sim_time(&world);
    let pid = world.spawn(&exe).unwrap();
    run_ok(&mut world);
    assert_eq!(world.exit_code(pid), Some(1));
    rows.push((
        "spawn + crt0 + ldl + main (first run)".into(),
        sim_delta(t0, sim_time(&world)),
    ));
    let t0 = sim_time(&world);
    let pid = world.spawn(&exe).unwrap();
    run_ok(&mut world);
    assert_eq!(world.exit_code(pid), Some(1));
    rows.push((
        "spawn + crt0 + ldl + main (warm run)".into(),
        sim_delta(t0, sim_time(&world)),
    ));
    report("F1", "build-and-run pipeline stage costs", &rows);
}

fn main() {
    simulated_table();
}
