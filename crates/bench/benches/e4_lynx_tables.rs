//! E4 — Lynx compiler tables (§4): persistent shared module vs.
//! regenerate-and-reparse.
//!
//! Paper numbers: the generated C tables were "over 5400 lines" and took
//! "18 seconds to compile on a Sparcstation 1"; with Hemlock the
//! generator initializes a persistent module once and the compiler links
//! it in. Shape: baseline cost is paid per compiler run and grows with
//! table size; Hemlock pays once plus a near-constant link per run.

use baseline::serialize::ParserTables;
use bench::{report, run_ok, sim_delta, sim_time};
use hemlock::{ShareClass, World};

fn hemlock_world(states: usize, symbols: usize) -> (World, String) {
    let mut world = World::new();
    let tables = ParserTables::synthetic(states, symbols);
    world
        .install_template(
            "/shared/lib/lynx_tables.o",
            &format!(
                ".module lynx_tables\n.data\n.globl transitions\ntransitions: .space {}\n",
                states * symbols * 4
            ),
        )
        .unwrap();
    let mid = (states / 2) * symbols + symbols / 2;
    world
        .install_template(
            "/src/lynx.o",
            &format!(
                ".module lynx\n.text\n.globl main\nmain: la r8, transitions\nli r9, {}\n\
                 add r8, r8, r9\nlw v0, 0(r8)\njr ra\n",
                mid * 4
            ),
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/lynx",
            &[
                ("/src/lynx.o", ShareClass::StaticPrivate),
                ("/shared/lib/lynx_tables.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    // First run creates the instance; generator fills it once.
    let pid = world.spawn(&exe).unwrap();
    run_ok(&mut world);
    let _ = pid;
    let vnode = world.kernel.vfs.resolve("/shared/lib/lynx_tables").unwrap();
    let (base, taddr) = {
        let meta = world
            .registry
            .get(&mut world.kernel.vfs, vnode.ino)
            .unwrap();
        (meta.base, meta.find_export("transitions").unwrap())
    };
    let bytes = world
        .kernel
        .vfs
        .shared
        .fs
        .file_bytes_mut(vnode.ino)
        .unwrap();
    for (s, row) in tables.transitions.iter().enumerate() {
        for (y, &v) in row.iter().enumerate() {
            let o = (taddr - base) as usize + (s * symbols + y) * 4;
            bytes[o..o + 4].copy_from_slice(&(v as i32).to_le_bytes());
        }
    }
    (world, exe)
}

fn simulated_table() {
    let mut rows = Vec::new();
    const RUNS: usize = 5;
    for (states, symbols) in [(50usize, 40usize), (150, 80), (300, 150)] {
        // Baseline: each compiler run re-reads + reparses the text.
        let mut world = World::new();
        let tables = ParserTables::synthetic(states, symbols);
        world
            .kernel
            .vfs
            .write_file("/home/tables.txt", tables.linearize().as_bytes(), 0o644, 1)
            .unwrap();
        let t0 = sim_time(&world);
        for _ in 0..RUNS {
            let bytes = world.kernel.vfs.read_all("/home/tables.txt").unwrap();
            ParserTables::parse(&String::from_utf8_lossy(&bytes)).unwrap();
        }
        rows.push((
            format!("reparse x{RUNS}   ({states}x{symbols} tables)"),
            sim_delta(t0, sim_time(&world)),
        ));

        // Hemlock: five compiler runs link the persistent module.
        let (mut world, exe) = hemlock_world(states, symbols);
        let t0 = sim_time(&world);
        let mut check = 0i64;
        for _ in 0..RUNS {
            let pid = world.spawn(&exe).unwrap();
            run_ok(&mut world);
            check += world.exit_code(pid).unwrap() as i64;
        }
        assert_ne!(check, 0);
        rows.push((
            format!("shared module x{RUNS} ({states}x{symbols} tables)"),
            sim_delta(t0, sim_time(&world)),
        ));
    }
    report("E4", "Lynx tables — 5 compiler runs, by table size", &rows);
}

fn main() {
    simulated_table();
}
