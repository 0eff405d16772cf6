//! E3 — xfig (§4): pointer-rich persistence vs. linearize/parse.
//!
//! The baseline saves/loads a figure by translating to and from a flat
//! ASCII format; the Hemlock version keeps the linked structure in a
//! shared segment — "save" is free and "load" is mapping plus raw
//! pointer traversal. The shape: baseline cost grows with figure size
//! (bytes written + parse work); Hemlock cost is one mapping fault plus
//! the traversal itself.

use baseline::serialize::Figure;
use bench::{report, run_ok, sim_delta, sim_time};
use hemlock::segheap::SegHeap;
use hemlock::{ShareClass, World};

/// Builds the figure segment with `n` linked nodes; returns the world
/// and the viewer executable.
fn hemlock_world(n: u32) -> (World, String) {
    let mut world = World::new();
    world
        .kernel
        .vfs
        .create_file("/shared/drawing.fig", 0o666, 1)
        .unwrap();
    let seg = world
        .kernel
        .vfs
        .path_to_addr("/shared/drawing.fig")
        .unwrap();
    let seg_len = (n * 32 + 4096).next_multiple_of(4096);
    {
        let (ino, _) = world.kernel.vfs.shared.addr_to_ino(seg).unwrap();
        world
            .kernel
            .vfs
            .shared
            .fs
            .truncate(ino, seg_len as u64)
            .unwrap();
        let bytes = world.kernel.vfs.shared.fs.file_bytes_mut(ino).unwrap();
        let mut heap = SegHeap::init(&mut bytes[8..], seg + 8).unwrap();
        let mut head = 0u32;
        for i in 0..n {
            let node = heap.alloc(12).unwrap();
            let off = (node - (seg + 8)) as usize;
            let region = heap.raw_region();
            region[off..off + 4].copy_from_slice(&head.to_le_bytes());
            region[off + 4..off + 8].copy_from_slice(&(i % 4).to_le_bytes());
            region[off + 8..off + 12].copy_from_slice(&(i * 10).to_le_bytes());
            head = node;
        }
        bytes[0..4].copy_from_slice(&head.to_le_bytes());
    }
    world
        .install_template(
            "/src/viewer.o",
            &format!(
                ".module viewer\n.text\n.globl main\nmain: li r8, {seg}\nlw r9, 0(r8)\nli r16, 0\n\
                 walk: beq r9, r0, done\naddi r16, r16, 1\nlw r9, 0(r9)\nb walk\n\
                 done: or v0, r16, r0\njr ra\n"
            ),
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/viewer",
            &[("/src/viewer.o", ShareClass::StaticPrivate)],
        )
        .unwrap();
    (world, exe)
}

fn baseline_load(world: &mut World, n: u32) -> usize {
    let fig = Figure::synthetic(n as usize);
    let text = fig.linearize();
    world
        .kernel
        .vfs
        .write_file("/home/d.fig", text.as_bytes(), 0o644, 1)
        .unwrap();
    let bytes = world.kernel.vfs.read_all("/home/d.fig").unwrap();
    Figure::parse(&String::from_utf8_lossy(&bytes))
        .unwrap()
        .count()
}

fn simulated_table() {
    let mut rows = Vec::new();
    for n in [50u32, 200, 1000] {
        let mut world = World::new();
        let t0 = sim_time(&world);
        let count = baseline_load(&mut world, n);
        assert!(count >= n as usize);
        rows.push((
            format!("linearize+parse load, {n} objects"),
            sim_delta(t0, sim_time(&world)),
        ));

        let (mut world, exe) = hemlock_world(n);
        let t0 = sim_time(&world);
        let pid = world.spawn(&exe).unwrap();
        run_ok(&mut world);
        assert_eq!(world.exit_code(pid).unwrap() as u32, n);
        rows.push((
            format!("segment-mapped load,  {n} objects"),
            sim_delta(t0, sim_time(&world)),
        ));
    }
    report("E3", "xfig — figure load cost vs. size", &rows);
}

fn main() {
    simulated_table();
}
