//! Property tests across the whole stack: randomly generated guest
//! programs are assembled, linked, and run. Whatever the *guest* does —
//! wild stores, bad jumps, runaway loops, divide by zero — the *host*
//! must never panic, and every object the assembler accepts must
//! validate and round-trip through the binary format. The same bar
//! holds across *crash boundaries*: random interleavings of writes,
//! barriers, armed disk deaths, power cuts, and reboots must keep the
//! host panic-free and every recovery convergent (DESIGN.md §13).

mod common;

use common::program;
use hemlock::{ShareClass, World};
use hobj::binfmt;
use hobj::hasm::assemble;
use hsfs::CorruptKind;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The whole pipeline survives arbitrary guest behavior.
    #[test]
    fn random_programs_never_panic_the_host(
        seeds in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()),
            1..40,
        )
    ) {
        let src = program(&seeds);
        let mut world = common::world();
        world.install_template("/src/fuzz.o", &src).unwrap();
        let exe = world
            .link("/bin/fuzz", &[("/src/fuzz.o", ShareClass::StaticPrivate)])
            .unwrap();
        let pid = world.spawn(&exe).unwrap();
        // Bounded run: any exit (normal, killed, loop-limited) is fine.
        world.quantum = 500;
        let _ = world.run(150);
        let _ = world.exit_code(pid);
    }

    /// Everything the assembler accepts validates and round-trips.
    #[test]
    fn assembled_objects_validate_and_round_trip(
        seeds in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()),
            1..40,
        )
    ) {
        let src = program(&seeds);
        let obj = assemble("fuzz", &src).unwrap();
        prop_assert_eq!(obj.validate(), Ok(()));
        let bytes = binfmt::encode_object(&obj);
        prop_assert_eq!(binfmt::decode_object(&bytes).unwrap(), obj);
    }

    /// Linking a random program against a shared module never panics,
    /// and the image always round-trips.
    #[test]
    fn random_programs_link_against_shared_modules(
        seeds in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()),
            1..20,
        )
    ) {
        let src = program(&seeds);
        let mut world = common::world();
        world.install_template("/src/fuzz.o", &src).unwrap();
        world
            .install_template(
                "/shared/lib/sharedmod.o",
                ".module sharedmod\n.text\n.globl shared_fn\nshared_fn: li v0, 3\njr ra\n",
            )
            .unwrap();
        let exe = world
            .link(
                "/bin/fuzz",
                &[
                    ("/src/fuzz.o", ShareClass::StaticPrivate),
                    ("/shared/lib/sharedmod.o", ShareClass::DynamicPublic),
                ],
            )
            .unwrap();
        let raw = world.kernel.vfs.read_all(&exe).unwrap();
        let img = binfmt::decode_image(&raw).unwrap();
        prop_assert_eq!(binfmt::decode_image(&binfmt::encode_image(&img)).unwrap(), img);
        let pid = world.spawn(&exe).unwrap();
        world.quantum = 500;
        let _ = world.run(150);
        let _ = world.exit_code(pid);
    }

    /// Random interleavings of the crash-lifecycle surface: guest runs
    /// (mapped stores into a public module), raw segment writes,
    /// barriers, armed disk deaths, power cuts, reboots — and, since
    /// §14, silent single-block corruption and scrub passes — in any
    /// order. The host never panics, spawning while powered off is
    /// refused (not honored late), every scrub's counters reconcile
    /// (replicas stay intact, so every detection heals and nothing
    /// poisons), and every reboot recovers to a state where the live
    /// tree equals the disk image, a second journal replay is a no-op,
    /// and fsck finds nothing it cannot repair.
    #[test]
    fn crash_lifecycle_interleavings_recover(
        ops in proptest::collection::vec(
            (0u8..9, any::<u8>(), any::<u16>(), any::<bool>()),
            1..24,
        )
    ) {
        let mut world = common::world();
        world
            .install_template(
                "/shared/lib/cell.o",
                ".module cell\n.text\n.globl poke\npoke: la r8, word\nsw a0, 0(r8)\n\
                 lw v0, 0(r8)\njr ra\n.data\n.globl word\nword: .word 0\n",
            )
            .unwrap();
        world
            .install_template(
                "/src/main.o",
                ".module main\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\n\
                 li a0, 9\njal poke\nlw ra, 0(sp)\naddi sp, sp, 8\nli v0, 0\njr ra\n",
            )
            .unwrap();
        let exe = world
            .link(
                "/bin/fuzz",
                &[
                    ("/src/main.o", ShareClass::StaticPrivate),
                    ("/shared/lib/cell.o", ShareClass::DynamicPublic),
                ],
            )
            .unwrap();
        let check_recovered = |world: &mut World| {
            assert!(
                !world.log.iter().any(|l| l.contains("UNREPAIRED")),
                "fsck left damage unrepaired: {:?}", world.log
            );
            let digest = world.shared_digest();
            assert_eq!(
                world.kernel.vfs.shared.fs.disk_digest(),
                Some(digest),
                "live tree diverged from the disk image"
            );
            world.kernel.vfs.shared.fs.replay_journal();
            assert_eq!(
                world.shared_digest(), digest,
                "journal replay is not idempotent"
            );
        };
        for (op, a, imm, flag) in ops {
            match op {
                0 => {
                    // Spawn + run: relinking may legitimately fail if a
                    // crash ate the template; it must not panic.
                    if world.powered() {
                        if let Ok(pid) = world.spawn(&exe) {
                            let _ = world.run(u64::from(imm % 64) + 1);
                            let _ = world.exit_code(pid);
                        }
                    }
                }
                1 => {
                    if world.powered() {
                        let path = format!("/shared/data/f{}", a % 3);
                        let _ = world.kernel.vfs.mkdir_all("/shared/data", 0o755, 0);
                        let _ = world.kernel.vfs.create_file(&path, 0o644, 0);
                        let data = vec![a; usize::from(imm % 2048) + 1];
                        let _ = world.kernel.vfs.write(&path, u64::from(imm % 8192), &data);
                    }
                }
                2 => {
                    if world.powered() {
                        world.barrier();
                    }
                }
                3 => {
                    if world.powered() {
                        let k = world.disk_seq() + u64::from(a % 48);
                        world.set_crash_at(k, flag);
                    }
                }
                4 => {
                    if world.powered() {
                        world.power_cut();
                    }
                }
                5 => {
                    if !world.powered() {
                        world.reboot();
                        check_recovered(&mut world);
                    }
                }
                6 => {
                    // Spawning into a powered-off world must be refused.
                    if !world.powered() {
                        prop_assert!(world.spawn(&exe).is_err());
                    }
                }
                7 => {
                    // Silent single-block corruption of a data segment
                    // (the replica region is left intact, so whatever
                    // detects this — scrub or boot fsck — must heal it).
                    if world.powered() {
                        let path = format!("/shared/data/f{}", a % 3);
                        let kind = match imm % 3 {
                            0 => CorruptKind::BitRot,
                            1 => CorruptKind::LostWrite,
                            _ => CorruptKind::MisdirectedWrite,
                        };
                        let _ = world.corrupt_shared_block(&path, u64::from(a % 4), kind);
                    }
                }
                _ => {
                    // A scrub pass at an arbitrary point: with replicas
                    // intact every detection repairs, nothing poisons,
                    // and the running counters reconcile.
                    if world.powered() {
                        let _ = world.scrub();
                        let s = world.stats();
                        prop_assert_eq!(s.blocks_repaired, s.corruptions_detected);
                        prop_assert_eq!(world.poisoned_blocks(), 0);
                    }
                }
            }
        }
        // However the schedule left the machine, it comes back — a
        // clean reboot if it was still powered (flushing the pipeline),
        // a recovery if it was not.
        world.reboot();
        check_recovered(&mut world);
        if let Ok(pid) = world.spawn(&exe) {
            let _ = world.run(500);
            let _ = world.exit_code(pid);
        }
    }
}
