//! Property test for the one mutation path: the live tree and the disk
//! twin apply the same journal records, so after any sequence of
//! metadata operations and writes they hold the same tree, and a power
//! cut followed by journal replay reproduces it.
//!
//! Runs on the root configuration (hard links allowed) with durability
//! on — a combination no world-level suite reaches, because the shared
//! partition forbids hard links.
//!
//! A second property pins the integrity layer's verified-bit memo: the
//! incremental scan equals a full re-hash after every operation,
//! corruptions, crashes and integrity toggles included.

use hfault::{FaultHandle, FaultPlan, FaultSite};
use hsfs::{CorruptKind, FileSystem, FsConfig, FsError};
use proptest::prelude::*;

/// A small namespace, so random operations collide often: hard links
/// to linked files, renames onto existing files, rmdir of full dirs.
const PATHS: [&str; 8] = [
    "/f0", "/f1", "/f2", "/d0", "/d0/f0", "/d0/f1", "/d1", "/d1/f0",
];

/// One operation: `(kind, path a, path b, size-ish argument)`.
type Op = (u8, u8, u8, u16);

/// Applies one operation. Random operations ignore the result: a
/// failing operation must leave live and disk alike too.
fn apply(fs: &mut FileSystem, (kind, a, b, n): Op) -> Result<(), FsError> {
    let pa = PATHS[a as usize % PATHS.len()];
    let pb = PATHS[b as usize % PATHS.len()];
    match kind % 11 {
        0 => fs.create_file(pa, 0o644, 1).map(drop),
        1 => fs.mkdir(pa, 0o755, 1).map(drop),
        2 => fs.symlink(pb, pa, 1).map(drop),
        3 => fs.rmdir(pa),
        4 => fs.unlink(pa),
        5 => fs.hardlink(pa, pb),
        6 => fs.rename(pa, pb),
        7 => fs
            .resolve_nofollow(pa)
            .and_then(|ino| fs.chmod(ino, n & 0o777)),
        8 => fs
            .resolve(pa)
            .and_then(|ino| fs.truncate(ino, u64::from(n % 9000))),
        _ => fs.resolve(pa).and_then(|ino| {
            let data = vec![b ^ a; usize::from(n % 5000) + 1];
            fs.write_at(ino, u64::from(n % 7000), &data)
        }),
    }
}

/// A fixed prefix that runs every operation successfully at least once,
/// including a hard link, an unlink of a hard-linked file, and a rename
/// onto an existing file.
const PRELUDE: [Op; 12] = [
    (1, 3, 0, 0),     // mkdir /d0
    (0, 0, 0, 0),     // create /f0
    (9, 0, 7, 4100),  // write /f0 across two blocks
    (5, 0, 1, 0),     // hardlink /f0 -> /f1
    (4, 0, 0, 0),     // unlink /f0 (still linked as /f1)
    (0, 4, 0, 0),     // create /d0/f0
    (6, 1, 4, 0),     // rename /f1 onto /d0/f0
    (2, 2, 4, 0),     // symlink /f2 -> /d0/f0
    (7, 4, 0, 0o600), // chmod /d0/f0
    (8, 4, 0, 10),    // truncate /d0/f0
    (1, 6, 0, 0),     // mkdir /d1
    (3, 6, 0, 0),     // rmdir /d1
];

proptest! {
    /// After every operation the live tree equals the disk image, and
    /// a power cut plus journal replay reproduces that tree. One cut
    /// also lands mid-sequence: the ops after it run on a tree that
    /// starts out sharing every inode with its twin.
    #[test]
    fn live_tree_equals_disk_after_every_op(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 0..40),
        cut in 0usize..40,
    ) {
        let mut fs = FileSystem::new(FsConfig::root());
        fs.enable_durability();
        for (i, op) in PRELUDE.into_iter().chain(ops).enumerate() {
            if i == PRELUDE.len() + cut {
                let digest = fs.state_digest();
                fs.power_cut();
                fs.replay_journal();
                prop_assert_eq!(fs.state_digest(), digest, "cut before {:?}", op);
                prop_assert_eq!(fs.disk_digest(), Some(digest));
            }
            let r = apply(&mut fs, op);
            prop_assert!(i >= PRELUDE.len() || r.is_ok(), "prelude {:?}: {:?}", op, r);
            prop_assert_eq!(Some(fs.state_digest()), fs.disk_digest(), "after {:?}", op);
        }
        let digest = fs.state_digest();
        fs.power_cut();
        fs.replay_journal();
        prop_assert_eq!(fs.state_digest(), digest);
        prop_assert_eq!(fs.disk_digest(), Some(digest));
    }
}

const BS: u64 = hsfs::BLOCK_SIZE as u64;

/// Files of the memo property (few, so corruption and reuse collide).
const FILES: [&str; 3] = ["/f0", "/f1", "/f2"];

const KINDS: [CorruptKind; 3] = [
    CorruptKind::BitRot,
    CorruptKind::LostWrite,
    CorruptKind::MisdirectedWrite,
];

/// Applies one operation of the memo property. Results are ignored:
/// what matters is the disk image and integrity region it leaves.
fn apply_integrity(fs: &mut FileSystem, (kind, a, b, n): Op) {
    let path = FILES[a as usize % FILES.len()];
    let len = |fs: &mut FileSystem| {
        fs.resolve(path)
            .and_then(|ino| fs.metadata(ino))
            .map_or(0, |m| m.size)
    };
    let write = |fs: &mut FileSystem, offset: u64, size: usize| {
        let _ = fs
            .resolve(path)
            .and_then(|ino| fs.write_at(ino, offset, &vec![(n as u8).wrapping_add(b) | 1; size]));
    };
    let n64 = u64::from(n);
    match kind % 15 {
        0 => drop(fs.create_file(path, 0o644, 1)),
        // Unlink: the next create reuses the inode slot.
        1 => drop(fs.unlink(path)),
        // Aligned write, one block or a short head.
        2 => write(
            fs,
            (n64 % 3) * BS,
            [BS as usize, usize::from(n % 700) + 1][b as usize % 2],
        ),
        // Unaligned write, possibly straddling blocks.
        3 => write(fs, n64 % 9000, usize::from(n % 5000) + 1),
        // Sparse write: starts past EOF, zero-filling the gap.
        4 => {
            let at = len(fs) + 1 + n64 % 9000;
            write(fs, at, usize::from(n % 300) + 1);
        }
        // Truncate within the last block (grow or shrink), or anywhere.
        5 => {
            let cur = len(fs);
            let size = if b % 2 == 0 {
                cur - cur % BS + n64 % BS
            } else {
                n64 % 13000
            };
            let _ = fs.resolve(path).and_then(|ino| fs.truncate(ino, size));
        }
        6 => {
            if let Ok(ino) = fs.resolve(path) {
                fs.corrupt_block_for_test(ino, u64::from(b % 4) * BS, KINDS[n as usize % 3]);
            }
        }
        7 => {
            if let Ok(ino) = fs.resolve(path) {
                fs.corrupt_replica_for_test(ino, u64::from(b % 4) * BS);
            }
        }
        8 => drop(fs.scrub()),
        9 => drop(fs.barrier()),
        // Device death a few writes from now, torn or clean.
        10 => {
            let k = fs.disk_seq() + n64 % 6;
            fs.set_crash_at(k, b % 2 == 0);
        }
        11 => {
            fs.power_cut();
            fs.replay_journal();
        }
        12 => fs.set_integrity(false),
        13 => fs.set_integrity(true),
        // One write under a certain silent corruption of each home
        // block it lands: the chaos sites, not the test mirror.
        _ => {
            let site = [
                FaultSite::BitRot,
                FaultSite::LostWrite,
                FaultSite::MisdirectedWrite,
            ][n as usize % 3];
            fs.arm_faults(FaultHandle::armed(
                FaultPlan::new(u64::from(n) + 1, 1_000_000).only(&[site]),
            ));
            write(
                fs,
                u64::from(b % 3) * BS + n64 % 2,
                usize::from(n % 6000) + 1,
            );
            fs.arm_faults(FaultHandle::unarmed());
        }
    }
}

/// A fixed prefix that reaches every kind of block change at least
/// once: a sparse write past a partial block, a repair, each chaos
/// site, a torn crash and its replay, and an integrity off→on cycle.
const INTEGRITY_PRELUDE: [Op; 17] = [
    (0, 0, 0, 0),    // create /f0
    (3, 0, 1, 99),   // 100 bytes at 99
    (9, 0, 0, 0),    // barrier
    (4, 0, 0, 8000), // sparse write past the partial block
    (8, 0, 0, 0),    // scrub
    (6, 0, 1, 0),    // bit rot under block 1 (the hole)
    (8, 0, 0, 0),    // scrub heals it
    (0, 1, 0, 0),    // create /f1
    (2, 1, 0, 1),    // aligned block at 4096
    (14, 1, 0, 0),   // bit rot site
    (14, 1, 1, 1),   // lost-write site
    (14, 1, 2, 2),   // misdirected-write site
    (10, 0, 0, 2),   // crash two writes from now, torn
    (3, 1, 0, 4097), // the write the crash cuts
    (11, 0, 0, 0),   // power cut + replay
    (12, 0, 0, 0),   // integrity off
    (13, 0, 0, 0),   // integrity on (restamps the disk)
];

proptest! {
    /// The verified-bit memo never changes an answer: after every
    /// operation, the incremental scan reports exactly what a full
    /// re-hash of every stamped block reports.
    #[test]
    fn verify_memo_equals_full_rehash(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 0..60)
    ) {
        let mut fs = FileSystem::new(FsConfig::root());
        fs.enable_durability();
        for op in INTEGRITY_PRELUDE.into_iter().chain(ops) {
            apply_integrity(&mut fs, op);
            let full = fs.verify_blocks_full();
            prop_assert_eq!(fs.verify_blocks(), full, "after {:?}", op);
        }
    }
}
