//! Property test for the one mutation path: the live tree and the disk
//! twin apply the same journal records, so after any sequence of
//! metadata operations and writes they hold the same tree, and a power
//! cut followed by journal replay reproduces it.
//!
//! Runs on the root configuration (hard links allowed) with durability
//! on — a combination no world-level suite reaches, because the shared
//! partition forbids hard links.

use hsfs::{FileSystem, FsConfig, FsError};
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
    /// a power cut plus journal replay reproduces that tree.
    #[test]
    fn live_tree_equals_disk_after_every_op(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 0..40)
    ) {
        let mut fs = FileSystem::new(FsConfig::root());
        fs.enable_durability();
        for (i, op) in PRELUDE.into_iter().chain(ops).enumerate() {
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
