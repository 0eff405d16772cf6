//! E8 — chaos: deterministic fault injection across the whole stack.
//!
//! The paper's safety story (PAPER.md §4: a segmentation fault is a
//! *normal* control-flow event that the handler resolves or cleanly
//! refuses) is property-tested here under injected failure: for any
//! xorshift seed and any injection rate up to [`RATE_BOUND_PPM`],
//!
//! * no thread panics — the host survives whatever the plan injects;
//! * the world settles ([`World::run_to_settle`] returns `Ok`, or a
//!   bounded `Err(Unsettled)` naming how many processes were live);
//! * only injected-fault victims exit nonzero, and surviving processes
//!   produce output identical to an injection-free run;
//! * `World::audit` holds, and every recovery had an injection;
//! * a failed `ldl` init is a clean exit: an init-time `Trampoline` or
//!   `SymbolResolve` injection ends its victim with status 127 and
//!   exactly one `LinkFailed` record, and status 127 means exactly that;
//! * the entire outcome replays exactly from the seed.

mod common;

use common::{build_chaos, knobs, SETTLE_SLICES};
use hemlock::{FaultPlan, FaultSite, TraceEvent, Unsettled, World, WorldExit};
use proptest::prelude::*;

/// Documented injection-rate bound for the settle guarantee: 5% per
/// decision (parts per million). Higher rates are still panic-free and
/// contained (see `full_rate_per_site_is_contained`), but survivors are
/// no longer guaranteed.
const RATE_BOUND_PPM: u32 = 50_000;

/// Processes spawned per scenario.
const NPROCS: usize = 3;

/// Everything a chaos run is judged on (and everything that must replay
/// identically from the same seed).
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    settled: Result<WorldExit, Unsettled>,
    /// Per spawn slot: `None` if the spawn itself was refused.
    exits: Vec<Option<i32>>,
    consoles: Vec<Option<String>>,
    injected: u64,
    recovered: u64,
    link_retries: u64,
    /// Per spawn slot: what the process's records say about its links.
    links: Vec<Option<Links>>,
    link_failures: u64,
}

/// One process's link records. Its init comes first (crt0 runs `ldl`
/// init before `main`), so everything before its first `FaultTaken` is
/// the init's.
#[derive(Debug, Default, PartialEq, Eq)]
struct Links {
    /// Sites injected during init.
    init_sites: Vec<&'static str>,
    /// `LinkFailed` records during init.
    init_failed: usize,
    /// All of its `LinkFailed` records.
    failed: usize,
}

fn links_of(world: &World, pid: hkernel::Pid) -> Links {
    let mut links = Links::default();
    let mut init = true;
    for r in world.trace().records_for(pid) {
        match r.event {
            TraceEvent::FaultTaken { .. } => init = false,
            TraceEvent::FaultInjected { site } if init => links.init_sites.push(site),
            TraceEvent::LinkFailed { .. } => {
                links.failed += 1;
                links.init_failed += usize::from(init);
            }
            _ => {}
        }
    }
    links
}

/// Runs the chaos scenario. `warm` prepends one injection-free run and
/// a reboot before arming the plan: the first run writes the prelink
/// snapshot and the reboot re-opens it (the snapshot is consulted once
/// per executable per boot), so the armed spawns link *through* the
/// snapshot path and the `SnapshotCorrupt` site has real bytes to
/// corrupt. Cold (the default) keeps first-instantiation sites like
/// `InodeAlloc` reachable instead.
fn run_scenario_at(plan: Option<FaultPlan>, warm: bool) -> Outcome {
    let mut world = common::world();
    let exe = build_chaos(&mut world);
    world.set_cpus(knobs().cpus);
    if warm {
        let pid = world.spawn(&exe).unwrap();
        assert_eq!(world.run_to_settle(SETTLE_SLICES), Ok(WorldExit::AllExited));
        assert_eq!(world.exit_code(pid), Some(0), "warm-up run must be clean");
        world.reboot();
    }
    if let Some(plan) = plan {
        world.arm_faults(plan);
    }
    let mut pids = Vec::new();
    for _ in 0..NPROCS {
        pids.push(world.spawn(&exe).ok());
    }
    let settled = world.run_to_settle(SETTLE_SLICES);
    world.audit().unwrap();
    assert_eq!(world.trace().evicted(), 0, "every record stays readable");
    let stats = world.stats();
    Outcome {
        settled,
        exits: pids
            .iter()
            .map(|p| p.and_then(|p| world.exit_code(p)))
            .collect(),
        consoles: pids.iter().map(|p| p.map(|p| world.console(p))).collect(),
        injected: stats.faults_injected,
        recovered: stats.faults_recovered,
        link_retries: stats.ldl.link_retries,
        links: pids
            .iter()
            .map(|p| p.map(|p| links_of(&world, p)))
            .collect(),
        link_failures: stats.link_failures,
    }
}

/// The cold scenario — every first-instantiation fault site reachable.
fn run_scenario(plan: Option<FaultPlan>) -> Outcome {
    run_scenario_at(plan, false)
}

/// The invariants every chaos outcome must satisfy, given the
/// injection-free baseline for comparison.
fn check_contained(out: &Outcome, baseline: &Outcome) {
    // The world reached a stable state, or the failure is bounded.
    match out.settled {
        Ok(_) => {}
        Err(Unsettled { live, .. }) => assert!(live <= NPROCS, "unbounded unsettled state"),
    }
    let any_refused = out.exits.iter().any(|e| e.is_none());
    let any_nonzero = out.exits.iter().any(|e| matches!(e, Some(c) if *c != 0));
    if out.injected == 0 {
        // No injections ⇒ indistinguishable from the baseline.
        assert_eq!(out.exits, baseline.exits);
        assert_eq!(out.consoles, baseline.consoles);
        assert_eq!(out.recovered, 0);
    } else {
        // Victims require an injection; survivors are unharmed.
        assert!(
            !any_refused || out.injected > 0,
            "spawn refused without an injection"
        );
        assert!(
            !any_nonzero || out.injected > 0,
            "nonzero exit without an injection"
        );
    }
    for (slot, exit) in out.exits.iter().enumerate() {
        if *exit == Some(0) {
            // Seed-identical output: a surviving process prints exactly
            // what it prints in an injection-free world.
            assert_eq!(
                out.consoles[slot], baseline.consoles[slot],
                "survivor in slot {slot} produced different output"
            );
        }
    }
    assert!(
        out.recovered <= out.injected,
        "every recovery needs an injection ({} > {})",
        out.recovered,
        out.injected
    );
    let mut failed = 0;
    for (exit, links) in out.exits.iter().zip(&out.links) {
        let Some(links) = links else { continue };
        failed += links.failed;
        // A failed init is the process's one link failure and its end.
        let init_failed = links.init_failed == 1;
        assert_eq!(*exit == Some(127), init_failed, "{exit:?} {links:?}");
        assert!(!init_failed || links.failed == 1, "{links:?}");
        // A trampoline refused or a symbol lookup failed during init
        // fails the init.
        let sites = &links.init_sites;
        if sites.contains(&"trampoline") || sites.contains(&"symbol_resolve") {
            assert_eq!(*exit, Some(127), "{links:?}");
        }
    }
    assert_eq!(
        out.link_failures, failed as u64,
        "link_failures is the tally"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The headline property: any seed, any rate ≤ the bound — no
    /// panics, the world settles (or fails bounded), victims are
    /// injection victims, survivors' output is seed-identical, and the
    /// counters reconcile. The whole outcome replays
    /// exactly from the seed. Both boot shapes are swept: cold (full
    /// resolution) and warm (linking through the prelink snapshot,
    /// where the `SnapshotCorrupt` site is live).
    #[test]
    fn any_seed_any_rate_is_contained(
        seed in any::<u64>(),
        rate in 0u32..RATE_BOUND_PPM + 1,
    ) {
        let seed = seed ^ knobs().chaos_seed;
        for warm in [false, true] {
            let baseline = run_scenario_at(None, warm);
            let out = run_scenario_at(Some(FaultPlan::new(seed, rate)), warm);
            check_contained(&out, &baseline);
            let replay = run_scenario_at(Some(FaultPlan::new(seed, rate)), warm);
            prop_assert_eq!(out, replay, "chaos outcome must replay from its seed (warm={})", warm);
        }
    }
}

/// An unarmed world and an armed-at-rate-zero world are byte-identical
/// in every observable, and inject nothing.
#[test]
fn zero_rate_equals_unarmed() {
    let unarmed = run_scenario(None);
    let zero = run_scenario(Some(FaultPlan::new(0xC0FFEE, 0)));
    assert_eq!(unarmed.injected, 0);
    assert_eq!(zero.injected, 0);
    assert_eq!(unarmed.settled, Ok(WorldExit::AllExited));
    assert_eq!(zero.exits, unarmed.exits);
    assert_eq!(zero.consoles, unarmed.consoles);
    assert_eq!(unarmed.exits, vec![Some(0); NPROCS]);
    assert_eq!(
        unarmed.consoles,
        vec![Some("1121\n".to_string()); NPROCS],
        "the scenario's injection-free output"
    );
}

/// Well past the documented bound the settle guarantee weakens, but
/// containment must not: no panics, bounded behavior, reconciled
/// counters.
#[test]
fn heavy_rate_is_still_contained() {
    let baseline = run_scenario(None);
    for seed in [1u64, 0xDEAD_BEEF, u64::MAX] {
        let out = run_scenario(Some(FaultPlan::new(seed, 300_000)));
        assert!(out.injected > 0, "30% over a whole run must inject");
        check_contained(&out, &baseline);
    }
}

/// Every site individually, injecting on *every* decision — the
/// worst case for that site's recovery path. Victims die with nonzero
/// status; nothing panics; counters still reconcile.
#[test]
fn full_rate_per_site_is_contained() {
    let cold_baseline = run_scenario(None);
    let warm_baseline = run_scenario_at(None, true);
    for site in hemlock::ALL_SITES {
        // Only a warm boot consults a stored snapshot, so that is the
        // boot shape where the corruption site is reachable; every
        // other site gets the cold scenario (first instantiation).
        let warm = site == FaultSite::SnapshotCorrupt;
        let baseline = if warm { &warm_baseline } else { &cold_baseline };
        let plan = FaultPlan::new(42, 1_000_000).only(&[site]);
        let out = run_scenario_at(Some(plan), warm);
        check_contained(&out, baseline);
        if matches!(site, FaultSite::Trampoline | FaultSite::SymbolResolve) {
            // `main` calls into the public module from private text, so
            // every init looks that symbol up and needs a trampoline for
            // it, and every init fails.
            assert_eq!(out.exits, [Some(127); NPROCS], "{site:?}");
        }
        // The swap sites only fire under memory pressure, which this
        // scenario (default frame budget) never creates, and the
        // shootdown site needs both pressure and a multi-CPU world;
        // their injection coverage lives in e10_pressure / e11_smp.
        // CrashTear is drawn only at the moment the simulated disk
        // dies, which needs a CrashPoint hit or an armed crash point —
        // its coverage lives in e13_crash.
        if matches!(
            site,
            FaultSite::SwapWrite
                | FaultSite::SwapRead
                | FaultSite::ShootdownDrop
                | FaultSite::CrashTear
        ) {
            assert_eq!(out.injected, 0, "these sites need pressure to fire");
            continue;
        }
        // The identity matrix also runs this suite with snapshots off;
        // a disabled subsystem never reads snapshot bytes, so there is
        // nothing to corrupt.
        if site == FaultSite::SnapshotCorrupt && !knobs().link_snapshots {
            assert_eq!(out.injected, 0, "disabled snapshots must not consult");
            continue;
        }
        assert!(
            out.injected > 0,
            "site {:?} was never reached by the scenario",
            site
        );
    }
}

/// Transient sites are retried by `ldl` with bounded backoff: a low
/// injection rate at a transient site is *absorbed* — every process
/// still exits 0 with correct output, and the retry counters prove the
/// faults actually happened.
#[test]
fn transient_faults_are_absorbed_by_retry() {
    // Hunt for a seed whose injections all land where retry can absorb
    // them (deterministic: the loop always finds the same seed).
    let mut absorbed = None;
    for seed in 1u64..64 {
        let plan = FaultPlan::new(seed, 60_000).only(&[FaultSite::SegmentAddr]);
        let out = run_scenario(Some(plan));
        // An injection may instead land on the prelink-snapshot store
        // path, which absorbs it without retrying (the rebuild is just
        // skipped); keep hunting for a seed that exercises the retry
        // machinery itself.
        if out.injected > 0 && out.link_retries > 0 && out.exits.iter().all(|e| *e == Some(0)) {
            absorbed = Some(out);
            break;
        }
    }
    let out = absorbed.expect("some seed injects a retryable segment-address fault");
    assert!(
        out.link_retries > 0,
        "absorption must go through the retry path"
    );
    assert!(out.recovered > 0, "retries surface as RecoveryTaken");
    assert_eq!(
        out.consoles
            .iter()
            .flatten()
            .filter(|c| *c == "1121\n")
            .count(),
        NPROCS,
        "absorbed faults leave output untouched"
    );
}

/// A symbol lookup that fails during init fails that init: the program
/// exits 127 with one `LinkFailed` record naming the image and the
/// symbol, and never runs `main` with the call left unpatched.
#[test]
fn init_time_lookup_failure_is_a_clean_exit() {
    let mut world = common::world();
    let exe = build_chaos(&mut world);
    world.arm_faults(FaultPlan::new(7, 1_000_000).only(&[FaultSite::SymbolResolve]));
    let pid = world.spawn(&exe).unwrap();
    assert_eq!(world.run_to_settle(SETTLE_SLICES), Ok(WorldExit::AllExited));
    assert_eq!(world.exit_code(pid), Some(127), "{:?}", world.log);
    let records: Vec<_> = world.trace().records_for(pid).map(|r| &r.event).collect();
    let causes: Vec<_> = records
        .iter()
        .filter_map(|e| match e {
            TraceEvent::LinkFailed { cause, .. } => Some(cause.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(causes, ["lookup of `triple` for `<image>` failed"]);
    assert!(
        !records
            .iter()
            .any(|e| matches!(e, TraceEvent::FaultTaken { .. })),
        "no jump through the unpatched call: {records:?}"
    );
    world.audit().unwrap();
}
