//! The repository benchmark: drives one seeded workload through the
//! public `World` API for a fixed host time and prints its metrics.
//!
//! ```text
//! perfbench --workload <rwho_scan|link_boot|durable_update>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! the per-layer ones (see README.md). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod ledger;
mod trace;
mod workload;

use hemlock::{CostModel, WorldStats};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{plan, Kind, LinkClass, Plan, Rig};

/// Passes a run makes at least, however short `--seconds` is: set-up
/// is reported as a median, and a traced run needs traced and
/// untraced passes to compare.
const MIN_PASSES: usize = 4;
/// Timed load+validate calls of the snapshot probe per traced pass.
const PROBES: usize = 16;
/// The program's environment hooks; any of them set to a non-default
/// value selects a different program.
const HOOKS: [&str; 4] = [
    "HVM_BBCACHE",
    "LDL_SNAPSHOT",
    "HSFS_JOURNAL",
    "HSFS_INTEGRITY",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The configuration a measurement ran under. Refuses any hook set to
/// a non-default value, so two commits are never compared as
/// different programs.
fn fingerprint(env: impl Fn(&str) -> Option<String>) -> Result<String, String> {
    let mut parts = Vec::new();
    for hook in HOOKS {
        let val = env(hook).unwrap_or_default();
        if matches!(val.as_str(), "off" | "0" | "false") {
            return Err(format!(
                "refusing to measure: {hook}={val} selects a non-default program"
            ));
        }
        parts.push(format!("{hook}=on"));
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    parts.push(format!("host_cpus={cpus}"));
    Ok(parts.join(" "))
}

/// One pass: the whole plan, a fresh set-up per segment.
struct Pass {
    traced: bool,
    setup: Vec<Duration>,
    /// Per op, in plan order: host time in the program's calls, and the
    /// part of it inside `run_to_settle`.
    latency: Vec<Duration>,
    run: Vec<Duration>,
    classes: Vec<(LinkClass, Duration)>,
    failed: u64,
    errors: Vec<String>,
    /// Counters accumulated over the ops (set-up excluded).
    counters: WorldStats,
    sim_ns: u64,
    conserved: bool,
    /// `(data, integrity)` shared block writes over the ops.
    amp: (u64, u64),
}

fn run_pass(plan: &Plan, tr: &mut Tracer, skew: u32) -> Result<Pass, String> {
    let mut pass = Pass {
        traced: tr.armed(),
        setup: Vec::new(),
        latency: Vec::with_capacity(plan.ops.len()),
        run: Vec::with_capacity(plan.ops.len()),
        classes: Vec::new(),
        failed: 0,
        errors: Vec::new(),
        counters: WorldStats::default(),
        sim_ns: 0,
        conserved: true,
        amp: (0, 0),
    };
    for (seg, ops) in plan.ops.chunks(plan.segment).enumerate() {
        let t0 = Instant::now();
        tr.set_op(None);
        let slot = tr.open("bench.setup");
        let rig = Rig::setup(plan, ops, tr);
        tr.close(slot);
        let mut rig = rig?;
        pass.setup.push(t0.elapsed());
        rig.skew = skew;
        let costs: CostModel = rig.world.costs;
        let s0 = rig.world.stats();
        let amp0 = rig.world.write_amplification();
        for (k, op) in ops.iter().enumerate() {
            let i = seg * plan.segment + k;
            tr.set_op(Some(i as u32));
            let slot = tr.open("bench.op");
            let out = rig.exec(op, tr);
            tr.close(slot);
            pass.latency.push(out.time);
            pass.run.push(out.run);
            if let Some(class) = out.class {
                pass.classes.push((class, out.time));
            }
            if let Some(e) = out.error {
                pass.failed += 1;
                if pass.errors.len() < 3 {
                    pass.errors.push(format!("op {i} {op:?}: {e}"));
                }
            }
        }
        tr.set_op(None);
        let s1 = rig.world.stats();
        let amp1 = rig.world.write_amplification();
        pass.sim_ns += costs.time(&s1).0 - costs.time(&s0).0;
        pass.conserved &= ledger::conserved(&costs, &s0, &s1);
        pass.counters = ledger::add(&pass.counters, &ledger::diff(&s0, &s1));
        pass.amp.0 += amp1.0 - amp0.0;
        pass.amp.1 += amp1.1 - amp0.1;
        if pass.traced && (seg + 1) * plan.segment >= plan.ops.len() {
            probe_snapshot(&mut rig, tr)?;
        }
    }
    Ok(pass)
}

/// Times the prelink snapshot's load and validation directly, after
/// the pass's counters are taken (the probe is unpriced either way).
fn probe_snapshot(rig: &mut Rig, tr: &mut Tracer) -> Result<(), String> {
    let exe = rig.probe_exe();
    let vfs = &mut rig.world.kernel.vfs;
    let bytes = vfs
        .unpriced(|v| v.read_all(exe))
        .map_err(|e| format!("{exe}: {e}"))?;
    let image =
        hobj::binfmt::decode_image(&bytes).map_err(|e| format!("{exe}: bad image: {e:?}"))?;
    let path = hlink::snapshot::path_for(vfs, &image.name);
    let scope = hlink::snapshot::scope_hash(&image, None, "/");
    for _ in 0..PROBES {
        tr.span("hlink.snapshot.load_validate", || {
            vfs.unpriced(|v| match hlink::snapshot::load(v, &path) {
                Ok(Some(snap)) => snap.validate(v, scope).is_ok(),
                _ => false,
            })
        });
    }
    Ok(())
}

fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile (0 for an empty sample).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The host's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(String, f64, &'static str)>;

/// Each op's least host time over `passes` (every pass replays the
/// same plan). Other tenants of a shared host slow whole stretches of a
/// run by a third or more, and only ever add time; the least of many
/// replays measures the program rather than its neighbours, and a
/// change that slows an op slows every replay of it.
fn least(passes: &[&Pass], pick: fn(&Pass) -> &[Duration]) -> Vec<f64> {
    let n = pick(passes[0]).len();
    (0..n)
        .map(|i| {
            passes
                .iter()
                .map(|p| secs(pick(p)[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn latency(p: &Pass) -> &[Duration] {
    &p.latency
}

fn run(p: &Pass) -> &[Duration] {
    &p.run
}

/// End-to-end metrics: host timings from each op's least time over the
/// passes, set-up as a median over them, simulated time from any pass
/// (all agree).
fn end_to_end(passes: &[Pass], ops_per_pass: usize) -> Metrics {
    let all: Vec<&Pass> = passes.iter().collect();
    let mut lat = least(&all, latency);
    let busy: f64 = lat.iter().sum();
    let mut lat_us: Vec<f64> = lat.iter_mut().map(|s| *s * 1e6).collect();
    let run_s: f64 = least(&all, run).iter().sum();
    let insns = passes[0].counters.kernel.instructions;
    let mut setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.setup)
        .map(|d| secs(*d))
        .collect();
    vec![
        ("ops_per_s".into(), ops_per_pass as f64 / busy, "1/s"),
        ("op_p50_us".into(), quantile(&mut lat_us, 0.50), "us"),
        ("op_p99_us".into(), quantile(&mut lat_us, 0.99), "us"),
        ("guest_mips".into(), insns as f64 / run_s / 1e6, "MIPS"),
        (
            "sim_ms_per_op".into(),
            passes[0].sim_ns as f64 / ops_per_pass as f64 / 1e6,
            "ms",
        ),
        ("setup_s".into(), median(&mut setups), "s"),
        ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
    ]
}

/// Span names whose self time the traced run reports, per op.
const SPANS: [&str; 14] = [
    "bench.setup",
    "bench.op",
    "core.world_new",
    "hobj.install_template",
    "hlink.lds.link",
    "core.spawn",
    "core.run",
    "core.poke",
    "core.power_cut",
    "hsfs.vfs_write",
    "hsfs.barrier",
    "hsfs.scrub",
    "hsfs.reboot",
    "hlink.snapshot.load_validate",
];

fn per_layer(passes: &[Pass], spans: &[trace::Span], ops_per_pass: usize) -> Metrics {
    let totals = trace::totals(spans);
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let mean_us = |name: &str| {
        totals
            .iter()
            .find(|t| t.0 == name)
            .map_or(0.0, |t| secs(t.2) * 1e6 / t.1 as f64)
    };
    let ops = ops_per_pass as f64;
    let c = &passes[0].counters;
    let consults = c.snapshot_hits + c.snapshot_misses + c.snapshot_invalidations;
    let busy = |ps: &[&Pass]| least(ps, latency).iter().sum::<f64>();
    let class_us = |class: LinkClass| {
        let mut v: Vec<f64> = plain
            .iter()
            .flat_map(|p| &p.classes)
            .filter(|(c, _)| *c == class)
            .map(|(_, d)| secs(*d) * 1e6)
            .collect();
        median(&mut v)
    };
    let run_ns: f64 = traced
        .iter()
        .flat_map(|p| &p.run)
        .map(|d| secs(*d) * 1e9)
        .sum();
    let count = |name: &str, n: u64| (name.to_string(), n as f64 / ops, "count/op");
    let mean = |span: &str| (format!("{span}_us"), mean_us(span), "us");
    let mut m: Metrics = vec![
        mean("hobj.install_template"),
        mean("hlink.lds.link"),
        mean("core.spawn"),
        mean("core.run"),
        count("hvm.insns", c.kernel.instructions),
        (
            "hvm.ns_per_insn".into(),
            run_ns / (c.kernel.instructions * traced.len() as u64).max(1) as f64,
            "ns",
        ),
        (
            "hvm.bblock_hit_ratio".into(),
            ratio(c.bblock_hits, c.bblock_hits + c.bblocks_built),
            "ratio",
        ),
        count("hvm.bblock_invalidations", c.bblock_invalidations),
        ("hkernel.tlb_hit_ratio".into(), c.tlb_hit_rate(), "ratio"),
        count("hkernel.dispatches", c.kernel.dispatches),
        count("hkernel.cross_cpu_steals", c.cross_cpu_steals),
        count("hkernel.segv_faults", c.kernel.segv_faults),
        count("hkernel.page_evictions", c.page_evictions),
        count("hkernel.page_writebacks", c.page_writebacks),
        count("hlink.ldl.symbols_resolved", c.ldl.symbols_resolved),
        count("hlink.ldl.lazy_links", c.ldl.lazy_links),
        (
            "hlink.ldl.resolve_cache_ratio".into(),
            ratio(
                c.ldl.resolve_cache_hits,
                c.ldl.symbols_resolved + c.ldl.symbols_unresolved,
            ),
            "ratio",
        ),
        count("hlink.ldl.snapshot_hits", c.snapshot_hits),
        count("hlink.ldl.snapshot_misses", c.snapshot_misses),
        count("hlink.ldl.snapshot_invalidations", c.snapshot_invalidations),
        count("hlink.ldl.snapshot_rebuilds", c.snapshot_rebuilds),
        (
            "hlink.ldl.rebuilds_per_consult".into(),
            ratio(c.snapshot_rebuilds, consults),
            "ratio",
        ),
        (
            "hlink.ldl.op_us.snapshot_hit".into(),
            class_us(LinkClass::SnapshotHit),
            "us",
        ),
        (
            "hlink.ldl.op_us.full_resolve".into(),
            class_us(LinkClass::FullResolve),
            "us",
        ),
        (
            "hlink.ldl.op_us.same_boot".into(),
            class_us(LinkClass::SameBoot),
            "us",
        ),
        mean("hlink.snapshot.load_validate"),
        count("hsfs.shared_blocks_read", c.shared_fs.blocks_read),
        count("hsfs.shared_blocks_written", c.shared_fs.blocks_written),
        mean("hsfs.vfs_write"),
        mean("hsfs.barrier"),
        mean("hsfs.scrub"),
        mean("hsfs.reboot"),
        mean("core.power_cut"),
        (
            "hsfs.write_amp".into(),
            ratio(passes[0].amp.0 + passes[0].amp.1, passes[0].amp.0),
            "ratio",
        ),
        count("hsfs.blocks_scrubbed", c.blocks_scrubbed),
        count("hsfs.journal_replays", c.journal_replays),
    ];
    let costs = CostModel::default();
    for (term, ns) in ledger::TERMS.iter().zip(ledger::rows(&costs, c)) {
        m.push((format!("sim.{term}_ms"), ns as f64 / ops / 1e6, "ms/op"));
    }
    let traced_ops = (traced.len() * ops_per_pass).max(1) as f64;
    for name in SPANS {
        let own = totals
            .iter()
            .find(|t| t.0 == name)
            .map_or(0.0, |t| secs(t.3));
        m.push((format!("self.{name}_us"), own * 1e6 / traced_ops, "us/op"));
    }
    m.push((
        "trace.overhead_pct".into(),
        100.0 * (busy(&traced) / busy(&plain) - 1.0),
        "%",
    ));
    m
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let config = fingerprint(|k| std::env::var(k).ok())?;
    let plan = plan(args.kind, args.seed);
    let ops = plan.ops.len();
    eprintln!(
        "perfbench: {} seed {} ({ops} ops per pass) for {} s, trace {}; {config}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let start = Instant::now();
    let mut tr = Tracer::new(start);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(args.seconds) {
        // A traced run alternates untraced and traced passes, so the
        // difference between the two is the tracing overhead.
        tr.arm(args.trace && passes.len() % 2 == 1);
        passes.push(run_pass(&plan, &mut tr, 0)?);
    }
    let attempted = (passes.len() * ops) as u64;
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut correct = failed == 0;
    for e in passes.iter().flat_map(|p| &p.errors).take(5) {
        eprintln!("perfbench: failed {e}");
    }
    if !passes.iter().all(|p| p.conserved) {
        correct = false;
        eprintln!("perfbench: sim ledger does not sum to CostModel::time");
    }
    let first = format!("{:?}/{}", passes[0].counters, passes[0].sim_ns);
    if passes
        .iter()
        .any(|p| format!("{:?}/{}", p.counters, p.sim_ns) != first)
    {
        correct = false;
        eprintln!("perfbench: passes of one plan disagree on counters or simulated time");
    }
    let metrics = if args.trace {
        let spans = tr.spans();
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-seed{}.spans.jsonl",
                args.kind.name(),
                args.seed
            ));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"config\":\"{config}\",\"spans\":{}}}",
            args.kind.name(),
            args.seed,
            spans.len()
        );
        trace::write_jsonl(&out, &header, spans)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        per_layer(&passes, spans, ops)
    } else {
        end_to_end(&passes, ops)
    };
    eprintln!(
        "perfbench: {} passes, {attempted} ops timed, {failed} failed (error_rate {})",
        passes.len(),
        ratio(failed, attempted)
    );
    for (name, v, unit) in &metrics {
        eprintln!("  {name:<36} {v:>14.4} {unit}");
    }
    println!("{}", json_result(correct, attempted, failed, &metrics));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Op;

    /// A short plan prefix: enough ops to reach every op kind.
    fn short(kind: Kind, seed: u64, n: usize) -> Plan {
        let mut p = plan(kind, seed);
        p.ops.truncate(n);
        p
    }

    fn pass(p: &Plan, skew: u32) -> Pass {
        run_pass(p, &mut Tracer::new(Instant::now()), skew).expect("set-up succeeds")
    }

    #[test]
    fn every_workload_is_correct_and_its_ledger_is_conserved() {
        for kind in Kind::ALL {
            let p = short(kind, 7, 24);
            let r = pass(&p, 0);
            assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.errors);
            assert!(
                r.conserved,
                "{}: ledger must sum to CostModel::time",
                kind.name()
            );
            assert!(r.sim_ns > 0);
        }
    }

    #[test]
    fn one_seed_replays_exactly_and_another_changes_the_ops() {
        for kind in Kind::ALL {
            let p = short(kind, 11, 16);
            let (a, b) = (pass(&p, 0), pass(&p, 0));
            assert_eq!(a.sim_ns, b.sim_ns, "{}", kind.name());
            assert_eq!(format!("{:?}", a.counters), format!("{:?}", b.counters));
            assert_ne!(plan(kind, 11).ops, plan(kind, 12).ops, "{}", kind.name());
        }
    }

    #[test]
    fn a_wrong_expectation_is_a_failure_not_a_panic() {
        let p = short(Kind::RwhoScan, 3, 4);
        let r = pass(&p, 1);
        assert_eq!(r.failed, 4, "every reader batch must miss the skewed sum");
        let p = short(Kind::DurableUpdate, 3, 23);
        assert!(p.ops.iter().any(|o| matches!(o, Op::PowerCycle(_))));
        assert!(pass(&p, 1).failed > 0);
    }

    #[test]
    fn a_non_default_hook_is_refused() {
        let off = |k: &str| (k == "LDL_SNAPSHOT").then(|| "off".to_string());
        assert!(fingerprint(off).is_err());
        let on = |k: &str| (k == "HVM_BBCACHE").then(|| "on".to_string());
        assert!(fingerprint(on).unwrap().contains("LDL_SNAPSHOT=on"));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
