//! Shared helpers for the experiment benchmarks.
//!
//! Every bench prints one **simulated-time** table (the deterministic
//! cost-model numbers EXPERIMENTS.md records — these are what
//! correspond to the paper's claims) and appends its rows to
//! `BENCH_JSON_OUT` when that names a file. Host wall time is
//! perfbench's job (`perfbench/`, `BENCHMARK.json`).

use hemlock::{CostModel, SimTime, World, WorldExit};
use std::io::Write;

/// Prints one experiment's simulated results in a stable format that
/// EXPERIMENTS.md quotes. When `BENCH_JSON_OUT` names a file, each row
/// is also appended there as one JSON line (`{"bench":"<id>/<label>",
/// "sim_ns":<n>}`) — `scripts/bench_compare.sh` collects these into the
/// committed `BENCH_*.json` baselines, keyed by the `bench` field. The
/// values are cost-model simulated time, so they are exactly
/// reproducible across machines.
///
/// The label is the comparison key: keep it *stable* across runs whose
/// cost behavior should be comparable. Volatile observables (eviction
/// counts, peak frames, ...) belong in the `detail` field of
/// [`report_detailed`], which rides along in the baseline without
/// participating in row matching.
pub fn report(id: &str, title: &str, rows: &[(String, SimTime)]) {
    let detailed: Vec<(String, SimTime, String)> = rows
        .iter()
        .map(|(l, t)| (l.clone(), *t, String::new()))
        .collect();
    report_detailed(id, title, &detailed);
}

/// [`report`] with a per-row free-form `detail` string (empty = none):
/// volatile counts that humans want next to the number but that must
/// not leak into the regression-gate key.
#[expect(clippy::disallowed_methods, reason = "names the bench gate's file")]
pub fn report_detailed(id: &str, title: &str, rows: &[(String, SimTime, String)]) {
    eprintln!("\n=== {id}: {title} ===");
    for (label, t, detail) in rows {
        if detail.is_empty() {
            eprintln!("  {label:<48} {t}");
        } else {
            eprintln!("  {label:<48} {t}  [{detail}]");
        }
    }
    if let ([(_, a, _), ..], [.., (_, b, _)]) = (rows, rows) {
        if b.0 > 0 && rows.len() > 1 {
            eprintln!("  ratio (first/last): {:.2}x", a.0 as f64 / b.0 as f64);
        }
    }
    if let Ok(path) = std::env::var("BENCH_JSON_OUT") {
        if !path.is_empty() {
            append_json_rows(&path, id, rows).expect("BENCH_JSON_OUT must be writable");
        }
    }
}

fn append_json_rows(
    path: &str,
    id: &str,
    rows: &[(String, SimTime, String)],
) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for (label, t, detail) in rows {
        if detail.is_empty() {
            writeln!(
                f,
                "{{\"bench\":\"{}/{}\",\"sim_ns\":{}}}",
                json_escape(id),
                json_escape(label),
                t.0
            )?;
        } else {
            writeln!(
                f,
                "{{\"bench\":\"{}/{}\",\"sim_ns\":{},\"detail\":\"{}\"}}",
                json_escape(id),
                json_escape(label),
                t.0,
                json_escape(detail)
            )?;
        }
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Runs a world to completion, asserting success.
pub fn run_ok(world: &mut World) {
    assert_eq!(
        world.run_to_completion(),
        WorldExit::AllExited,
        "log: {:?}",
        world.log
    );
}

/// Simulated time of everything that has happened in a world.
pub fn sim_time(world: &World) -> SimTime {
    CostModel::default().time(&world.stats())
}

/// Simulated time elapsed between two snapshots.
pub fn sim_delta(before: SimTime, after: SimTime) -> SimTime {
    SimTime(after.0.saturating_sub(before.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_saturates() {
        assert_eq!(sim_delta(SimTime(10), SimTime(4)), SimTime(0));
        assert_eq!(sim_delta(SimTime(4), SimTime(10)), SimTime(6));
    }

    #[test]
    fn json_rows_append_as_one_line_each() {
        let dir = std::env::temp_dir().join("hemlock-bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.jsonl");
        let _ = std::fs::remove_file(&path);
        let rows = vec![
            ("plain label".to_string(), SimTime(42), String::new()),
            ("with \"quotes\"".to_string(), SimTime(7), String::new()),
            (
                "keyed".to_string(),
                SimTime(9),
                "171 evictions, 4 wb".to_string(),
            ),
        ];
        append_json_rows(path.to_str().unwrap(), "T0", &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"bench\":\"T0/plain label\",\"sim_ns\":42}\n\
             {\"bench\":\"T0/with \\\"quotes\\\"\",\"sim_ns\":7}\n\
             {\"bench\":\"T0/keyed\",\"sim_ns\":9,\"detail\":\"171 evictions, 4 wb\"}\n"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
