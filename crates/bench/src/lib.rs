//! Shared helpers for the experiment benchmarks.
//!
//! Every bench prints one **simulated-time** table (the deterministic
//! cost-model numbers behind the paper's claims), which
//! `scripts/bench_compare.sh` renders into EXPERIMENTS.md, and appends
//! its rows to `BENCH_JSON_OUT` when that names a file. Host wall time
//! is perfbench's job (`perfbench/`, `BENCHMARK.json`).

use hemlock::{CostModel, SimTime, World, WorldExit};
use std::io::Write;

/// Prints one experiment's simulated results to stderr as a markdown
/// table under an `=== <id>: <title> ===` line. `scripts/bench_compare.sh`
/// splices that table, as printed, between EXPERIMENTS.md's
/// `<!-- bench:<id> -->` markers and fails if the committed file
/// differs. When `BENCH_JSON_OUT` names a file, each row is also
/// appended there as one JSON line (`{"bench":"<id>/<label>",
/// "sim_ns":<n>}`), which the same script gates exactly against the
/// committed `BENCH_2.json`. The values are cost-model simulated time,
/// so they are exactly reproducible across machines.
///
/// The label is the row's key: keep it *stable* across runs whose cost
/// behavior should be comparable. Other observables (eviction counts,
/// peak frames, ...) belong in the `detail` field of
/// [`report_detailed`].
pub fn report(id: &str, title: &str, rows: &[(String, SimTime)]) {
    let detailed: Vec<(String, SimTime, String)> = rows
        .iter()
        .map(|(l, t)| (l.clone(), *t, String::new()))
        .collect();
    report_detailed(id, title, &detailed);
}

/// [`report`] with a per-row free-form `detail` string (empty = none):
/// counts that readers want next to the number. A detail is printed in
/// the table's third column and carried in the JSON row, but it is not
/// part of the row's key.
#[expect(clippy::disallowed_methods, reason = "names the bench gate's file")]
pub fn report_detailed(id: &str, title: &str, rows: &[(String, SimTime, String)]) {
    eprintln!("\n=== {id}: {title} ===");
    if rows.iter().any(|(_, _, detail)| !detail.is_empty()) {
        eprintln!("| row | sim time | detail |\n|---|---:|---|");
        for (label, t, detail) in rows {
            eprintln!("| {label} | {t} | {detail} |");
        }
    } else {
        eprintln!("| row | sim time |\n|---|---:|");
        for (label, t, _) in rows {
            eprintln!("| {label} | {t} |");
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
