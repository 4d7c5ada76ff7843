//! The repository's benchmark: four workloads, five end-to-end metrics and a
//! per-crate layer ledger, all measured from outside the program. See
//! `benchmark/README.md` for what each number means and which should move
//! when; `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!     [--allow-dirty] [--out results.json]
//! cargo run ... -- --compare A.json B.json
//! ```

mod affinity;
mod client;
mod compare;
mod inputs;
mod offline;
mod probes;
mod procfs;
mod provenance;
mod runner;
mod schema;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use t2v_engine::Json;
use workloads::Outcome;

/// Length of one measurement window. Runs shorter than this are one window.
const WINDOW_SECONDS: u64 = 5;

/// Set-ups per measured run, `setup_s` being their median: at least
/// `SETUPS_MIN`, then more while they are cheap — until they add up to
/// `SETUP_BUDGET` or number `SETUPS_MAX`. A 0.1 s set-up is mostly thread
/// spawns and page faults, and needs the extra samples to be steady.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// How a run measures: everything derived from the command line.
pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    /// Measured phase: `windows` windows of `window`.
    pub windows: usize,
    pub window: Duration,
    /// Length of the untraced reference phase and of the traced phase of a
    /// traced run.
    pub trace_phase: Duration,
    pub setups_min: usize,
    pub setups_max: usize,
    pub setup_budget: Duration,
    pub nproc: usize,
    pub results_dir: PathBuf,
    pub stamp: Json,
}

struct Args {
    workloads: Vec<String>,
    traces: Vec<bool>,
    seed: u64,
    seconds: u64,
    allow_dirty: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str =
    "usage: t2v-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--allow-dirty] [--out FILE] | --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: schema::WORKLOADS.iter().map(|w| w.to_string()).collect(),
        traces: vec![false, true],
        seed: 7,
        seconds: schema::DEFAULT_SECONDS,
        allow_dirty: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !schema::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (one of {:?})",
                        schema::WORKLOADS
                    ));
                }
                args.workloads = vec![name.clone()];
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?
            }
            "--trace" => {
                args.traces = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => args.seconds = 2,
            "--allow-dirty" => args.allow_dirty = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Windows of [`WINDOW_SECONDS`], as many as fit; a shorter run is one
/// window of its whole length.
fn window_plan(seconds: u64) -> (usize, Duration) {
    if seconds >= WINDOW_SECONDS {
        (
            (seconds / WINDOW_SECONDS) as usize,
            Duration::from_secs(WINDOW_SECONDS),
        )
    } else {
        (1, Duration::from_secs(seconds))
    }
}

fn metrics_json(outcome: &Outcome) -> Json {
    let mut metrics = Json::Obj(Default::default());
    for (name, value) in &outcome.metrics {
        let unit = schema::end_to_end(name)
            .map(|(m, _)| m.unit)
            .or_else(|| schema::per_layer(name).map(|m| m.unit))
            .expect("every printed name is in the schema");
        metrics.set(
            name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        );
    }
    metrics
}

/// The line the driver reads: exactly these four keys.
fn contract_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome)),
    ])
    .compact()
}

fn run_record(outcome: &Outcome, plan: &Plan) -> Json {
    let mut samples = Json::Obj(Default::default());
    for (name, n) in &outcome.samples {
        samples.set(name, Json::Num(*n as f64));
    }
    Json::obj([
        ("workload", Json::str(outcome.workload)),
        ("trace", Json::Num(f64::from(u8::from(outcome.trace)))),
        ("stamp", plan.stamp.clone()),
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome)),
        ("samples", samples),
        ("detail", outcome.detail.clone()),
    ])
}

fn print_table(outcome: &Outcome) {
    println!(
        "## {} ({}) — {} ops attempted, {} failed, correct: {}",
        outcome.workload,
        if outcome.trace {
            "traced: per-layer"
        } else {
            "measured: end-to-end"
        },
        outcome.attempted,
        outcome.failed,
        outcome.correct
    );
    // Schema order, not alphabetical: layers stay together.
    let order = schema::END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(schema::PER_LAYER.iter());
    for m in order {
        if let Some(value) = outcome.metrics.get(m.name) {
            let samples = outcome
                .samples
                .get(m.name)
                .map_or(String::new(), |n| format!("  (n={n})"));
            println!("{:<36} {:>16.4} {}{samples}", m.name, value, m.unit);
        }
    }
}

/// Append `records` to the results file at `path` (created if absent).
fn append_results(path: &Path, records: Vec<Json>) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .ok_or_else(|| format!("{} is not a results file", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    runs.extend(records);
    let mut text = Json::obj([("schema", Json::Num(1.0)), ("runs", Json::Arr(runs))]).pretty();
    text.push('\n');
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_results(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        let rows = compare::compare(&read_results(a)?, &read_results(b)?);
        print!("{}", compare::render(&rows));
        if rows.is_empty() {
            return Err("the two files share no (workload, metric) pair".to_string());
        }
        let regressed = rows
            .iter()
            .any(|r| r.verdict == compare::Verdict::Regressed);
        return Ok(if regressed {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }

    let tree = provenance::Tree::read();
    if tree.is_dirty() && !args.allow_dirty {
        return Err(
            "the work tree has uncommitted changes: numbers from it cannot be traced to a \
                    commit (pass --allow-dirty to measure anyway; the stamp will say so)"
                .to_string(),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (windows, window) = window_plan(args.seconds);
    // cargo sets CARGO_MANIFEST_DIR for `cargo run`; otherwise assume the
    // repository root, where the driver runs the command from.
    let results_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("results");
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        windows,
        window,
        trace_phase: Duration::from_secs((args.seconds / 3).max(2)),
        setups_min: SETUPS_MIN,
        setups_max: SETUPS_MAX,
        setup_budget: SETUP_BUDGET,
        nproc,
        results_dir,
        stamp: provenance::stamp(
            &tree,
            args.seed,
            nproc,
            args.seconds,
            (windows, window.as_secs_f64()),
        ),
    };
    println!("# provenance {}", plan.stamp.compact());

    let mut records = Vec::new();
    let mut last_line = String::new();
    let mut all_correct = true;
    for workload in &args.workloads {
        for &trace in &args.traces {
            // A run that is not the workload it claims to be prints no numbers.
            let outcome = workloads::run(workload, trace, &plan)
                .map_err(|e| format!("{workload} (trace {}): {e}", u8::from(trace)))?;
            print_table(&outcome);
            all_correct &= outcome.correct;
            last_line = contract_line(&outcome);
            records.push(run_record(&outcome, &plan));
        }
    }
    let out = args.out.unwrap_or_else(|| {
        // `latest.json` holds the last invocation only.
        let latest = plan.results_dir.join("latest.json");
        let _ = std::fs::remove_file(&latest);
        latest
    });
    let many = records.len() > 1;
    append_results(&out, records)?;
    println!("# results {}", out.display());
    if many {
        println!(
            "{}",
            Json::obj([("correct", Json::Bool(all_correct))]).compact()
        );
    } else {
        println!("{last_line}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("t2v-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve_miss",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, vec!["serve_miss"]);
        assert_eq!((a.seed, a.seconds, a.traces), (11, 20, vec![true]));
        let d = args(&[]).unwrap();
        assert_eq!(d.workloads.len(), 4);
        assert_eq!(d.traces, vec![false, true]);
        assert_eq!(d.seconds, schema::DEFAULT_SECONDS);
        assert_eq!(args(&["--quick"]).unwrap().seconds, 2);
        assert!(args(&["--workload", "serve_warm"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "61"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--compare", "a.json", "b.json"])
            .unwrap()
            .compare
            .is_some());
    }

    #[test]
    fn windows_drop_in_count_never_in_length() {
        assert_eq!(window_plan(30), (6, Duration::from_secs(5)));
        assert_eq!(window_plan(15), (3, Duration::from_secs(5)));
        assert_eq!(window_plan(9), (1, Duration::from_secs(5)));
        assert_eq!(window_plan(2), (1, Duration::from_secs(2)));
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys_and_units() {
        let outcome = Outcome {
            workload: "serve_hot",
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: [("setup_s", 1.25), ("quality", 1.0)].into_iter().collect(),
            samples: Default::default(),
            detail: Json::Null,
        };
        let line = Json::parse(&contract_line(&outcome)).unwrap();
        let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn results_files_accumulate_runs() {
        // Inside the benchmark's own (ignored) results directory.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("set.json");
        append_results(&path, vec![Json::obj([("workload", Json::str("a"))])]).unwrap();
        append_results(&path, vec![Json::obj([("workload", Json::str("b"))])]).unwrap();
        let doc = read_results(&path).unwrap();
        assert_eq!(
            doc.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        std::fs::write(&path, "[]").unwrap();
        assert!(append_results(&path, Vec::new()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
