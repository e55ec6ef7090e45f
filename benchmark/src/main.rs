//! `kf-benchmark`: the command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>|all] [--seed <u64>] [--seconds <s>] [--trace 0|1]
//!     [--smoke] [--check-repeat] [--print-manifest]
//! ```
//!
//! With one `--workload`, the process runs that workload in one mode and
//! ends its standard output with the result line (`correct`, `attempted`,
//! `failed`, `metrics`). With `all` (the default) it runs every workload,
//! each in a process of its own, first untraced and then traced, and ends
//! with every metric of every workload.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use kf_benchmark::bench::{run_traced, run_untraced, Options};
use kf_benchmark::catalog::{manifest_text, Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use kf_benchmark::json::Json;
use kf_benchmark::workload::{find, WORKLOADS};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 20_250_623;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        check_repeat: false,
        print_manifest: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn print_metrics(metrics: &[(&'static str, f64, &'static str)]) {
    for (name, value, unit) in metrics {
        println!("  {name:<52} {value:>16.4} {unit}");
    }
}

/// One workload, one mode, in this process.
fn run_one(args: &Args, workload: &'static kf_benchmark::workload::Workload) -> ExitCode {
    let options = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        out: kf_benchmark::out_dir(),
    };
    std::fs::create_dir_all(&options.out).expect("output directory is creatable");
    let traced = args.trace.unwrap_or(false);
    let outcome = if traced {
        run_traced(&options)
    } else {
        run_untraced(&options)
    };
    println!(
        "{} ({}, seed {}): {}",
        workload.name,
        if traced { "traced" } else { "untraced" },
        args.seed,
        workload.why
    );
    print_metrics(&outcome.metrics);
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
    let report = options.out.join(format!(
        "report-{}-{}.json",
        workload.name,
        if traced { "traced" } else { "untraced" }
    ));
    if let Err(e) = std::fs::write(&report, outcome.detail.render() + "\n") {
        eprintln!("cannot write {}: {e}", report.display());
    }
    println!("  detail: {}", outcome.detail.render());
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in one mode in a child process and read its result
/// line back: (correct, metric name -> value).
fn run_child(
    args: &Args,
    workload: &str,
    traced: bool,
) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let result = kf_yaml::parse_json(line)
        .map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
    let correct = result.get("correct").and_then(|v| v.as_bool()) == Some(true);
    if !correct {
        for line in stdout.lines().filter(|l| l.contains("PROBLEM")) {
            println!("{line}");
        }
    }
    let metrics = result
        .get("metrics")
        .and_then(|m| m.as_map())
        .ok_or(format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0);
            (name.to_owned(), value)
        })
        .collect();
    Ok((correct && output.status.success(), metrics))
}

type Results = BTreeMap<(&'static str, bool), BTreeMap<String, f64>>;

/// Every workload, untraced then (unless `untraced_only`) traced, each in
/// its own process.
fn run_all(args: &Args, untraced_only: bool) -> Result<(bool, Results), String> {
    let mut results = Results::new();
    let mut correct = true;
    for workload in &WORKLOADS {
        for traced in [false, true] {
            if traced && untraced_only {
                continue;
            }
            let (ok, metrics) = run_child(args, workload.name, traced)?;
            correct &= ok;
            println!(
                "{} ({}, closed loop, {} client(s){}){}",
                workload.name,
                if traced { "traced" } else { "untraced" },
                if traced { 1 } else { workload.clients },
                if workload.drain_thread {
                    " + 1 drain thread"
                } else {
                    ""
                },
                if ok { "" } else { "  ** INCORRECT **" }
            );
            let catalog: &[Metric] = if traced { PER_LAYER } else { END_TO_END };
            for metric in catalog {
                let value = metrics.get(metric.name).copied().unwrap_or(f64::NAN);
                println!("  {:<52} {value:>16.4} {}", metric.name, metric.unit);
            }
            results.insert((workload.name, traced), metrics);
        }
    }
    Ok((correct, results))
}

fn results_json(correct: bool, results: &Results) -> Json {
    Json::object().with("correct", correct).with(
        "workloads",
        Json::Obj(
            WORKLOADS
                .iter()
                .map(|workload| {
                    let mut merged = Vec::new();
                    for traced in [false, true] {
                        if let Some(metrics) = results.get(&(workload.name, traced)) {
                            merged.extend(
                                metrics
                                    .iter()
                                    .map(|(name, value)| (name.clone(), Json::Num(*value))),
                            );
                        }
                    }
                    (workload.name.to_owned(), Json::Obj(merged))
                })
                .collect(),
        ),
    )
}

/// Run the untraced set twice, back to back, and hold every end-to-end
/// metric's relative difference against its bound.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let (first_ok, first) = run_all(args, true)?;
    let (second_ok, second) = run_all(args, true)?;
    let mut within = first_ok && second_ok;
    println!("\nrepeat check: second run against first, same code, same seed");
    println!(
        "  {:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for workload in &WORKLOADS {
        for metric in END_TO_END {
            let value = |results: &Results| {
                results
                    .get(&(workload.name, false))
                    .and_then(|m| m.get(metric.name))
                    .copied()
                    .unwrap_or(f64::NAN)
            };
            let (a, b) = (value(&first), value(&second));
            let worse = if metric.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let ok = worse <= metric.bound;
            within &= ok;
            println!(
                "  {:<16} {:<18} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{}",
                workload.name,
                metric.name,
                worse * 100.0,
                metric.bound * 100.0,
                if ok { "" } else { "  ** OUTSIDE BOUND **" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("kf-benchmark: {problem}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", manifest_text());
        return ExitCode::SUCCESS;
    }
    if args.check_repeat {
        return match check_repeat(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(problem) => {
                eprintln!("kf-benchmark: {problem}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload != "all" {
        return match find(&args.workload) {
            Some(workload) => run_one(&args, workload),
            None => {
                eprintln!(
                    "kf-benchmark: unknown workload {} (known: {})",
                    args.workload,
                    WORKLOADS.map(|w| w.name).join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    match run_all(&args, false) {
        Ok((correct, results)) => {
            println!("{}", results_json(correct, &results).render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(problem) => {
            eprintln!("kf-benchmark: {problem}");
            ExitCode::FAILURE
        }
    }
}
