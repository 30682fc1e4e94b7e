//! The benchmark of this repository: four whole-scenario workloads, eight
//! end-to-end metrics, and a per-layer table measured from outside. See
//! README.md in this directory; `BENCHMARK.json` at the repository root
//! declares the command, the workloads and every metric.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! run.sh [--seed N] [--seconds S] [--repeat K]          every workload, every check
//! run.sh compare A.json B.json                          two result files side by side
//! run.sh spread [--runs N] [--seconds S]                steadiness over N seeds, per metric
//! ```

mod broadcast;
mod host;
mod json;
mod metrics;
mod probe;
mod report;
mod run;
mod spans;
mod star;
mod stats;
mod walk;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Value;
use run::Check;
use workload::Workload;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1993;
/// Seconds a run measures for when none are given — `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    runs: usize,
    out: PathBuf,
    result: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        runs: 10,
        out: PathBuf::from("benchmark/out"),
        result: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => parsed.trace = number(value()?)? != 0,
            "--repeat" => parsed.repeat = number(value()?)?.clamp(1, 8) as usize,
            "--runs" => parsed.runs = number(value()?)?.clamp(2, 100) as usize,
            "--out" => parsed.out = PathBuf::from(value()?),
            "--result" => parsed.result = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare_files(Path::new(a), Path::new(b)),
            _ => usage("compare needs two result files"),
        };
    }
    let spread = args.first().map(String::as_str) == Some("spread");
    let parsed = match parse_args(&args[usize::from(spread)..]) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    if spread {
        return spread_over_seeds(&parsed);
    }
    match parsed.workload {
        Some(workload) => single_run(workload, &parsed),
        None => whole_benchmark(&parsed),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("pandora-benchmark: {problem}");
    eprintln!(
        "usage: run.sh --workload <{}> --seed N --seconds S --trace 0|1\n       \
         run.sh [--seed N] [--seconds S] [--repeat K]\n       run.sh compare A.json B.json\n       \
         run.sh spread [--runs N] [--seed FIRST] [--seconds S]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// One workload, one run, in this process. The result line is the last
/// line of standard output. The exit code is 0 whenever the run finished;
/// whether its outputs were correct is the line's `correct`.
fn single_run(workload: Workload, args: &Args) -> ExitCode {
    let result = run::run(workload, args.seed, args.seconds, args.trace, &args.out);
    print!("{}", report::render_run(&result));
    if let Some(path) = &args.result {
        if let Err(e) = std::fs::write(path, result.to_json().render() + "\n") {
            eprintln!("pandora-benchmark: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report::driver_line(&result));
    ExitCode::SUCCESS
}

/// Every workload, timed then traced, each run in a child process of its
/// own — so `peak_rss_mb` is per workload and never more than `nproc`
/// threads run at once — then the checks that span runs.
fn whole_benchmark(args: &Args) -> ExitCode {
    let started = Instant::now();
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("pandora-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("pandora-benchmark: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let metadata = host::metadata(args.seed, args.seconds);
    println!("host: {}", metadata.render());

    let mut sets = Vec::new();
    let mut ok = true;
    for pass in 0..args.repeat {
        let set_started = Instant::now();
        let mut runs = Vec::new();
        let mut set_checks = Vec::new();
        for workload in Workload::ALL {
            for trace in [false, true] {
                match child_run(&exe, workload, trace, args) {
                    Ok((text, value)) => {
                        print!("{text}");
                        runs.push(value);
                    }
                    Err(e) => set_checks.push(Check::new("every run finishes", false, e)),
                }
            }
        }
        let timed = |w: Workload| {
            runs.iter().find(|r| {
                r.get("workload").and_then(Value::as_str) == Some(w.name())
                    && r.get("trace").and_then(Value::as_bool) == Some(false)
            })
        };
        if let (Some(one), Some(two)) = (
            timed(Workload::Broadcast1024),
            timed(Workload::Broadcast1024Sh2),
        ) {
            set_checks.push(report::cross_shard_check(one, two));
        }
        for r in &runs {
            if r.get("correct").and_then(Value::as_bool) != Some(true) {
                set_checks.push(Check::new(
                    "every run's own checks pass",
                    false,
                    format!(
                        "{} (traced {:?})",
                        r.get("workload").and_then(Value::as_str).unwrap_or("?"),
                        r.get("trace").and_then(Value::as_bool)
                    ),
                ));
            }
        }
        ok &= print_checks(&set_checks);
        let file = report::result_file(
            metadata.clone(),
            set_started.elapsed().as_secs_f64(),
            runs,
            &set_checks,
        );
        let name = if args.repeat == 1 {
            format!("result-seed{}.json", args.seed)
        } else {
            format!("result-seed{}-set{}.json", args.seed, pass + 1)
        };
        let path = args.out.join(name);
        match std::fs::write(&path, file.render() + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("pandora-benchmark: {}: {e}", path.display());
                ok = false;
            }
        }
        sets.push(file);
    }
    for pair in sets.windows(2) {
        let (table, checks) = report::compare_sets(&pair[0], &pair[1]);
        println!("== two sets of the same commit, side by side ==");
        print!("{table}");
        ok &= print_checks(&checks);
    }
    println!(
        "whole benchmark: {:.1} wall s, {}",
        started.elapsed().as_secs_f64(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints failed checks (and a count of the passed ones); true when none
/// failed.
fn print_checks(checks: &[Check]) -> bool {
    let failed: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();
    for c in &failed {
        println!("  [FAIL] {} — {}", c.name, c.detail);
    }
    println!(
        "  checks across runs: {} passed, {} failed",
        checks.len() - failed.len(),
        failed.len()
    );
    failed.is_empty()
}

/// Runs one workload in a child process and reads its result file back.
fn child_run(
    exe: &Path,
    workload: Workload,
    trace: bool,
    args: &Args,
) -> Result<(String, Value), String> {
    let result_path = args.out.join(format!(
        "run-{}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ));
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .arg("--result")
        .arg(&result_path)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "{}: exited with {}",
            workload.name(),
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    // Everything but the driver's result line, which the result file
    // carries in full.
    let shown: String = text
        .lines()
        .filter(|l| !l.starts_with('{'))
        .flat_map(|l| [l, "\n"])
        .collect();
    let value = std::fs::read_to_string(&result_path)
        .map_err(|e| format!("{}: {e}", result_path.display()))
        .and_then(|t| json::parse(&t))?;
    Ok((shown, value))
}

/// The steadiness protocol of the builder's contract: the timed run of
/// every declared workload at `--runs` consecutive seeds, then for each end-to-end
/// metric the distance between the first and third quartile of its
/// values as a share of their median, held against the metric's bound.
fn spread_over_seeds(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot find own executable: {e}")),
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        return usage(&format!("{}: {e}", args.out.display()));
    }
    let mut values: std::collections::BTreeMap<(usize, &str), Vec<f64>> = Default::default();
    for i in 0..args.runs as u64 {
        let run_args = Args {
            seed: args.seed + i,
            out: args.out.clone(),
            result: None,
            ..*args
        };
        for (w, workload) in Workload::DECLARED.into_iter().enumerate() {
            let value = match child_run(&exe, workload, false, &run_args) {
                Ok((_, value)) => value,
                Err(e) => return usage(&e),
            };
            if value.get("correct").and_then(Value::as_bool) != Some(true) {
                return usage(&format!(
                    "{} seed {}: not correct",
                    workload.name(),
                    run_args.seed
                ));
            }
            for m in &metrics::END_TO_END {
                let v = value
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name)?.get("value")?.as_f64());
                values.entry((w, m.name)).or_default().extend(v);
            }
        }
        println!("seed {} done", run_args.seed);
    }
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    let mut ok = true;
    for (w, workload) in Workload::DECLARED.into_iter().enumerate() {
        for m in &metrics::END_TO_END {
            let v = &values[&(w, m.name)];
            let spread = stats::quartile_spread(v).unwrap_or(f64::INFINITY);
            let verdict = if spread * 3.0 <= m.bound {
                "steady"
            } else if spread <= m.bound {
                "within bound"
            } else if m.name == "setup_s" {
                "wide (exempt)"
            } else {
                ok = false;
                "TOO WIDE"
            };
            let (lo, hi) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(*x), hi.max(*x))
                });
            println!(
                "{:<18} {:<16} {lo:>14.6} {:>14.6} {hi:>14.6} {:>7.2}% {:>5.1}%  {verdict}",
                workload.name(),
                m.name,
                stats::median(v),
                spread * 100.0,
                m.bound * 100.0,
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let (table, checks) = report::compare_sets(&a, &b);
    print!("{table}");
    if print_checks(&checks) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
