//! The `pandora-check` binary: analyze the workspace (or `--root <dir>`)
//! and exit nonzero if any non-baselined deny-severity invariant is
//! violated (any severity under `--deny-warnings`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pandora_check::baseline::{self, Baseline};
use pandora_check::{render_json, run_checks, workspace_root, Config, Rule, Severity, ALL_RULES};

const USAGE: &str = "\
pandora-check: workspace invariant analyzer

USAGE: pandora-check [OPTIONS]

OPTIONS:
  --root <dir>        analyze <dir> instead of the enclosing workspace
  --format <fmt>      output format: text (default) or json
  --output <file>     write diagnostics to <file> instead of stdout
  --baseline <file>   baseline file (default: <root>/check.baseline)
  --no-baseline       ignore any baseline file
  --write-baseline    rewrite the baseline from this run's findings, then exit
  --deny-warnings     warn-severity findings also fail the run
  --explain <code>    print the rationale for a PCxxx code (or rule name)
  -h, --help          this text

One pass: every .rs file is masked into code and comment channels and
the token rules run over it, one file at a time:

  PC001 safety-comment   unsafe requires a SAFETY: justification
  PC002 wall-clock       no Instant::now/SystemTime outside the allowlist
  PC003 os-thread        no thread::spawn/sleep outside the allowlist
  PC004 no-unwrap        no unwrap/expect outside tests in hot-path crates
  PC005 missing-docs     public items documented in the API crates
  PC007 std-waker        no cx.waker()/task::Waker outside the sim executor
  PC008 hash-order       no HashMap/HashSet outside the allowlist
  PC103 command-path     only the control plane touches command VCIs

Retired, never reused (--explain names what covers each now):
PC006 hot-path-alloc, PC101 wire-exhaustive, PC102 channel-cycle,
PC104 pool-order.

Waive a finding in place with: // check:allow(rule-name): reason
Tolerate a legacy finding by listing `PCxxx path:line` in check.baseline.
Exits 0 when clean, 1 on new findings, 2 on usage or I/O errors.";

/// Retired codes: `(code, name, what covers the obligation now)`.
const RETIRED: [(&str, &str, &str); 4] = [
    (
        "PC006",
        "hot-path-alloc",
        "It could not see `vec![..]`, and its only findings were its own fixtures. \
         tests/zero_copy.rs pins the property it guarded: a conference boxes back \
         a few slabs and none after warm-up.",
    ),
    (
        "PC101",
        "wire-exhaustive",
        "rustc enforces it. `pandora-session`'s proto test maps every SessionMsg, \
         StreamClass and RejectReason variant through a match with no `_` arm and \
         round-trips each through decode(encode(m)); `pandora` and \
         `pandora-faults` deny clippy::wildcard_enum_match_arm, so a catch-all \
         over StreamKind or FaultKind fails `cargo clippy -D warnings`.",
    ),
    (
        "PC102",
        "channel-cycle",
        "Its one real-tree hit was the waived conduit of the decoupling buffer \
         process, since deleted: a buffer is a queue. Deadlocks are caught at \
         run time by the executor's deadlock detector, and recorded schedules \
         are the determinism oracle.",
    ),
    (
        "PC104",
        "pool-order",
        "It never fired on the real tree; its only findings were its own fixtures.",
    ),
];

struct Options {
    root: Option<PathBuf>,
    json: bool,
    output: Option<PathBuf>,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    write_baseline: bool,
    deny_warnings: bool,
}

fn main() -> ExitCode {
    let mut opts = Options {
        root: None,
        json: false,
        output: None,
        baseline: None,
        no_baseline: false,
        write_baseline: false,
        deny_warnings: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = args.next().map(PathBuf::from);
                if opts.root.is_none() {
                    eprintln!("pandora-check: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            }
            "--format" => match args.next().as_deref() {
                Some("text") => opts.json = false,
                Some("json") => opts.json = true,
                other => {
                    eprintln!("pandora-check: --format requires `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--output" => {
                opts.output = args.next().map(PathBuf::from);
                if opts.output.is_none() {
                    eprintln!("pandora-check: --output requires a file argument");
                    return ExitCode::from(2);
                }
            }
            "--baseline" => {
                opts.baseline = args.next().map(PathBuf::from);
                if opts.baseline.is_none() {
                    eprintln!("pandora-check: --baseline requires a file argument");
                    return ExitCode::from(2);
                }
            }
            "--no-baseline" => opts.no_baseline = true,
            "--write-baseline" => opts.write_baseline = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--explain" => {
                let Some(code) = args.next() else {
                    eprintln!("pandora-check: --explain requires a PCxxx code or rule name");
                    return ExitCode::from(2);
                };
                return explain(&code);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pandora-check: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    run(&opts)
}

fn explain(code: &str) -> ExitCode {
    match Rule::from_code(code) {
        Some(rule) => {
            println!(
                "{} {} ({})\n\n{}",
                rule.code(),
                rule.name(),
                rule.severity().label(),
                rule.explain()
            );
            ExitCode::SUCCESS
        }
        None => match RETIRED
            .iter()
            .find(|(c, name, _)| c.eq_ignore_ascii_case(code) || *name == code)
        {
            Some((c, name, why)) => {
                println!("{c} {name} (retired)\n\n{why}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "pandora-check: unknown code `{code}`; known codes: {}",
                    ALL_RULES
                        .iter()
                        .map(|r| r.code())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::from(2)
            }
        },
    }
}

fn run(opts: &Options) -> ExitCode {
    let started = Instant::now();
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = opts.root.clone().unwrap_or_else(|| workspace_root(&cwd));
    let diagnostics = match run_checks(&root, &Config::default()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("pandora-check: failed to analyze {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("check.baseline"));
    if opts.write_baseline {
        let text = baseline::render(&diagnostics);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!(
                "pandora-check: cannot write {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        eprintln!(
            "pandora-check: wrote {} finding(s) to {}",
            diagnostics.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let baseline = if opts.no_baseline {
        Baseline::default()
    } else {
        match Baseline::load(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "pandora-check: cannot read {}: {e}",
                    baseline_path.display()
                );
                return ExitCode::from(2);
            }
        }
    };

    let failing: Vec<_> = diagnostics
        .iter()
        .filter(|d| {
            (opts.deny_warnings || d.rule.severity() == Severity::Deny) && !baseline.contains(d)
        })
        .collect();

    let rendered = if opts.json {
        render_json(&diagnostics)
    } else {
        let mut text = String::new();
        for d in &diagnostics {
            let suffix = if baseline.contains(d) {
                "  (baselined)"
            } else {
                ""
            };
            text.push_str(&format!("{d}{suffix}\n"));
        }
        text
    };
    if let Some(path) = &opts.output {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("pandora-check: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    } else {
        print!("{rendered}");
    }

    for stale in baseline.stale(&diagnostics) {
        eprintln!("pandora-check: stale baseline entry `{stale}` — finding fixed, prune it");
    }
    let elapsed = started.elapsed();
    if failing.is_empty() {
        eprintln!(
            "pandora-check: {} finding(s), 0 new ({} baselined) in {:.1?} ({})",
            diagnostics.len(),
            diagnostics.iter().filter(|d| baseline.contains(d)).count(),
            elapsed,
            root.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pandora-check: {} new violation(s) of {} finding(s) in {:.1?}",
            failing.len(),
            diagnostics.len(),
            elapsed
        );
        ExitCode::FAILURE
    }
}
