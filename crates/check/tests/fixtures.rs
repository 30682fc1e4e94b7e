//! End-to-end analyzer tests over the seeded-violation fixture tree, plus
//! clean-workspace and flag-behaviour runs of the real binary.
//!
//! The fixture tree under `tests/fixtures/` mirrors the workspace layout
//! (`crates/<name>/src/*.rs`) so the path-scoped rules apply exactly as
//! they would in the real tree. The walker skips directories named
//! `fixtures`, so these files never pollute a real workspace run.

use std::path::{Path, PathBuf};
use std::process::Command;

use pandora_check::{run_checks, workspace_root, Config, ALL_RULES};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The golden diagnostic set: every seeded violation at its exact file,
/// line and code, in output order, with nothing extra. The seeded
/// waivers (`bad.rs` wall-clock, `net_out.rs` lookup map,
/// `control_leak.rs` probe) and the whole mask-regression fixture
/// `masked_ok.rs` must stay silent.
#[test]
fn fixtures_report_exactly_the_seeded_violations() {
    let diags = run_checks(&fixture_root(), &Config::default()).unwrap();
    let got: Vec<(String, usize, &str)> = diags
        .iter()
        .map(|d| {
            (
                d.path.to_string_lossy().replace('\\', "/"),
                d.line,
                d.rule.code(),
            )
        })
        .collect();
    let expected: Vec<(String, usize, &str)> = [
        ("crates/atm/src/cell.rs", 4, "PC003"),
        ("crates/atm/src/cell.rs", 8, "PC002"),
        ("crates/buffers/src/lib.rs", 3, "PC005"),
        ("crates/buffers/src/lib.rs", 7, "PC004"),
        ("crates/core/src/net_out.rs", 6, "PC008"),
        ("crates/core/src/net_out.rs", 10, "PC008"),
        ("crates/overlay/src/plan.rs", 3, "PC005"),
        ("crates/overlay/src/plan.rs", 10, "PC002"),
        ("crates/overlay/src/plan.rs", 17, "PC003"),
        ("crates/recover/src/lease.rs", 3, "PC005"),
        ("crates/recover/src/lease.rs", 10, "PC002"),
        ("crates/segment/src/wire.rs", 3, "PC005"),
        ("crates/session/src/agent.rs", 3, "PC005"),
        ("crates/session/src/agent.rs", 10, "PC002"),
        ("crates/sim/src/bad.rs", 4, "PC002"),
        ("crates/sim/src/bad.rs", 9, "PC003"),
        ("crates/sim/src/bad.rs", 13, "PC004"),
        ("crates/sim/src/foreign_waker.rs", 5, "PC007"),
        ("crates/sim/src/foreign_waker.rs", 13, "PC007"),
        ("crates/video/src/control_leak.rs", 5, "PC103"),
        ("crates/video/src/control_leak.rs", 9, "PC103"),
        ("crates/video/src/raw.rs", 4, "PC001"),
    ]
    .into_iter()
    .map(|(p, l, c)| (p.to_string(), l, c))
    .collect();
    assert_eq!(got, expected);
    for rule in ALL_RULES {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "rule {rule} never fired on the fixture tree"
        );
    }
}

/// The binary exits nonzero on the fixture tree and prints
/// `path:line: rule-name [PCxxx]` diagnostics on stdout.
#[test]
fn binary_exits_nonzero_on_fixtures() {
    let out = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--no-baseline", "--root"])
        .arg(fixture_root())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "crates/sim/src/bad.rs:4: wall-clock [PC002]:",
        "crates/sim/src/bad.rs:9: os-thread [PC003]:",
        "crates/sim/src/bad.rs:13: no-unwrap [PC004]:",
        "crates/sim/src/foreign_waker.rs:13: std-waker [PC007]:",
        "crates/video/src/raw.rs:4: safety-comment [PC001]:",
        "crates/segment/src/wire.rs:3: missing-docs [PC005]:",
        "crates/core/src/net_out.rs:10: hash-order [PC008]:",
        "crates/overlay/src/plan.rs:10: wall-clock [PC002]:",
        "crates/overlay/src/plan.rs:17: os-thread [PC003]:",
        "crates/video/src/control_leak.rs:5: command-path [PC103]:",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    assert!(
        !stdout.contains("bad.rs:18"),
        "waived wall-clock must not be reported:\n{stdout}"
    );
    assert!(
        !stdout.contains("foreign_waker.rs:8") && !stdout.contains("foreign_waker.rs:22"),
        "waived and test-module std wakers must not be reported:\n{stdout}"
    );
    assert!(
        !stdout.contains("masked_ok.rs"),
        "mask regression fixture must stay silent:\n{stdout}"
    );
    assert!(
        !stdout.contains("net_out.rs:25") && !stdout.contains("control_leak.rs:14"),
        "waived lookup map and command probe must not be reported:\n{stdout}"
    );
}

/// `--format json` emits the machine-readable artifact with counts.
#[test]
fn binary_emits_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--no-baseline", "--format", "json", "--root"])
        .arg(fixture_root())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"total\": 22"), "{stdout}");
    assert!(stdout.contains("\"deny\": 22"), "{stdout}");
    assert!(stdout.contains("\"warn\": 0"), "{stdout}");
    assert!(stdout.contains("\"code\":\"PC008\""), "{stdout}");
    assert!(stdout.contains("\"severity\":\"deny\""), "{stdout}");
}

/// A baseline listing every finding turns the exit green; a stale entry
/// is reported on stderr.
#[test]
fn baseline_suppresses_known_findings() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("baseline-run");
    std::fs::create_dir_all(&tmp).unwrap();
    let baseline_path = tmp.join("check.baseline");
    // Generate the baseline from the current findings, then re-run.
    let write = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--write-baseline", "--baseline"])
        .arg(&baseline_path)
        .arg("--root")
        .arg(fixture_root())
        .output()
        .unwrap();
    assert_eq!(write.status.code(), Some(0), "{write:?}");
    let rerun = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--baseline"])
        .arg(&baseline_path)
        .arg("--root")
        .arg(fixture_root())
        .output()
        .unwrap();
    assert_eq!(
        rerun.status.code(),
        Some(0),
        "baselined run must pass: {rerun:?}"
    );
    let stderr = String::from_utf8_lossy(&rerun.stderr);
    assert!(stderr.contains("0 new"), "{stderr}");
    // A baseline with an extra (fixed) entry reports it as stale.
    let mut text = std::fs::read_to_string(&baseline_path).unwrap();
    text.push_str("PC002 crates/sim/src/gone.rs:1\n");
    std::fs::write(&baseline_path, &text).unwrap();
    let stale = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--baseline"])
        .arg(&baseline_path)
        .arg("--root")
        .arg(fixture_root())
        .output()
        .unwrap();
    assert_eq!(stale.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&stale.stderr);
    assert!(stderr.contains("stale baseline entry"), "{stderr}");
}

/// `--explain` prints the rationale for a live code, what covers a
/// retired one, and rejects unknown ones.
#[test]
fn explain_prints_rule_rationale() {
    for (code, needles) in [
        ("PC008", ["hash-order", "BTreeMap"]),
        (
            "PC101",
            ["wire-exhaustive (retired)", "wildcard_enum_match_arm"],
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
            .args(["--explain", code])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout);
        for needle in needles {
            assert!(stdout.contains(needle), "{code}: {stdout}");
        }
    }
    let bad = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--explain", "PC999"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
}

/// The intact workspace has zero non-baselined findings: the binary
/// (with the committed baseline) exits 0.
#[test]
fn binary_exits_zero_on_workspace() {
    let root = workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let out = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--deny-warnings", "--root"])
        .arg(&root)
        .current_dir(&root)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "workspace not clean:\n{stdout}");
}

/// Unknown flags are a usage error (exit 2), not a crash.
#[test]
fn binary_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .arg("--bogus")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
