//! End-to-end analyzer tests over the seeded-violation fixture tree, plus
//! clean-workspace and flag-behaviour runs of the real binary.
//!
//! The fixture tree under `tests/fixtures/` mirrors the workspace layout
//! (`crates/<name>/src/*.rs`) so the path-scoped rules apply exactly as
//! they would in the real tree. The walker skips directories named
//! `fixtures`, so these files never pollute a real workspace run.

use std::path::{Path, PathBuf};
use std::process::Command;

use pandora_check::{run_checks, workspace_root, Config, Rule};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The golden diagnostic set: every seeded violation at its exact file,
/// line and code, in output order, with nothing extra. The seeded
/// waivers (`bad.rs` wall-clock, `control_leak.rs` probe) and the whole
/// mask-regression fixture `masked_ok.rs` must stay silent.
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
        ("crates/atm/src/burst_hot.rs", 8, "PC006"),
        ("crates/atm/src/burst_hot.rs", 13, "PC006"),
        ("crates/atm/src/cell.rs", 4, "PC003"),
        ("crates/atm/src/cell.rs", 8, "PC002"),
        ("crates/atm/src/hot.rs", 3, "PC006"),
        ("crates/atm/src/hot.rs", 14, "PC006"),
        ("crates/buffers/src/lib.rs", 3, "PC005"),
        ("crates/buffers/src/lib.rs", 7, "PC004"),
        ("crates/overlay/src/plan.rs", 3, "PC005"),
        ("crates/overlay/src/plan.rs", 10, "PC002"),
        ("crates/overlay/src/plan.rs", 17, "PC003"),
        ("crates/recover/src/lease.rs", 3, "PC005"),
        ("crates/recover/src/lease.rs", 10, "PC002"),
        ("crates/segment/src/wire.rs", 3, "PC005"),
        ("crates/session/src/agent.rs", 3, "PC005"),
        ("crates/session/src/agent.rs", 10, "PC002"),
        ("crates/session/src/proto.rs", 8, "PC101"),
        ("crates/session/src/proto.rs", 9, "PC101"),
        ("crates/session/src/proto.rs", 10, "PC101"),
        ("crates/session/src/proto.rs", 10, "PC101"),
        ("crates/session/src/proto.rs", 33, "PC101"),
        ("crates/sim/src/bad.rs", 4, "PC002"),
        ("crates/sim/src/bad.rs", 9, "PC003"),
        ("crates/sim/src/bad.rs", 13, "PC004"),
        ("crates/sim/src/foreign_waker.rs", 5, "PC007"),
        ("crates/sim/src/foreign_waker.rs", 13, "PC007"),
        ("crates/sim/src/pipeline.rs", 7, "PC102"),
        ("crates/sim/src/pipeline.rs", 21, "PC102"),
        ("crates/video/src/control_leak.rs", 5, "PC103"),
        ("crates/video/src/control_leak.rs", 9, "PC103"),
        ("crates/video/src/grab_pools.rs", 6, "PC104"),
        ("crates/video/src/grab_pools.rs", 11, "PC104"),
        ("crates/video/src/raw.rs", 4, "PC001"),
    ]
    .into_iter()
    .map(|(p, l, c)| (p.to_string(), l, c))
    .collect();
    assert_eq!(got, expected);
    // The issue's floor: at least 20 seeded findings, with every
    // cross-file rule represented.
    assert!(diags.len() >= 20);
    for rule in [
        Rule::WireExhaustive,
        Rule::ChannelCycle,
        Rule::CommandPath,
        Rule::PoolOrder,
    ] {
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
        "crates/atm/src/hot.rs:3: hot-path-alloc [PC006]:",
        "crates/atm/src/burst_hot.rs:8: hot-path-alloc [PC006]:",
        "crates/atm/src/burst_hot.rs:13: hot-path-alloc [PC006]:",
        "crates/overlay/src/plan.rs:10: wall-clock [PC002]:",
        "crates/overlay/src/plan.rs:17: os-thread [PC003]:",
        "crates/session/src/proto.rs:10: wire-exhaustive [PC101]:",
        "crates/sim/src/pipeline.rs:7: channel-cycle [PC102]:",
        "crates/video/src/control_leak.rs:5: command-path [PC103]:",
        "crates/video/src/grab_pools.rs:6: pool-order [PC104]:",
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
        !stdout.contains("burst_hot.rs:22"),
        "waived burst fan-out copy must not be reported:\n{stdout}"
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
    assert!(stdout.contains("\"total\": 33"), "{stdout}");
    assert!(stdout.contains("\"deny\": 31"), "{stdout}");
    assert!(stdout.contains("\"warn\": 2"), "{stdout}");
    assert!(stdout.contains("\"code\":\"PC102\""), "{stdout}");
    assert!(stdout.contains("\"severity\":\"warn\""), "{stdout}");
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

/// Warn-severity findings (pool-order) fail only under `--deny-warnings`.
#[test]
fn deny_warnings_escalates_pool_order() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("deny-warn");
    std::fs::create_dir_all(tmp.join("crates/audio/src")).unwrap();
    std::fs::create_dir_all(tmp.join("crates/video/src")).unwrap();
    std::fs::write(
        tmp.join("crates/audio/src/a.rs"),
        "fn f(audio_pool: &P, video_pool: &P) {\n    audio_pool.alloc(1);\n    video_pool.alloc(1);\n}\n",
    )
    .unwrap();
    std::fs::write(
        tmp.join("crates/video/src/b.rs"),
        "fn g(audio_pool: &P, video_pool: &P) {\n    video_pool.alloc(1);\n    audio_pool.alloc(1);\n}\n",
    )
    .unwrap();
    let lenient = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--no-baseline", "--root"])
        .arg(&tmp)
        .output()
        .unwrap();
    assert_eq!(lenient.status.code(), Some(0), "{lenient:?}");
    assert!(String::from_utf8_lossy(&lenient.stdout).contains("[PC104]"));
    let strict = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--no-baseline", "--deny-warnings", "--root"])
        .arg(&tmp)
        .output()
        .unwrap();
    assert_eq!(strict.status.code(), Some(1), "{strict:?}");
}

/// `--explain` prints the rationale for a code and rejects unknown ones.
#[test]
fn explain_prints_rule_rationale() {
    let out = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--explain", "PC101"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wire-exhaustive"), "{stdout}");
    assert!(stdout.contains("decode"), "{stdout}");
    let bad = Command::new(env!("CARGO_BIN_EXE_pandora-check"))
        .args(["--explain", "PC999"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
}

/// The acceptance scenario: deleting one `SessionMsg` decode arm from
/// the real `proto.rs` makes `wire-exhaustive` fire at the enum.
#[test]
fn deleting_a_decode_arm_breaks_wire_exhaustive() {
    let root = workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let proto = std::fs::read_to_string(root.join("crates/session/src/proto.rs")).unwrap();
    assert!(proto.contains("SessionMsg::Pong"), "fixture premise");
    // Drop the `9 => ... Pong` decode arm (and only it).
    let without: String = {
        let mut out = String::new();
        let mut skip = false;
        for line in proto.lines() {
            if line.trim_start().starts_with("9 => ") {
                skip = true;
            }
            if !skip {
                out.push_str(line);
                out.push('\n');
            }
            if skip && line.trim_end().ends_with("),") {
                skip = false;
            }
        }
        out
    };
    assert_ne!(proto, without, "the decode arm was not found");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("decode-arm-gone");
    std::fs::create_dir_all(tmp.join("crates/session/src")).unwrap();
    std::fs::write(tmp.join("crates/session/src/proto.rs"), &without).unwrap();
    let diags = run_checks(&tmp, &Config::default()).unwrap();
    let wire: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::WireExhaustive && d.message.contains("`Pong`"))
        .collect();
    assert_eq!(wire.len(), 1, "{diags:?}");
    assert!(wire[0].message.contains("no decode arm"));
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
