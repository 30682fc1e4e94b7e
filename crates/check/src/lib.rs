//! `pandora-check`: static enforcement of workspace invariants that the
//! compiler cannot see.
//!
//! Pandora's correctness leans on properties rustc has no lint for:
//!
//! * the deterministic crates must never consult the wall clock or OS
//!   scheduler, or the simulation stops being reproducible;
//! * every `unsafe` block must carry a written justification;
//! * the hot-path crates must not panic via `unwrap`/`expect` outside
//!   test code — buffer exhaustion and channel closure are *reported*
//!   conditions in the paper, not crashes;
//! * the public wire-format and allocator APIs must stay documented;
//! * files that declare themselves transport hot paths must not allocate
//!   per segment — payload bytes live in the slab arena (DESIGN.md §9);
//! * every variant of a wire-marked enum must be encodable and decodable
//!   somewhere in the workspace — a kind code without a decode arm is a
//!   silent protocol hole (DESIGN.md §12);
//! * rendezvous channel topologies wired inside one function must not
//!   form wait-for cycles, pools must be acquired in one global order,
//!   and only the control plane may touch the well-known command VCIs.
//!
//! The analyzer runs in two stages (see DESIGN.md §12). Stage one masks
//! each file into lexical channels ([`mask`]) and runs the per-file token
//! rules. Stage two parses the masked code into an item-level model
//! ([`parse`]), aggregates it across files ([`model`]), and runs the
//! cross-file protocol rules. Pure `std`, no registry dependencies.
//!
//! Every diagnostic carries a stable `PCxxx` code and a severity. A
//! violation can be waived in place with a comment
//! `check:allow(rule-name): reason` on or above the offending line, or
//! recorded in the committed `check.baseline` file so CI keeps failing
//! only on *new* findings ([`baseline`]).

use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod mask;
pub mod model;
pub mod parse;
mod rules;
mod walk;

pub use walk::workspace_root;

/// The rules the analyzer enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unsafe` without a `// SAFETY:` (or `# Safety` doc) justification.
    SafetyComment,
    /// Wall-clock time (`Instant::now`, `SystemTime`) outside the allowlist.
    WallClock,
    /// OS threading (`thread::spawn`, `thread::sleep`) outside the allowlist.
    OsThread,
    /// `unwrap()`/`expect(` outside `#[cfg(test)]` in a hot-path crate.
    NoUnwrap,
    /// Public item without a doc comment in a documented crate.
    MissingDocs,
    /// `Vec::new`/`to_vec()` outside test code in a file that opted into
    /// the hot-path marker — the transport data path allocates from the
    /// slab arena, never per segment.
    HotPathAlloc,
    /// A std `Waker` (`cx.waker()`, `task::Waker`) outside the executor:
    /// the `Context` waker is inert, tasks wake through `pandora_sim::waker()`.
    StdWaker,
    /// A variant of a `check:wire-enum` marked enum lacking an encode
    /// match arm, or (for full obligations) a decode arm constructing it
    /// from a literal kind code.
    WireExhaustive,
    /// Tasks wired in one function form a wait-for cycle over rendezvous
    /// channels — a static deadlock candidate.
    ChannelCycle,
    /// A crate outside the control plane references the well-known
    /// command VCIs (`CONTROL_VCI_BASE`, `Vci(0x7F..)`).
    CommandPath,
    /// Two pools acquired in opposite orders in different places.
    PoolOrder,
}

/// How a diagnostic affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but fails the run only under `--deny-warnings`.
    Warn,
    /// Fails the run unless waived or baselined.
    Deny,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// Every rule, in code order — the `--help`/`--explain` catalogue.
pub const ALL_RULES: [Rule; 11] = [
    Rule::SafetyComment,
    Rule::WallClock,
    Rule::OsThread,
    Rule::NoUnwrap,
    Rule::MissingDocs,
    Rule::HotPathAlloc,
    Rule::StdWaker,
    Rule::WireExhaustive,
    Rule::ChannelCycle,
    Rule::CommandPath,
    Rule::PoolOrder,
];

impl Rule {
    /// The kebab-case name used in diagnostics and `check:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::WallClock => "wall-clock",
            Rule::OsThread => "os-thread",
            Rule::NoUnwrap => "no-unwrap",
            Rule::MissingDocs => "missing-docs",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::StdWaker => "std-waker",
            Rule::WireExhaustive => "wire-exhaustive",
            Rule::ChannelCycle => "channel-cycle",
            Rule::CommandPath => "command-path",
            Rule::PoolOrder => "pool-order",
        }
    }

    /// The stable diagnostic code. `PC0xx` are the per-file token rules,
    /// `PC1xx` the cross-file protocol rules. Codes never get reused.
    pub fn code(self) -> &'static str {
        match self {
            Rule::SafetyComment => "PC001",
            Rule::WallClock => "PC002",
            Rule::OsThread => "PC003",
            Rule::NoUnwrap => "PC004",
            Rule::MissingDocs => "PC005",
            Rule::HotPathAlloc => "PC006",
            Rule::StdWaker => "PC007",
            Rule::WireExhaustive => "PC101",
            Rule::ChannelCycle => "PC102",
            Rule::CommandPath => "PC103",
            Rule::PoolOrder => "PC104",
        }
    }

    /// How a finding of this rule affects the exit status.
    ///
    /// `pool-order` warns rather than denies: the analysis is a textual
    /// over-approximation (acquisition order within one function body,
    /// ignoring control flow), so a conflicting order deserves review,
    /// not an unconditional red build.
    pub fn severity(self) -> Severity {
        match self {
            Rule::PoolOrder => Severity::Warn,
            _ => Severity::Deny,
        }
    }

    /// Resolves a `PCxxx` code (case-insensitive) or a kebab-case name.
    pub fn from_code(code: &str) -> Option<Rule> {
        ALL_RULES
            .into_iter()
            .find(|r| r.code().eq_ignore_ascii_case(code) || r.name() == code)
    }

    /// The long-form explanation behind `--explain PCxxx`: what the rule
    /// protects, why it exists, and how to satisfy or waive it.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::SafetyComment => {
                "Every `unsafe` token needs a written justification: a `// SAFETY:` \
                 comment on the same line or in the comment block directly above, or \
                 a `# Safety` doc section. The justification is the reviewable record \
                 of which invariant makes the block sound."
            }
            Rule::WallClock => {
                "Deterministic crates must not read real time (`Instant::now`, \
                 `SystemTime`). The simulation derives every timestamp from the \
                 virtual clock so that a seed replays to byte-identical traces; one \
                 wall-clock read breaks replay silently. Use the sim clock, or add \
                 the file to `wall_clock_allowlist` if it is deliberately live."
            }
            Rule::OsThread => {
                "Deterministic crates must not touch the OS scheduler \
                 (`thread::spawn`, `thread::sleep`). Real threads introduce \
                 scheduling nondeterminism the virtual-time executor cannot replay. \
                 Spawn sim tasks instead."
            }
            Rule::NoUnwrap => {
                "Hot-path crates must not panic via `unwrap`/`expect` outside test \
                 code. Buffer exhaustion and channel closure are *reported* fault \
                 conditions in the paper's model, not crashes; a panic on the data \
                 path takes down the whole node instead of degrading one stream."
            }
            Rule::MissingDocs => {
                "Public items in the documented crates are the workspace's stable \
                 API surface (wire formats, allocator contracts, session protocol) \
                 and must carry doc comments stating their invariants."
            }
            Rule::HotPathAlloc => {
                "A file whose comments carry `check:hot-path` promises to allocate \
                 payload bytes from the slab arena only. `Vec::new(` and `.to_vec()` \
                 are per-segment heap allocations (usually with a copy) on the data \
                 path the two-copy invariant (DESIGN.md §9) protects."
            }
            Rule::StdWaker => {
                "Tasks are woken through `pandora_sim::waker()`: a `TaskWaker` is a \
                 task id plus an `Rc` on its simulation's wake queue, so a wake costs \
                 no lock and cannot cross a thread. The std waker inside the \
                 `Context` a poll receives is inert — waking it panics — so a leaf \
                 future that stores `cx.waker()` never resumes. Only \
                 `crates/sim/src/executor.rs`, which builds that inert waker, may \
                 name `task::Waker`."
            }
            Rule::WireExhaustive => {
                "An enum marked `check:wire-enum` is part of the wire protocol: \
                 every variant must appear in a non-test match *pattern* somewhere \
                 (encode evidence) and — unless the marker says `(encode)` only — be \
                 constructed in the body of a literal-pattern match arm (decode \
                 evidence, the shape of a kind-code decoder). A variant with a kind \
                 code but no decode arm is a message the peer can send and this node \
                 silently drops. The diagnostic fires at the variant definition."
            }
            Rule::ChannelCycle => {
                "Rendezvous channels (`pandora_sim::channel`) block the sender until \
                 the receiver takes the value, like Occam's links in the paper. If \
                 the tasks wired inside one function form a directed cycle of \
                 sender→receiver edges over rendezvous channels, every task in the \
                 cycle can end up waiting on its successor: a static deadlock \
                 candidate. Break the cycle with a `buffered` stage (decoupling in \
                 the paper's terms) or restructure the pipeline."
            }
            Rule::CommandPath => {
                "The well-known command circuits (`CONTROL_VCI_BASE`, \
                 `REPLY_VCI_BASE`, VCIs at 0x7F00) belong to the session control \
                 plane. Only the control-plane crates (`command_plane_crates`) may \
                 reference them; a media crate writing to a command VCI bypasses \
                 admission control and fault reporting."
            }
            Rule::PoolOrder => {
                "Pools, slabs and arenas must be acquired in one globally \
                 consistent order. Two call sites acquiring the same pair of pools \
                 in opposite orders can deadlock under exhaustion-blocking, exactly \
                 like inconsistent lock order. The analysis compares the textual \
                 acquisition sequences of every function; it over-approximates \
                 control flow, so this rule warns rather than denies."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the analyzed root.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The `PCxxx path:line` key used by the baseline file.
    pub fn baseline_key(&self) -> String {
        format!(
            "{} {}:{}",
            self.rule.code(),
            self.path.display().to_string().replace('\\', "/"),
            self.line
        )
    }

    /// Renders the diagnostic as one JSON object (hand-rolled; the
    /// analyzer is pure `std`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule.code(),
            self.rule.name(),
            self.rule.severity().label(),
            json_escape(&self.path.display().to_string().replace('\\', "/")),
            self.line,
            json_escape(&self.message)
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a full diagnostic list as a JSON document with a summary
/// header — the payload CI uploads as an artifact.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"total\": {},\n  \"deny\": {},\n  \"warn\": {},\n  \"diagnostics\": [\n",
        diagnostics.len(),
        diagnostics
            .iter()
            .filter(|d| d.rule.severity() == Severity::Deny)
            .count(),
        diagnostics
            .iter()
            .filter(|d| d.rule.severity() == Severity::Warn)
            .count(),
    ));
    for (i, d) in diagnostics.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&d.to_json());
        if i + 1 < diagnostics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

impl fmt::Display for Diagnostic {
    /// `path:line: rule-name [PCxxx]: message`, the format CI and
    /// editors consume.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}]: {}",
            self.path.display(),
            self.line,
            self.rule,
            self.rule.code(),
            self.message
        )
    }
}

/// Analyzer policy: which crates each rule applies to.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names (under `crates/`) that must stay deterministic.
    pub deterministic_crates: Vec<String>,
    /// Crate directory names whose non-test code must not unwrap/expect.
    pub hot_path_crates: Vec<String>,
    /// Crate directory names whose public items must be documented.
    pub documented_crates: Vec<String>,
    /// Path prefixes (relative, `/`-separated) exempt from the
    /// determinism rules — the deliberately wall-clock code.
    pub wall_clock_allowlist: Vec<String>,
    /// Crate directory names allowed to reference the command VCIs.
    pub command_plane_crates: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let v = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        Config {
            // "faults" is listed because its whole contract is seeded
            // replayability (same plan ⇒ byte-identical FaultTrace):
            // a stray wall-clock or unseeded RNG there would silently
            // break every conformance replay.
            // "recover" joins both lists: its lease and adaptation
            // machines drive crash reconvergence, so a wall-clock read
            // or an undocumented invariant there would corrupt every
            // recovery replay.
            // "repository" and "metrics" feed deterministic replays too:
            // recorded clips and counter snapshots are compared
            // byte-for-byte across runs.
            // "shard" is the cluster's one event loop and its ingress
            // merge: every port delivery is ordered by `(due, port, seq)`
            // there, so a stray wall-clock read or thread would reorder
            // what every star and overlay box observes.
            // "overlay" plans broadcast trees from a seed and replays
            // repair byte-identically; a wall-clock read or unseeded RNG
            // there breaks both the plan digest and the soak's
            // trace-equality acceptance gate.
            deterministic_crates: v(&[
                "sim",
                "buffers",
                "segment",
                "audio",
                "video",
                "atm",
                "faults",
                "slab",
                "session",
                "recover",
                "repository",
                "metrics",
                "shard",
                "overlay",
            ]),
            hot_path_crates: v(&["buffers", "sim", "atm", "slab"]),
            documented_crates: v(&[
                "segment",
                "buffers",
                "slab",
                "session",
                "recover",
                "repository",
                "metrics",
                "shard",
                "overlay",
            ]),
            // `repro` times its own run, while the experiment library
            // beside it stays virtual-time; the analyzer itself times its
            // own run for the report.
            wall_clock_allowlist: v(&["crates/bench/src/bin/repro.rs", "crates/check"]),
            command_plane_crates: v(&["session", "recover"]),
        }
    }
}

/// Runs every rule over all workspace `.rs` files under `root`.
///
/// Stage one applies the per-file token rules to each masked file; stage
/// two builds the [`model::WorkspaceModel`] and applies the cross-file
/// protocol rules. Returns diagnostics sorted by path, then line, then
/// code. `root` is typically the workspace root; fixture trees in tests
/// pass their own root.
///
/// # Errors
///
/// Returns an error when the tree cannot be walked or a file read.
pub fn run_checks(root: &Path, config: &Config) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for file in walk::rust_sources(root)? {
        let source = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        files.push(model::AnalyzedFile::analyze(rel, &source));
    }
    let mut diagnostics = Vec::new();
    for file in &files {
        rules::check_file(file, config, &mut diagnostics);
    }
    let workspace = model::WorkspaceModel::build(&files);
    rules::check_workspace(&files, &workspace, config, &mut diagnostics);
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule.code()).cmp(&(&b.path, b.line, b.rule.code())));
    Ok(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_kebab_case_and_codes_unique() {
        let mut codes = Vec::new();
        for rule in ALL_RULES {
            let name = rule.name();
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(rule.code().starts_with("PC"));
            assert!(!codes.contains(&rule.code()), "duplicate {}", rule.code());
            codes.push(rule.code());
            assert_eq!(Rule::from_code(rule.code()), Some(rule));
            assert_eq!(Rule::from_code(rule.name()), Some(rule));
            assert!(!rule.explain().is_empty());
        }
        assert_eq!(Rule::from_code("PC999"), None);
    }

    #[test]
    fn diagnostic_format_is_path_line_rule_code() {
        let d = Diagnostic {
            path: PathBuf::from("crates/sim/src/executor.rs"),
            line: 42,
            rule: Rule::WallClock,
            message: "Instant::now in deterministic crate".to_string(),
        };
        assert_eq!(
            d.to_string(),
            "crates/sim/src/executor.rs:42: wall-clock [PC002]: Instant::now in deterministic crate"
        );
        assert_eq!(d.baseline_key(), "PC002 crates/sim/src/executor.rs:42");
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let d = Diagnostic {
            path: PathBuf::from("crates/x/src/a.rs"),
            line: 1,
            rule: Rule::PoolOrder,
            message: "say \"hi\"".to_string(),
        };
        let json = render_json(std::slice::from_ref(&d));
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\"warn\": 1"));
        assert!(json.contains("\\\"hi\\\""));
        assert!(json.contains("\"code\":\"PC104\""));
    }
}
