//! The lint rules: token rules over one file's masked channels.

use std::path::Path;

use crate::mask::MaskedFile;
use crate::{Config, Diagnostic, Rule};

/// Runs every applicable rule on one file, appending to `out`. `rel` is
/// the file's path relative to the analyzed root.
pub fn check_file(rel: &Path, source: &str, config: &Config, out: &mut Vec<Diagnostic>) {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let ctx = FileContext {
        rel,
        masked: MaskedFile::parse(source),
        crate_name: rel_str
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next()),
        in_src: rel_str.contains("/src/"),
        testish: rel_str
            .split('/')
            .any(|c| matches!(c, "tests" | "benches" | "examples")),
        rel_str: &rel_str,
    };
    safety_comment_rule(&ctx, out);
    determinism_rules(&ctx, config, out);
    no_unwrap_rule(&ctx, config, out);
    missing_docs_rule(&ctx, config, out);
    std_waker_rule(&ctx, out);
    command_path_rule(&ctx, config, out);
}

struct FileContext<'a> {
    rel: &'a Path,
    /// `rel` with forward slashes.
    rel_str: &'a str,
    masked: MaskedFile,
    /// `crates/<name>/...` -> `<name>`.
    crate_name: Option<&'a str>,
    in_src: bool,
    /// Integration tests, benches and examples.
    testish: bool,
}

impl FileContext<'_> {
    /// Appends a diagnostic at 0-based `line`.
    fn push(&self, out: &mut Vec<Diagnostic>, line: usize, rule: Rule, message: impl Into<String>) {
        out.push(Diagnostic {
            path: self.rel.to_path_buf(),
            line: line + 1,
            rule,
            message: message.into(),
        });
    }
}

/// True when line `l` (or the line above) carries `check:allow(rule)`.
fn waived(file: &MaskedFile, line: usize, rule: Rule) -> bool {
    let marker = format!("check:allow({})", rule.name());
    let here = file.comment.get(line).is_some_and(|c| c.contains(&marker));
    let above = line > 0 && file.comment[line - 1].contains(&marker);
    here || above
}

/// Finds `needle` in `haystack` as a whole word (identifier boundaries).
fn contains_word(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Rule `safety-comment`: every `unsafe` token needs a written
/// justification — a `SAFETY:` comment on the same line or in the
/// comment block immediately above, or a `# Safety` doc section.
fn safety_comment_rule(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let file = &ctx.masked;
    for line in 0..file.len() {
        if !contains_word(&file.code[line], "unsafe") {
            continue;
        }
        // `unsafe_op_in_unsafe_fn`-style attribute mentions are fine.
        if file.code[line].contains("allow(") || file.code[line].contains("deny(") {
            continue;
        }
        if has_safety_justification(file, line) || waived(file, line, Rule::SafetyComment) {
            continue;
        }
        ctx.push(
            out,
            line,
            Rule::SafetyComment,
            "`unsafe` without a preceding `// SAFETY:` justification",
        );
    }
}

fn has_safety_justification(file: &MaskedFile, line: usize) -> bool {
    let is_safety =
        |l: usize| file.comment[l].contains("SAFETY:") || file.comment[l].contains("# Safety");
    if is_safety(line) {
        return true;
    }
    // Walk the contiguous comment/attribute block directly above.
    let mut l = line;
    while l > 0 {
        l -= 1;
        let code = file.code[l].trim();
        let has_comment = !file.comment[l].trim().is_empty();
        if code.is_empty() && has_comment {
            if is_safety(l) {
                return true;
            }
            continue;
        }
        // Attribute lines sit between docs and the item.
        if code.starts_with("#[") && code.ends_with(']') {
            continue;
        }
        break;
    }
    false
}

/// Rules `wall-clock`, `os-thread` and `hash-order`: nothing under
/// `crates/` may read real time, touch the OS scheduler or hold a hash
/// map, except the explicit allowlist (the binaries that time their own
/// run). Test code and `macro_rules!` bodies are skipped: tests run on the
/// host clock by design, and a macro template's expansion context (very
/// often test code) is invisible to a lexical pass.
fn determinism_rules(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    if !ctx.rel_str.starts_with("crates/") || ctx.testish {
        return;
    }
    if config
        .wall_clock_allowlist
        .iter()
        .any(|prefix| ctx.rel_str.starts_with(prefix.as_str()))
    {
        return;
    }
    let deterministic = ctx
        .crate_name
        .is_some_and(|c| config.deterministic_crates.iter().any(|d| d == c));
    let zone = if deterministic {
        "deterministic crate"
    } else {
        "non-allowlisted crate"
    };
    let file = &ctx.masked;
    for line in 0..file.len() {
        if file.in_test[line] || file.in_macro[line] {
            continue;
        }
        let code = &file.code[line];
        for pattern in ["Instant::now", "SystemTime"] {
            if contains_word(code, pattern) && !waived(file, line, Rule::WallClock) {
                ctx.push(
                    out,
                    line,
                    Rule::WallClock,
                    format!("wall-clock `{pattern}` in {zone}; use the sim clock"),
                );
            }
        }
        for pattern in ["thread::spawn", "thread::sleep"] {
            if code.contains(pattern) && !waived(file, line, Rule::OsThread) {
                ctx.push(
                    out,
                    line,
                    Rule::OsThread,
                    format!("OS scheduling `{pattern}` in {zone}; spawn sim tasks instead"),
                );
            }
        }
        for pattern in ["HashMap", "HashSet"] {
            if contains_word(code, pattern) && !waived(file, line, Rule::HashOrder) {
                ctx.push(
                    out,
                    line,
                    Rule::HashOrder,
                    format!("`{pattern}` iterates in hash order in {zone}; use the `BTree` twin"),
                );
            }
        }
    }
}

/// Rule `no-unwrap`: hot-path crates must not panic via `unwrap`/`expect`
/// outside test code; exhaustion and closure are reported faults.
fn no_unwrap_rule(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    let hot = ctx
        .crate_name
        .is_some_and(|c| config.hot_path_crates.iter().any(|h| h == c));
    if !hot || !ctx.in_src || ctx.testish {
        return;
    }
    let file = &ctx.masked;
    for line in 0..file.len() {
        if file.in_test[line] || file.in_macro[line] {
            continue;
        }
        let code = &file.code[line];
        let hit = code.contains(".unwrap()") || code.contains(".expect(");
        if hit && !waived(file, line, Rule::NoUnwrap) {
            ctx.push(
                out,
                line,
                Rule::NoUnwrap,
                format!(
                    "`unwrap`/`expect` outside test code in hot-path crate `{}`",
                    ctx.crate_name.unwrap_or("?")
                ),
            );
        }
    }
}

/// Rule `missing-docs`: public items in the documented crates carry doc
/// comments — these are the workspace's stable API surface.
fn missing_docs_rule(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    let documented = ctx
        .crate_name
        .is_some_and(|c| config.documented_crates.iter().any(|d| d == c));
    if !documented || !ctx.in_src || ctx.testish {
        return;
    }
    let file = &ctx.masked;
    for line in 0..file.len() {
        if file.in_test[line] || file.in_macro[line] {
            continue;
        }
        let code = file.code[line].trim_start();
        let Some(rest) = code.strip_prefix("pub ") else {
            continue;
        };
        let keyword = rest.split_whitespace().next().unwrap_or("");
        let is_item = matches!(
            keyword,
            "fn" | "async"
                | "unsafe"
                | "const"
                | "static"
                | "struct"
                | "enum"
                | "union"
                | "trait"
                | "type"
                | "mod"
                | "macro"
        );
        // `pub const NAME` and `pub const fn` both require docs, but
        // `pub use` re-exports do not.
        if !is_item {
            continue;
        }
        // `pub mod name;` file modules document themselves with inner
        // `//!` docs, which a line scan of this file cannot see.
        if keyword == "mod" && code.trim_end().ends_with(';') {
            continue;
        }
        if is_documented(file, line) || waived(file, line, Rule::MissingDocs) {
            continue;
        }
        ctx.push(
            out,
            line,
            Rule::MissingDocs,
            format!("public `{keyword}` item without a doc comment"),
        );
    }
}

/// Rule `std-waker`: under `crates/`, only the executor may touch the
/// std waker. Everything else registers `pandora_sim::waker()`; the
/// waker inside a task's `Context` is inert and panics when woken.
fn std_waker_rule(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let rel = ctx.rel_str;
    if !rel.starts_with("crates/") || rel == "crates/sim/src/executor.rs" || ctx.testish {
        return;
    }
    let file = &ctx.masked;
    for line in 0..file.len() {
        if file.in_test[line] || file.in_macro[line] {
            continue;
        }
        let code = &file.code[line];
        let hit = code.contains("cx.waker()") || contains_word(code, "Waker");
        if hit && !waived(file, line, Rule::StdWaker) {
            ctx.push(
                out,
                line,
                Rule::StdWaker,
                "tasks are woken through `pandora_sim::waker()`; the `Context` waker is inert",
            );
        }
    }
}

/// Rule `command-path`: only the control-plane crates may name the
/// well-known command circuits (`CONTROL_VCI_BASE` = 0x7F00 and its reply
/// window). A media or transport crate referencing them bypasses
/// admission control: its cells would land on the command path without a
/// session. Test-support trees (`tests/`, `benches/`, `examples/`) and
/// test code are exempt.
fn command_path_rule(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    let allowed = ctx
        .crate_name
        .is_some_and(|c| config.command_plane_crates.iter().any(|p| p == c));
    if allowed || ctx.testish {
        return;
    }
    let file = &ctx.masked;
    for line in 0..file.len() {
        if file.in_test[line] {
            continue;
        }
        let code = &file.code[line];
        let hit = ["CONTROL_VCI_BASE", "REPLY_VCI_BASE"]
            .into_iter()
            .find(|t| contains_word(code, t))
            .or_else(|| code.contains("Vci(0x7F").then_some("Vci(0x7F..)"));
        let Some(what) = hit else { continue };
        if waived(file, line, Rule::CommandPath) {
            continue;
        }
        ctx.push(
            out,
            line,
            Rule::CommandPath,
            format!(
                "`{what}` referenced outside the control plane (crate `{}`); only {} may \
                 address the command VCIs",
                ctx.crate_name.unwrap_or("?"),
                config.command_plane_crates.join("/"),
            ),
        );
    }
}

fn is_documented(file: &MaskedFile, item_line: usize) -> bool {
    let mut l = item_line;
    while l > 0 {
        l -= 1;
        let raw = file.raw[l].trim_start();
        if raw.starts_with("///") || raw.starts_with("//!") || raw.starts_with("#[doc") {
            return true;
        }
        // Attributes (possibly stacked) and plain comments — e.g. a
        // waiver — sit between the docs
        // and the item without breaking the attachment.
        if raw.starts_with("#[") || raw.starts_with("//") {
            continue;
        }
        // A multi-line attribute like `#[derive(\n  Debug,\n)]`: walk up
        // to its opening line and resume the scan above it.
        if raw.ends_with(']') && !raw.contains('[') {
            let mut a = l;
            while a > 0 && !file.raw[a].trim_start().starts_with("#[") {
                a -= 1;
            }
            if file.raw[a].trim_start().starts_with("#[") {
                l = a;
                continue;
            }
            return false;
        }
        // A doc block comment `/** ... */` ends just above the item.
        if raw.ends_with("*/") {
            return true;
        }
        return false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(rel: &str, source: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_file(Path::new(rel), source, &Config::default(), &mut out);
        out
    }

    #[test]
    fn unsafe_without_safety_fires() {
        let out = diags(
            "crates/video/src/x.rs",
            "fn f() {\n    let p = unsafe { q() };\n}\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::SafetyComment);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let out = diags(
            "crates/video/src/x.rs",
            "fn f() {\n    // SAFETY: q has no invariants.\n    let p = unsafe { q() };\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_fn_with_doc_safety_section_passes() {
        let src = "/// Does things.\n///\n/// # Safety\n///\n/// Caller upholds X.\npub unsafe fn f() {}\n";
        let out = diags("crates/video/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_in_string_is_ignored() {
        let out = diags("crates/video/src/x.rs", "fn f() { g(\"unsafe\"); }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wall_clock_in_deterministic_crate_fires() {
        let out = diags(
            "crates/sim/src/executor.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::WallClock);
    }

    #[test]
    fn wall_clock_allowlist_is_repro_alone() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let out = diags("crates/bench/src/bin/repro.rs", src);
        assert!(out.is_empty(), "{out:?}");
        // The allowlist names repro.rs alone, not its crate — the
        // experiment library beside it is held to the rule — and the
        // box crate has no live-runtime exemption.
        for path in ["crates/bench/src/audio_exps.rs", "crates/core/src/rt.rs"] {
            let out = diags(path, src);
            assert_eq!(out.len(), 1, "{path}: {out:?}");
            assert_eq!(out[0].rule, Rule::WallClock);
        }
    }

    #[test]
    fn wall_clock_in_cfg_test_passes() {
        // Tests run on the host; the determinism contract is about the
        // shipped simulation, so in_test lines are exempt (mask FP fix).
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        let out = diags("crates/sim/src/executor.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wall_clock_in_macro_body_passes() {
        // A macro template's expansion context is unknowable lexically;
        // the in_macro channel keeps templates out of the determinism
        // rules (mask FP fix).
        let src = "macro_rules! timed {\n    ($e:expr) => {{ let _t = Instant::now(); $e }};\n}\n";
        let out = diags("crates/sim/src/executor.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn os_thread_fires() {
        let out = diags(
            "crates/buffers/src/pool.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::OsThread);
    }

    #[test]
    fn unwrap_outside_tests_fires_in_hot_path() {
        let out = diags("crates/sim/src/x.rs", "fn f() { g().unwrap(); }\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::NoUnwrap);
    }

    #[test]
    fn unwrap_inside_cfg_test_passes() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { g().unwrap(); }\n}\n";
        let out = diags("crates/sim/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unwrap_in_macro_body_passes() {
        let src = "macro_rules! must {\n    ($e:expr) => { $e.unwrap() };\n}\n";
        let out = diags("crates/sim/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unwrap_in_non_hot_crate_passes() {
        let out = diags("crates/metrics/src/x.rs", "fn f() { g().unwrap(); }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn waiver_suppresses() {
        let src = "fn f() {\n    // check:allow(no-unwrap): startup path, cannot fail.\n    g().unwrap();\n}\n";
        let out = diags("crates/sim/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_docs_fires_in_documented_crate() {
        let out = diags("crates/segment/src/x.rs", "pub fn undocumented() {}\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::MissingDocs);
    }

    #[test]
    fn missing_docs_applies_to_metrics_and_repository() {
        for krate in ["metrics", "repository"] {
            let rel = format!("crates/{krate}/src/x.rs");
            let out = diags(&rel, "pub fn undocumented() {}\n");
            assert_eq!(out.len(), 1, "{krate} must be documented");
            assert_eq!(out[0].rule, Rule::MissingDocs);
        }
    }

    #[test]
    fn documented_item_passes() {
        let out = diags(
            "crates/segment/src/x.rs",
            "/// Well documented.\npub fn fine() {}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn docs_above_attributes_count() {
        let out = diags(
            "crates/segment/src/x.rs",
            "/// Documented.\n#[derive(Debug)]\npub struct S;\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn docs_above_marker_comment_count() {
        // A rule marker between the doc comment and the item must not
        // break doc attachment (mask FP fix).
        let out = diags(
            "crates/segment/src/x.rs",
            "/// Documented.\n// check:allow(no-unwrap): a waiver.\n#[derive(Debug)]\npub enum E { A }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn docs_above_multiline_attribute_count() {
        let out = diags(
            "crates/segment/src/x.rs",
            "/// Documented.\n#[derive(\n    Debug, Clone,\n)]\npub struct S;\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn file_module_declaration_needs_no_docs() {
        let out = diags("crates/segment/src/lib.rs", "pub mod wire;\n");
        assert!(out.is_empty(), "{out:?}");
        let inline = diags("crates/segment/src/lib.rs", "pub mod wire {\n}\n");
        assert_eq!(inline.len(), 1, "inline modules still need docs");
    }

    #[test]
    fn pub_use_needs_no_docs() {
        let out = diags("crates/segment/src/lib.rs", "pub use crate::wire;\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn pub_crate_needs_no_docs() {
        let out = diags("crates/segment/src/x.rs", "pub(crate) fn internal() {}\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_docs_ignored_outside_documented_crates() {
        let out = diags("crates/video/src/x.rs", "pub fn undocumented() {}\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hash_order_fires_where_the_wall_clock_rule_does() {
        let src = "use std::collections::HashMap;\nfn f(s: &std::collections::HashSet<u8>) {}\n";
        for path in ["crates/core/src/x.rs", "crates/sim/src/x.rs"] {
            let out = diags(path, src);
            assert_eq!(out.len(), 2, "{path}: {out:?}");
            assert!(out.iter().all(|d| d.rule == Rule::HashOrder));
            assert_eq!((out[0].line, out[1].line), (1, 2));
        }
        for exempt in [
            "crates/bench/src/bin/repro.rs",
            "crates/core/tests/x.rs",
            "src/x.rs",
        ] {
            assert!(diags(exempt, src).is_empty(), "{exempt}");
        }
    }

    #[test]
    fn hash_order_skips_test_code_and_btree_and_honours_waivers() {
        let src = "use std::collections::BTreeMap;\n// check:allow(hash-order): lookups only.\nstruct S(std::collections::HashMap<u8, u8>);\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let out = diags("crates/core/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn std_waker_fires_outside_the_executor_only() {
        let src = "use std::task::{Context, Waker};\nfn f(cx: &mut Context<'_>) { keep(cx.waker().clone()); }\nfn g(w: pandora_sim::TaskWaker) { w.wake(); }\n";
        let out = diags("crates/metrics/src/x.rs", src);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == Rule::StdWaker));
        assert_eq!((out[0].line, out[1].line), (1, 2));
        for exempt in ["crates/sim/src/executor.rs", "tests/x.rs"] {
            let out = diags(exempt, src);
            assert!(out.is_empty(), "{exempt}: {out:?}");
        }
    }

    #[test]
    fn command_vci_outside_the_control_plane_fires() {
        let out = diags(
            "crates/video/src/push.rs",
            "fn f() { let vci = CONTROL_VCI_BASE + 3; }\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::CommandPath);
        assert!(out[0].message.contains("CONTROL_VCI_BASE"));
        let out = diags(
            "crates/atm/src/switch.rs",
            "fn f() { let vci = Vci(0x7F00 + 2); }\n",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Vci(0x7F..)"));
    }

    #[test]
    fn command_vci_allowed_in_the_control_plane_and_test_code() {
        let src = "fn f() { let vci = CONTROL_VCI_BASE; }\n";
        for path in [
            "crates/session/src/topology.rs",
            "crates/recover/src/lease.rs",
            "crates/video/tests/e2e.rs",
        ] {
            assert!(diags(path, src).is_empty(), "{path}");
        }
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { let v = CONTROL_VCI_BASE; }\n}\n";
        assert!(diags("crates/video/src/push.rs", in_test).is_empty());
        let waived =
            "fn f() {\n    // check:allow(command-path): read-only probe.\n    let vci = CONTROL_VCI_BASE;\n}\n";
        assert!(diags("crates/video/src/push.rs", waived).is_empty());
    }
}
