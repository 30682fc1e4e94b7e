//! The docs' inventories match the tree: each crate has a row in the README's layout and
//! DESIGN.md §3, each example a row in the README's examples table, a golden stdout under
//! `tests/golden/examples` and a run in CI that diffs its stdout against that golden, as
//! `repro` has `tests/golden/repro.stdout`. And
//! the public API carries no dead weight: every public function and constant is named
//! outside its file. Every committed mutant still applies to the tree.

const README: &str = include_str!("../README.md");
const DESIGN: &str = include_str!("../DESIGN.md");
const CI: &str = include_str!("../.github/workflows/ci.yml");

/// The text of `doc` from `from` up to the next `to` after it.
fn between<'a>(doc: &'a str, from: &str, to: &str) -> &'a str {
    let rest = &doc[doc.find(from).expect(from)..];
    &rest[..from.len() + rest[from.len()..].find(to).expect(to)]
}

/// The entries of `dir`, relative to the repository root.
fn ls(dir: &str) -> Vec<String> {
    let entries = std::fs::read_dir(format!("{}/{dir}", env!("CARGO_MANIFEST_DIR")));
    let name = |e: std::io::Result<std::fs::DirEntry>| e.ok()?.file_name().into_string().ok();
    entries.expect("listable").filter_map(name).collect()
}

#[test]
fn every_crate_has_a_row_in_the_readme_layout_and_design_section_3() {
    let layout = between(README, "```\ncrates/", "```");
    let section_3 = between(DESIGN, "## 3.", "\n## 4.");
    for name in ls("crates") {
        let row = format!("{name}/ ");
        let has = |doc: &str| doc.lines().any(|l| l.trim_start().starts_with(&row));
        assert!(has(layout), "README's layout lacks crates/{name}");
        assert!(has(section_3), "DESIGN.md §3 lacks crates/{name}");
    }
}

#[test]
fn every_example_has_a_row_in_the_readme_and_a_run_in_ci() {
    for stem in ls("examples").iter().filter_map(|f| f.strip_suffix(".rs")) {
        let row = format!("| `{stem}` |");
        let run = format!("--example {stem} | diff -u tests/golden/examples/{stem}.stdout -");
        assert!(README.contains(&row), "README's table lacks `{stem}`");
        assert!(
            CI.lines().any(|l| l.ends_with(&run)),
            "CI never diffs {stem}"
        );
    }
}

#[test]
fn every_example_has_a_golden_stdout() {
    let goldens = ls("tests/golden/examples");
    for stem in ls("examples").iter().filter_map(|f| f.strip_suffix(".rs")) {
        let golden = format!("{stem}.stdout");
        assert!(goldens.contains(&golden), "no golden stdout for {stem}");
    }
}

/// `repro` prints every paper table the same way run to run, bar its last line, the host
/// time it took: that stdout is committed as a golden, and CI diffs a release run against it.
#[test]
fn repro_has_a_golden_stdout_and_a_run_in_ci() {
    let golden = format!("{}/tests/golden/repro.stdout", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(golden).expect("no golden stdout for repro");
    assert!(
        !golden.contains("of host time"),
        "the golden holds the host time"
    );
    let run = "target/release/repro | grep -v 'of host time' | diff -u tests/golden/repro.stdout -";
    assert!(CI.lines().any(|l| l.trim() == run), "CI never diffs repro");
}

/// Every `.rs` file under `dir`, relative to the repository root, with its text.
fn rust_files(dir: &str, out: &mut Vec<(String, String)>) {
    let entries = std::fs::read_dir(format!("{}/{dir}", env!("CARGO_MANIFEST_DIR")));
    for entry in entries.expect("listable").flatten() {
        let path = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.file_type().expect("file type").is_dir() {
            rust_files(&path, out);
        } else if path.ends_with(".rs") {
            let text = std::fs::read_to_string(entry.path()).expect("readable");
            out.push((path, text));
        }
    }
}

/// The identifiers and keywords of `text` outside its `//` comments, doc comments
/// included: a name a comment mentions is not a call.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .flat_map(|line| line.split("//").next())
        .flat_map(|code| code.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|w| !w.is_empty())
}

/// A `pub fn`, `pub async fn`, `pub const fn` or `pub const` under `crates/*/src` that no
/// other file names is API nothing uses: delete it, narrow it, or use it. A name counts as
/// used when it appears as a word in another `.rs` file of the crates, the root suites, the
/// examples, the root binary's sources or the benchmark harness.
#[test]
fn every_public_fn_has_a_caller_outside_its_file() {
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "benchmark/src"] {
        rust_files(dir, &mut files);
    }
    let mut files_naming = std::collections::BTreeMap::<&str, usize>::new();
    for (_, text) in &files {
        let named: std::collections::BTreeSet<&str> = words(text).collect();
        for word in named {
            *files_naming.entry(word).or_default() += 1;
        }
    }
    let mut uncalled = Vec::new();
    for (path, text) in &files {
        let mut parts = path.split('/');
        if parts.next() != Some("crates") || parts.nth(1) != Some("src") {
            continue;
        }
        for line in text.lines() {
            let line = line.trim_start();
            let Some(rest) = ["pub fn ", "pub async fn ", "pub const fn ", "pub const "]
                .iter()
                .find_map(|prefix| line.strip_prefix(prefix))
            else {
                continue;
            };
            let name = words(rest).next().expect("a name");
            // The defining file names it once; a caller elsewhere makes it two.
            if files_naming[name] < 2 {
                uncalled.push(format!("{path}: {name}"));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "public fns and consts nothing else names: {uncalled:#?}"
    );
}

/// CI's debug step runs every library crate's unit tests with overflow checks on: each
/// package under `crates/` is a `-p` of its `--lib` run, bar the experiment harness
/// (`pandora-bench`), whose whole-scenario tests run in the optimised step.
#[test]
fn every_library_crate_runs_in_the_ci_debug_step() {
    let debug_step = CI
        .lines()
        .find(|l| l.trim_end().ends_with("--lib"))
        .expect("--lib");
    let ps: Vec<&str> = debug_step
        .split(" -p ")
        .skip(1)
        .filter_map(|p| p.split(' ').next())
        .collect();
    for dir in ls("crates") {
        let manifest = std::fs::read_to_string(format!(
            "{}/crates/{dir}/Cargo.toml",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("readable");
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("a package name");
        if name != "pandora-bench" {
            assert!(ps.contains(&name), "CI's debug step lacks -p {name}");
        }
    }
}

/// Every mutant in `mutants/mutants.txt` still applies to the tree: its file exists and
/// its text occurs there exactly once, so `mutants/run.sh` never finds an entry stale. A
/// change to a mutated line moves the entry with it.
#[test]
fn every_listed_mutant_applies_to_the_tree() {
    let list = include_str!("../mutants/mutants.txt");
    let entries: Vec<&str> = list.split("\n=== ").skip(1).collect();
    assert!(!entries.is_empty(), "no mutants listed");
    for entry in entries {
        let name = entry.lines().next().expect("a name");
        let field = |key: &str| entry.lines().find_map(|l| l.strip_prefix(key));
        let file = field("file: ").unwrap_or_else(|| panic!("{name}: no file"));
        assert!(field("killer: ").is_some(), "{name}: no killer");
        assert!(field("breaks: ").is_some(), "{name}: no contract");
        let find = entry
            .split_once("\n--- find\n")
            .and_then(|(_, rest)| rest.split_once("\n--- replace\n"))
            .map(|(find, _)| find)
            .unwrap_or_else(|| panic!("{name}: no find and replace"));
        let text = std::fs::read_to_string(format!("{}/{file}", env!("CARGO_MANIFEST_DIR")))
            .unwrap_or_else(|e| panic!("{name}: {file}: {e}"));
        assert_eq!(text.matches(find).count(), 1, "{name}: its text in {file}");
    }
}
