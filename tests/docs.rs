//! The docs' inventories match the tree: each crate has a row in the README's layout and
//! DESIGN.md §3, each example a row in the README's examples table and a run in CI.

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
        let (row, run) = (format!("| `{stem}` |"), format!("--example {stem}"));
        assert!(README.contains(&row), "README's table lacks `{stem}`");
        assert!(CI.lines().any(|l| l.ends_with(&run)), "CI never runs {run}");
    }
}
