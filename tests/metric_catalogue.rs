//! The metric catalogue (DESIGN.md §9.3) and the source agree both
//! ways: every `"casper_…"` metric-name literal under
//! `crates/{core,grid,qp}/src` is documented there, and every name
//! documented there exists in that source. A table cell may write
//! `{a,b}` for alternatives (`casper_wal_{flushes,bytes}_total`) and a
//! comma-free `{label}` for a label set (`casper_shard_users{shard}`);
//! anything else must be a plain name.

use std::collections::BTreeSet;
use std::path::Path;

/// Every `"casper_…"` string literal in the `.rs` files under `dir`.
fn collect_source_names(dir: &Path, names: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_source_names(&path, names);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file");
            for (at, _) in text.match_indices("\"casper_") {
                let rest = &text[at + 1..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                if rest[end..].starts_with('"') {
                    names.insert(rest[..end].to_string());
                }
            }
        }
    }
}

fn source_names() -> BTreeSet<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names = BTreeSet::new();
    for krate in ["core", "grid", "qp"] {
        collect_source_names(&root.join("crates").join(krate).join("src"), &mut names);
    }
    names
}

/// Expands a catalogue cell's shorthand into plain metric names.
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("unclosed `{`");
    let (head, body, tail) = (
        &pattern[..open],
        &pattern[open + 1..close],
        &pattern[close + 1..],
    );
    if !body.contains(',') {
        return expand(&format!("{head}{tail}")); // a label set
    }
    body.split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// The names in DESIGN.md §9.3's table, shorthand expanded.
fn catalogue_names() -> BTreeSet<String> {
    let design = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    let section = design
        .split("\n### 9.3 ")
        .nth(1)
        .expect("DESIGN.md has a §9.3")
        .split("\n### ")
        .next()
        .unwrap_or_default();
    let mut names = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with('|')) {
        for code in row.split('`').skip(1).step_by(2) {
            if code.starts_with("casper_") {
                for name in expand(code) {
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                        "§9.3 `{code}` expands to `{name}`, not a plain metric name"
                    );
                    names.insert(name);
                }
            }
        }
    }
    names
}

#[test]
fn shorthand_expands_alternatives_and_drops_labels() {
    assert_eq!(
        expand("casper_queries_{answered,degraded}_total{tier}"),
        [
            "casper_queries_answered_total",
            "casper_queries_degraded_total"
        ]
    );
    assert_eq!(
        expand("casper_wal_{flushes,bytes}_total"),
        ["casper_wal_flushes_total", "casper_wal_bytes_total"]
    );
    assert_eq!(
        expand("casper_qp_candidates{data}"),
        ["casper_qp_candidates"]
    );
}

#[test]
fn design_catalogue_lists_exactly_the_metrics_in_source() {
    let source = source_names();
    let documented = catalogue_names();
    assert!(source.len() > 40, "the source scan found only {source:?}");
    let undocumented: Vec<_> = source.difference(&documented).collect();
    let missing: Vec<_> = documented.difference(&source).collect();
    assert!(
        undocumented.is_empty() && missing.is_empty(),
        "in source but not in DESIGN §9.3: {undocumented:?}\n\
         in DESIGN §9.3 but not in source: {missing:?}"
    );
}
