//! DESIGN.md's inventory names real code: §3 lists every crate under
//! `crates/`, and every backticked `crate::module` in §4's Modules column
//! resolves to a source file. A module that moves or is deleted fails here
//! instead of leaving the design document pointing at nothing.

use std::path::{Path, PathBuf};

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The text of DESIGN.md section `number` (from its `## N.` heading to the
/// next `## ` heading).
fn section(number: &str) -> String {
    let design = std::fs::read_to_string(repo().join("DESIGN.md")).expect("DESIGN.md");
    let heading = format!("## {number}.");
    let start = design.find(&heading).expect("section heading");
    let body = &design[start + heading.len()..];
    let end = body.find("\n## ").unwrap_or(body.len());
    body[..end].to_string()
}

/// The files a module path may live in: `a` is crate `a`'s `lib.rs`,
/// `a::b::c` is `crates/a/src/b/c.rs` or `crates/a/src/b/c/mod.rs`.
fn candidates(module: &str) -> Vec<PathBuf> {
    let mut parts = module.split("::");
    let src = repo()
        .join("crates")
        .join(parts.next().expect("crate"))
        .join("src");
    let rest: Vec<&str> = parts.collect();
    if rest.is_empty() {
        return vec![src.join("lib.rs")];
    }
    let dir = rest.iter().fold(src, |p, part| p.join(part));
    vec![dir.with_extension("rs"), dir.join("mod.rs")]
}

#[test]
fn every_crate_is_in_the_workspace_inventory() {
    let inventory = section("3");
    let mut crates: Vec<String> = std::fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    assert!(crates.len() >= 15, "{crates:?}");
    for name in crates {
        assert!(
            inventory.contains(&format!("  {name}/ ")),
            "DESIGN.md §3 does not list crates/{name}/"
        );
    }
}

#[test]
fn every_module_in_the_experiment_index_resolves() {
    let index = section("4");
    let rows: Vec<&str> = index
        .lines()
        .filter(|l| {
            l.strip_prefix("| E")
                .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
        })
        .collect();
    assert!(
        rows.len() >= 11,
        "expected the E1..E11 rows, found {}",
        rows.len()
    );
    for row in rows {
        let modules = row.split('|').nth(4).expect("a Modules column");
        let named: Vec<&str> = modules.split('`').skip(1).step_by(2).collect();
        assert!(!named.is_empty(), "row names no module: {row}");
        for module in named {
            let found = candidates(module).iter().any(|p| p.is_file());
            assert!(
                found,
                "DESIGN.md §4 names `{module}`, which is no file under crates/"
            );
        }
    }
}
