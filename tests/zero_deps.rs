//! Guard: the workspace builds offline with zero external crates.
//!
//! Every dependency in every manifest must be a path/workspace reference
//! to a sibling crate. This test fails the moment someone reintroduces a
//! registry dependency (`rand`, `proptest`, `criterion`, ...), keeping
//! the `cargo build --offline` guarantee honest.

use std::fs;
use std::path::{Path, PathBuf};

fn manifests() -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let manifest = entry.expect("readable entry").path().join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    out
}

/// Collects dependency lines that are neither `path = ...` nor
/// `workspace = true` references.
fn external_deps(manifest: &Path) -> Vec<String> {
    let text = fs::read_to_string(manifest).expect("readable manifest");
    let mut in_deps = false;
    let mut bad = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            // [dependencies], [dev-dependencies], [build-dependencies],
            // [workspace.dependencies], [target.'...'.dependencies]
            in_deps = line.ends_with("dependencies]");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !(line.contains("workspace = true") || line.contains("path = \"")) {
            bad.push(format!("{}:{}: {}", manifest.display(), ln + 1, line));
        }
    }
    bad
}

#[test]
fn workspace_has_no_registry_dependencies() {
    let manifests = manifests();
    assert!(
        manifests.len() >= 10,
        "expected the root + 9 crate manifests (incl. crates/serve), found {}",
        manifests.len()
    );
    let bad: Vec<String> = manifests.iter().flat_map(|m| external_deps(m)).collect();
    assert!(
        bad.is_empty(),
        "non-path dependencies found (the workspace must stay \
         zero-dependency; use crates/rt instead):\n{}",
        bad.join("\n")
    );
}

/// Registry crates that have historically crept into ML/bench codebases.
/// None may be imported anywhere in the workspace sources — their
/// replacements live in `crates/rt` (`Rng`, `par_map`, `check`, `bench`,
/// `json`).
const FORBIDDEN_CRATES: &[&str] = &[
    "rand",
    "proptest",
    "criterion",
    "serde",
    "serde_json",
    "rayon",
    "ndarray",
    "nalgebra",
    "itertools",
    "anyhow",
    "thiserror",
    "clap",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn sources_do_not_import_registry_crates() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    assert!(
        sources.len() >= 30,
        "expected the workspace sources, found {} files",
        sources.len()
    );
    let mut bad = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("readable source");
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            for krate in FORBIDDEN_CRATES {
                if line.starts_with(&format!("use {krate}::"))
                    || line.starts_with(&format!("use {krate};"))
                    || line.starts_with(&format!("extern crate {krate}"))
                {
                    bad.push(format!("{}:{}: {line}", path.display(), ln + 1));
                }
            }
        }
    }
    assert!(
        bad.is_empty(),
        "registry-crate imports found (use crates/rt instead):\n{}",
        bad.join("\n")
    );
}

/// The test-only part of a source file at `rel` (relative to the
/// workspace root): all of it under a `tests` or `benches` directory,
/// else everything from its first `#[cfg(test)]`.
fn test_text<'a>(rel: &Path, text: &'a str) -> &'a str {
    let in_test_dir = rel
        .components()
        .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches");
    if in_test_dir {
        text
    } else {
        text.find("#[cfg(test)]").map_or("", |at| &text[at..])
    }
}

/// Every parallel algorithm has one entry point that reads
/// `loopml_rt::num_threads()`; tests pin the worker count with
/// `loopml_rt::with_threads`. Neither explicit-count twins nor tests
/// that mutate the process-global `LOOPML_THREADS` may come back — the
/// latter race every other test in the same binary. The only public
/// `*_threads` functions are the runtime's own `num_threads`,
/// `with_threads` and the `par_map_threads` primitive.
#[test]
fn no_thread_count_twins_or_env_mutating_tests() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("tests"), &mut sources);
    let par = root.join("crates/rt/src/par.rs");
    // Split so this file does not match its own needle.
    let set_env = concat!("set_var(\"LOOPML_", "THREADS\"");
    let mut bad = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("readable source");
        for (ln, raw) in text.lines().enumerate() {
            let Some(rest) = raw.trim().strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let runtime = *path == par
                && ["num_threads", "with_threads", "par_map_threads"].contains(&name.as_str());
            if name.ends_with("_threads") && !runtime {
                bad.push(format!("{}:{}: pub fn {name}", path.display(), ln + 1));
            }
        }
        let rel = path.strip_prefix(&root).expect("source under the root");
        if test_text(rel, &text).contains(set_env) {
            bad.push(format!("{}: test sets LOOPML_THREADS", path.display()));
        }
    }
    assert!(
        bad.is_empty(),
        "wrap the single entry point in loopml_rt::with_threads instead:\n{}",
        bad.join("\n")
    );
}

#[test]
fn workspace_members_all_depend_on_paths_only() {
    // Every loopml-* dependency resolves inside the repository.
    for manifest in manifests() {
        let text = fs::read_to_string(&manifest).expect("readable manifest");
        for line in text.lines().map(str::trim) {
            if let Some(rest) = line.strip_prefix("loopml") {
                if rest.contains("= {") && rest.contains("path = \"") {
                    let path = rest.split("path = \"").nth(1).unwrap();
                    let path = path.split('"').next().unwrap();
                    let dir = manifest.parent().unwrap().join(path);
                    assert!(
                        dir.join("Cargo.toml").is_file(),
                        "{}: dangling path dependency {line}",
                        manifest.display()
                    );
                }
            }
        }
    }
}
