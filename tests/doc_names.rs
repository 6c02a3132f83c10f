//! The docs name only what exists. Every `--bin <x>`, `-p <x>`,
//! `target/release/<x>` and `tests/<x>.rs` that README.md, DESIGN.md and
//! the verify skill mention must be a binary, a package or a test suite
//! of this repo, as its manifests and directories lay them out. A doc
//! that still names a deleted binary, crate or suite fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

/// What a doc may name.
#[derive(Default)]
struct Names {
    packages: BTreeSet<String>,
    bins: BTreeSet<String>,
    /// Suite file names (`multiproc.rs`), in any package's `tests/`.
    suites: BTreeSet<String>,
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.expect("a directory entry").path()).collect())
        .unwrap_or_default();
    paths.sort();
    paths
}

/// The `*.rs` file names in `dir`.
fn rust_files(dir: &Path) -> Vec<String> {
    entries(dir)
        .iter()
        .filter_map(|p| p.file_name()?.to_str())
        .filter(|name| name.ends_with(".rs"))
        .map(String::from)
        .collect()
}

impl Names {
    /// The root package, every crate, every shim and the benchmark: each
    /// one's package name, its binaries (`[[bin]]` names, `src/main.rs`,
    /// `src/bin/*.rs`) and its integration suites (`tests/*.rs`).
    fn of_repo(root: &Path) -> Self {
        let mut dirs = vec![root.to_path_buf(), root.join("benchmark")];
        for group in ["crates", "shims"] {
            dirs.extend(entries(&root.join(group)));
        }
        let mut names = Names::default();
        for dir in dirs {
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let mut section = "";
            for line in manifest.lines().map(str::trim) {
                if line.starts_with('[') {
                    section = line;
                    continue;
                }
                let Some(value) = line.strip_prefix("name = ") else {
                    continue;
                };
                let value = value.trim_matches('"').to_string();
                match section {
                    "[package]" => {
                        if dir.join("src/main.rs").exists() {
                            names.bins.insert(value.clone());
                        }
                        names.packages.insert(value);
                    }
                    "[[bin]]" => {
                        names.bins.insert(value);
                    }
                    _ => {}
                }
            }
            for file in rust_files(&dir.join("src/bin")) {
                names.bins.insert(file.trim_end_matches(".rs").to_string());
            }
            names.suites.extend(rust_files(&dir.join("tests")));
        }
        names
    }

    /// Every mention in `text` that names nothing, as `line: mention`.
    fn missing(&self, text: &str) -> Vec<String> {
        let word = |rest: &str| -> String {
            rest.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                .collect()
        };
        let mut out = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let mut flag = |what: String| out.push(format!("{}: {what}", n + 1));
            for (at, _) in line.match_indices("--bin ") {
                let bin = word(&line[at + 6..]);
                if !bin.is_empty() && !self.bins.contains(&bin) {
                    flag(format!("--bin {bin}"));
                }
            }
            for (at, _) in line.match_indices("-p ") {
                let standalone = at == 0 || matches!(line.as_bytes()[at - 1], b' ' | b'`');
                let package = word(&line[at + 3..]);
                if standalone && !package.is_empty() && !self.packages.contains(&package) {
                    flag(format!("-p {package}"));
                }
            }
            for (at, _) in line.match_indices("target/release/") {
                let rest = &line[at + 15..];
                let bin = word(rest);
                let is_dir = rest[bin.len()..].starts_with('/');
                if !bin.is_empty() && !is_dir && !self.bins.contains(&bin) {
                    flag(format!("target/release/{bin}"));
                }
            }
            for (at, _) in line.match_indices("tests/") {
                let suite = word(&line[at + 6..]);
                let named = line[at + 6 + suite.len()..].starts_with(".rs");
                if !suite.is_empty() && named && !self.suites.contains(&format!("{suite}.rs")) {
                    flag(format!("tests/{suite}.rs"));
                }
            }
        }
        out
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn the_docs_name_only_binaries_packages_and_suites_that_exist() {
    let names = Names::of_repo(root());
    for must in ["cx-chaos", "experiments", "cx_net_server", "heap_peak"] {
        assert!(names.bins.contains(must), "{must} not found as a binary");
    }
    assert!(names.suites.contains("multiproc.rs") && names.suites.contains("prop.rs"));
    let mut stale = Vec::new();
    for doc in DOCS {
        let text =
            std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"));
        stale.extend(
            names
                .missing(&text)
                .into_iter()
                .map(|m| format!("{doc}:{m}")),
        );
    }
    assert!(
        stale.is_empty(),
        "the docs name what is not there:\n{}",
        stale.join("\n")
    );
}

#[test]
fn each_kind_of_mention_is_checked() {
    let names = Names::of_repo(root());
    let doc = "cargo run -p cx-gone --bin gone_bin\n\
               `./target/release/gone_too` and target/release/examples/quickstart\n\
               see tests/gone_suite.rs, tests/kit/mod.rs, tests/prop.rs, `-p cx-bench`\n\
               mkdir-p is no flag; --bin <name> is a placeholder";
    assert_eq!(
        names.missing(doc),
        [
            "1: --bin gone_bin",
            "1: -p cx-gone",
            "2: target/release/gone_too",
            "3: tests/gone_suite.rs",
        ]
    );
}
