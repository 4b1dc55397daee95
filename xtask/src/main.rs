//! Repo automation tasks (`cargo run -p xtask -- <task>`).
//!
//! `lint` — source-level checks the compiler cannot express:
//!
//! 1. **No `unwrap()`/`expect()` outside tests.** The cluster runtime's
//!    whole design is that injected faults surface as typed errors, not
//!    panics; a stray `unwrap()` on a node thread undoes that, and every
//!    module of the engine (`crates/nebula/src`) and of the MEOS plugin
//!    (`crates/core/src`) runs on some node thread or decodes bytes
//!    received from the wire. Non-test code in every `.rs` file under
//!    those two trees must stay panic-free except for the entries in
//!    `xtask/lint-allow.txt` (invariants a local match already proves).
//! 2. **Stable telemetry operator ids.** Per-operator metrics merge
//!    across partitions, pipelines and runs by `op{index}:{name}`;
//!    every `impl Operator` must return a string-literal `name()` so
//!    ids never drift between runs. Operators whose name is genuinely
//!    dynamic (plugin wrappers) are allowlisted here.
//!
//! `loc` — non-test line counts (everything before a file's
//! `#[cfg(test)]`) of every `.rs` file under the same trees, then of
//! every directory and tree: the unit the simplicity targets in
//! `ROADMAP.md` are stated in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Source trees whose non-test code must stay free of panicking
/// shortcuts, and whose operators must carry stable names.
const CHECKED_TREES: &[&str] = &["crates/nebula/src", "crates/core/src"];

/// Operator types whose `name()` is legitimately non-literal:
/// `FlatMapOp` carries its factory's name, `InstrumentedOp` forwards
/// the wrapped operator's.
const DYNAMIC_NAME_OPERATORS: &[&str] = &["FlatMapOp", "InstrumentedOp"];

fn main() -> ExitCode {
    let task = std::env::args().nth(1);
    match task.as_deref() {
        Some("lint") => lint(),
        Some("loc") => loc(),
        Some(other) => {
            eprintln!("unknown task '{other}'; available: lint, loc");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint|loc");
            ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // xtask always runs via cargo, which sets this to xtask/.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .expect("xtask sits in the repo")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut failures = String::new();
    check_no_panics(&root, &mut failures);
    check_operator_names(&root, &mut failures);
    if failures.is_empty() {
        println!("xtask lint: ok");
        ExitCode::SUCCESS
    } else {
        eprint!("{failures}");
        ExitCode::FAILURE
    }
}

/// Prints the non-test lines of every file under [`CHECKED_TREES`],
/// then the total of every directory from each tree down.
fn loc() -> ExitCode {
    let root = repo_root();
    let mut dirs: BTreeMap<PathBuf, usize> = BTreeMap::new();
    for path in checked_files(&root) {
        let rel = path.strip_prefix(&root).unwrap_or(&path);
        let lines = match std::fs::read_to_string(&path) {
            Ok(content) => non_test_prefix(&content).lines().count(),
            Err(e) => {
                eprintln!("loc: cannot read {}: {e}", rel.display());
                return ExitCode::FAILURE;
            }
        };
        println!("{lines:>7}  {}", rel.display());
        for dir in rel.ancestors().skip(1) {
            if CHECKED_TREES.iter().any(|tree| dir.starts_with(tree)) {
                *dirs.entry(dir.to_path_buf()).or_default() += lines;
            }
        }
    }
    for (dir, lines) in dirs {
        println!("{lines:>7}  {}/", dir.display());
    }
    ExitCode::SUCCESS
}

/// The non-test prefix of a source file: everything before the first
/// `#[cfg(test)]` (the repo convention keeps tests in a trailing
/// module).
fn non_test_prefix(content: &str) -> &str {
    match content.find("#[cfg(test)]") {
        Some(idx) => &content[..idx],
        None => content,
    }
}

/// Allowlist entries: `path-suffix | line-substring`, one per line,
/// `#` comments. A hit is tolerated when an entry's path suffix
/// matches the file and its substring occurs in the offending line —
/// content-anchored, so line-number drift never stales the list.
fn load_allowlist(root: &Path) -> Vec<(String, String)> {
    let path = root.join("xtask/lint-allow.txt");
    let content = std::fs::read_to_string(&path).unwrap_or_default();
    content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (file, pat) = l.split_once('|')?;
            Some((file.trim().to_string(), pat.trim().to_string()))
        })
        .collect()
}

/// Every `.rs` file under [`CHECKED_TREES`], sorted.
fn checked_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for tree in CHECKED_TREES {
        rust_files(&root.join(tree), &mut files);
    }
    files.sort();
    files
}

fn check_no_panics(root: &Path, failures: &mut String) {
    let allow = load_allowlist(root);
    let files = checked_files(root);
    if files.is_empty() {
        let _ = writeln!(failures, "lint: found no source files; check paths");
    }
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        let content = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                let _ = writeln!(failures, "lint: cannot read {rel}: {e}");
                continue;
            }
        };
        for (i, line) in non_test_prefix(&content).lines().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            if !code.contains(".unwrap()") && !code.contains(".expect(") {
                continue;
            }
            let allowed = allow
                .iter()
                .any(|(file, pat)| rel.ends_with(file.as_str()) && line.contains(pat.as_str()));
            if !allowed {
                let _ = writeln!(
                    failures,
                    "lint: {rel}:{}: unwrap()/expect() outside tests \
                     (return a typed error, or add to xtask/lint-allow.txt \
                     with a justification): {}",
                    i + 1,
                    line.trim()
                );
            }
        }
    }
}

/// Every `.rs` file under the given directory, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn check_operator_names(root: &Path, failures: &mut String) {
    let mut seen_impls = 0usize;
    for path in checked_files(root) {
        let Ok(content) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        let mut rest = non_test_prefix(&content);
        while let Some(idx) = rest.find("impl Operator for ") {
            let after = &rest[idx + "impl Operator for ".len()..];
            let ty: String = after
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let block = impl_block(after);
            seen_impls += 1;
            if !DYNAMIC_NAME_OPERATORS.contains(&ty.as_str()) && !name_returns_literal(block) {
                let _ = writeln!(
                    failures,
                    "lint: {rel}: `impl Operator for {ty}` must return a \
                     string-literal name() — telemetry op ids must be stable \
                     across runs (or allowlist the type in xtask/src/main.rs)"
                );
            }
            rest = after;
        }
    }
    if seen_impls == 0 {
        let _ = writeln!(
            failures,
            "lint: found no `impl Operator for` blocks; check paths"
        );
    }
}

/// The text of the brace-delimited block starting at the first `{`.
fn impl_block(after_header: &str) -> &str {
    let Some(open) = after_header.find('{') else {
        return "";
    };
    let mut depth = 0usize;
    for (i, c) in after_header[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &after_header[open..open + i + 1];
                }
            }
            _ => {}
        }
    }
    &after_header[open..]
}

/// Does the block's `fn name(&self)` body start with a string literal?
fn name_returns_literal(block: &str) -> bool {
    let Some(idx) = block.find("fn name(&self)") else {
        return false;
    };
    let body = &block[idx..];
    let Some(open) = body.find('{') else {
        return false;
    };
    body[open + 1..].trim_start().starts_with('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_names_pass_dynamic_names_fail() {
        let good = r#"{
            fn name(&self) -> &str {
                "filter"
            }
        }"#;
        let bad = r#"{
            fn name(&self) -> &str {
                &self.name
            }
        }"#;
        assert!(name_returns_literal(good));
        assert!(!name_returns_literal(bad));
    }

    #[test]
    fn impl_block_extraction_tracks_braces() {
        let src = "X { fn a() { if x { y } } } impl Other";
        assert_eq!(impl_block(src), "{ fn a() { if x { y } } }");
    }

    #[test]
    fn non_test_prefix_stops_at_test_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn b() { x.unwrap() } }";
        assert!(!non_test_prefix(src).contains("unwrap"));
    }

    #[test]
    fn lint_passes_on_this_repo() {
        let mut failures = String::new();
        let root = repo_root();
        check_no_panics(&root, &mut failures);
        check_operator_names(&root, &mut failures);
        assert!(failures.is_empty(), "{failures}");
    }
}
