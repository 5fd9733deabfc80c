//! Workspace discovery and the file walk: every `src/**/*.rs` under the
//! root package and under `crates/*`, visited in sorted order so runs
//! are byte-for-byte reproducible.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// All lintable sources, as (repo-relative `/`-separated path, absolute
/// path), sorted by relative path.
pub fn walk_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut src_dirs: Vec<PathBuf> = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries = std::fs::read_dir(&crates)
            .map_err(|e| format!("cannot read {}: {e}", crates.display()))?;
        for entry in entries.flatten() {
            let sub = entry.path().join("src");
            if sub.is_dir() {
                src_dirs.push(sub);
            }
        }
    }

    let mut files: BTreeSet<(String, PathBuf)> = BTreeSet::new();
    for dir in src_dirs {
        if dir.is_dir() {
            collect_rs(root, &dir, &mut files)?;
        }
    }
    Ok(files.into_iter().collect())
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    out: &mut BTreeSet<(String, PathBuf)>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("path {} escapes root: {e}", path.display()))?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.insert((rel, path));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = discover_root(here).expect("workspace root above the crate");
        assert!(root.join("Cargo.toml").is_file());
        let sources = walk_sources(&root).expect("walk");
        assert!(
            sources
                .iter()
                .any(|(rel, _)| rel == "crates/sheriff-lint/src/lexer.rs"),
            "walk must see this crate's own sources"
        );
        // sorted by relative path
        let rels: Vec<_> = sources.iter().map(|(r, _)| r.clone()).collect();
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted);
    }
}
