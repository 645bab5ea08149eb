//! Public-API snapshot gate (ISSUE 7, CI/tooling).
//!
//! The exported surface of `core`, `fabric`, `xccl`, `sim` and `device`
//! is the contract every downstream crate (and the paper-reproduction
//! scripts) builds against. This test inventories every `pub` item
//! signature in those crates and diffs it against the committed snapshot in
//! `tests/api_surface.snapshot` — so an API redesign that adds, removes
//! or reshapes an exported item fails CI until the snapshot is
//! deliberately regenerated:
//!
//! ```text
//! UPDATE_API_SURFACE=1 cargo test --test api_surface
//! git add tests/api_surface.snapshot
//! ```
//!
//! The inventory is a source scan, not a compiler query: the first line
//! of each `pub fn | struct | enum | trait | type | const | static |
//! mod | use` item (crate-visible `pub(...)` forms excluded), trimmed
//! at the body brace. That is intentionally coarse — it cannot see
//! every semantic change — but it catches the redesign-shaped ones:
//! renames, signature changes, new exports, dropped exports.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose exported surface is frozen by the snapshot.
const CRATES: &[&str] = &[
    "crates/core/src",
    "crates/fabric/src",
    "crates/xccl/src",
    "crates/sim/src",
    "crates/device/src",
];

const SNAPSHOT: &str = "tests/api_surface.snapshot";

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .expect("crate source dir must exist")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Does this trimmed line start a `pub` item that belongs in the
/// snapshot? Crate-internal `pub(crate)` / `pub(super)` visibility is
/// not exported surface.
fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.strip_prefix("pub ") else { return false };
    [
        "fn ",
        "async fn ",
        "unsafe fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
        "mod ",
        "use ",
    ]
    .iter()
    .any(|kw| rest.starts_with(kw))
}

/// One snapshot line per item: `path: signature`, with the signature cut
/// at the body brace (multi-line argument lists keep only their first
/// line — enough to detect any edit to it).
fn inventory(root: &Path) -> String {
    let mut out = String::new();
    for crate_dir in CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(crate_dir), &mut files);
        for file in files {
            let rel = file.strip_prefix(root).unwrap().display().to_string();
            let src = fs::read_to_string(&file).unwrap();
            for line in src.lines() {
                let t = line.trim_start();
                if is_pub_item(t) {
                    let sig = t.split(" {").next().unwrap_or(t).trim_end();
                    let sig = sig.strip_suffix('{').unwrap_or(sig).trim_end();
                    writeln!(out, "{rel}: {sig}").unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn exported_surface_matches_the_committed_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let current = inventory(root);
    let snap_path = root.join(SNAPSHOT);

    if std::env::var_os("UPDATE_API_SURFACE").is_some() {
        fs::write(&snap_path, &current).unwrap();
        println!("api_surface: snapshot regenerated ({} items)", current.lines().count());
        return;
    }

    let committed = fs::read_to_string(&snap_path).unwrap_or_default();
    if committed == current {
        return;
    }

    // Line-set diff: order changes within a file are real changes too,
    // but the added/removed view is what a human needs to review.
    let old: std::collections::BTreeSet<&str> = committed.lines().collect();
    let new: std::collections::BTreeSet<&str> = current.lines().collect();
    let mut diff = String::new();
    for gone in old.difference(&new) {
        writeln!(diff, "  - {gone}").unwrap();
    }
    for added in new.difference(&old) {
        writeln!(diff, "  + {added}").unwrap();
    }
    panic!(
        "the exported surface of core/fabric/xccl/sim/device changed without updating the \
         snapshot:\n\
         {diff}\n\
         If the change is deliberate, regenerate it:\n\
         \n    UPDATE_API_SURFACE=1 cargo test --test api_surface\n\
         \nand commit {SNAPSHOT} alongside the API change."
    );
}
