//! The markdown documentation cannot rot: every relative link and anchor
//! in `README.md` + `docs/*.md` must resolve, offline. A broken link
//! fails `cargo test`, locally and in CI's test job.

use bwap_bench::doc_check::{check_files, default_doc_set};
use std::path::PathBuf;

#[test]
fn all_doc_links_and_anchors_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let files = default_doc_set(&root);
    assert!(files.len() >= 5, "doc set unexpectedly small: {files:?}");
    let errors = check_files(&files);
    assert!(
        errors.is_empty(),
        "broken documentation links:\n{}",
        errors.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("\n")
    );
}
