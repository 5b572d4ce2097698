//! Offline markdown link-and-anchor checker for the repo's documentation.
//!
//! The docs cross-link heavily (README → `docs/*.md` → section anchors),
//! and a broken relative link or a renamed heading rots silently: the CI
//! rustdoc gate only covers `///` docs, not the markdown book. This
//! checker walks a set of markdown files, extracts every inline link, and
//! verifies — **without any network access** — that:
//!
//! * relative link targets exist on disk (files or directories);
//! * `#fragment` anchors (same-file or cross-file) resolve to a heading
//!   in the target document, using GitHub's slug rules (lowercase,
//!   punctuation stripped, spaces to hyphens);
//! * `http(s)`/`mailto` links are *skipped*, never fetched.
//!
//! Fenced code blocks and inline code spans are ignored, so JSON examples
//! containing brackets do not trip the scanner. `tests/docs_links.rs`
//! runs the default set (`README.md` + `docs/*.md`) under plain
//! `cargo test`, locally and in CI, and lists every broken link.

use std::fmt;
use std::path::{Path, PathBuf};

/// One broken link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkError {
    /// File containing the link.
    pub file: PathBuf,
    /// 1-based line of the link.
    pub line: usize,
    /// The link target as written.
    pub target: String,
    /// What is wrong with it.
    pub reason: String,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.target, self.reason)
    }
}

/// The default documentation set: `README.md` plus every `docs/*.md`,
/// relative to `root`.
pub fn default_doc_set(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("README.md")];
    if let Ok(entries) = std::fs::read_dir(root.join("docs")) {
        let mut docs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "md"))
            .collect();
        docs.sort();
        files.extend(docs);
    }
    files
}

/// Check every markdown file in `files`; returns all broken links (empty
/// = documentation is sound).
pub fn check_files(files: &[PathBuf]) -> Vec<LinkError> {
    let mut errors = Vec::new();
    for file in files {
        let Ok(text) = std::fs::read_to_string(file) else {
            errors.push(LinkError {
                file: file.clone(),
                line: 0,
                target: String::new(),
                reason: "file does not exist".into(),
            });
            continue;
        };
        for (line_no, target) in extract_links(&text) {
            if let Some(reason) = check_target(file, &target) {
                errors.push(LinkError { file: file.clone(), line: line_no, target, reason });
            }
        }
    }
    errors
}

/// Why `target`, linked from `file`, is broken — or `None` if it is fine.
fn check_target(file: &Path, target: &str) -> Option<String> {
    if target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
    {
        return None; // external: never fetched, never checked
    }
    let (path_part, anchor) = match target.split_once('#') {
        Some((p, a)) => (p, Some(a)),
        None => (target, None),
    };
    let doc = if path_part.is_empty() {
        file.to_path_buf()
    } else {
        let resolved = file.parent().unwrap_or(Path::new(".")).join(path_part);
        if !resolved.exists() {
            return Some(format!("target {} does not exist", resolved.display()));
        }
        resolved
    };
    let anchor = anchor?;
    if doc.is_dir() || doc.extension().map_or(true, |x| x != "md") {
        return Some(format!("anchor #{anchor} into a non-markdown target"));
    }
    let text = match std::fs::read_to_string(&doc) {
        Ok(t) => t,
        // An unreadable anchor target must fail loudly, not pass as
        // "resolved" — silent rot is exactly what this gate prevents.
        Err(e) => return Some(format!("cannot read anchor target {}: {e}", doc.display())),
    };
    let slugs = heading_slugs(&text);
    if slugs.iter().any(|s| s == anchor) {
        None
    } else {
        Some(format!("no heading for anchor #{anchor} in {}", doc.display()))
    }
}

/// `(line, target)` of every inline markdown link outside code.
fn extract_links(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        out.extend(line_links(&strip_inline_code(line)).into_iter().map(|t| (i + 1, t)));
    }
    out
}

/// Replace `inline code` spans with spaces so their contents never parse
/// as links.
fn strip_inline_code(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_code = false;
    for c in line.chars() {
        if c == '`' {
            in_code = !in_code;
            out.push(' ');
        } else if in_code {
            out.push(' ');
        } else {
            out.push(c);
        }
    }
    out
}

/// Targets of `[text](target)` links in one line, images included.
/// Scans for the `](` seam rather than pairing brackets, so nested
/// image links `[![alt](img)](target)` yield *both* targets — bracket
/// pairing would consume the inner image and silently skip the outer
/// link.
fn line_links(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(seam) = rest.find("](") {
        let target_start = seam + 2;
        let Some(end) = rest[target_start..].find(')') else { break };
        let raw = &rest[target_start..target_start + end];
        // Badge-style links may carry a title: strip it.
        let target = raw.split_whitespace().next().unwrap_or("");
        if !target.is_empty() {
            out.push(target.to_string());
        }
        // Continue right after the seam: the inner image's closing `)`
        // may itself be followed by the outer link's `](`.
        rest = &rest[target_start..];
    }
    out
}

/// GitHub-style anchor slugs of every markdown heading in `text`:
/// lowercase, underscores kept, other punctuation stripped, spaces to
/// hyphens, and the n-th repeat of a base slug suffixed `-n` as GitHub
/// does.
fn heading_slugs(text: &str) -> Vec<String> {
    let mut base_counts: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    let mut slugs = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !trimmed.starts_with('#') {
            continue;
        }
        let title = trimmed.trim_start_matches('#').trim();
        let mut slug = String::with_capacity(title.len());
        for c in title.chars() {
            match c {
                c if c.is_alphanumeric() => slug.extend(c.to_lowercase()),
                '_' => slug.push('_'),
                ' ' | '-' => slug.push('-'),
                _ => {}
            }
        }
        let seen = base_counts.entry(slug.clone()).or_insert(0);
        if *seen > 0 {
            slugs.push(format!("{slug}-{seen}"));
        } else {
            slugs.push(slug);
        }
        *seen += 1;
    }
    slugs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
        let p = dir.join(name);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, text).unwrap();
        p
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bwap-doc-check-{tag}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn good_links_pass() {
        let d = tmpdir("good");
        let b = write(&d, "docs/B.md", "# Title Here\n\n## Sub-Section 2\ntext\n");
        let a = write(
            &d,
            "README.md",
            "[b](docs/B.md) [anchor](docs/B.md#sub-section-2) [self](#intro)\n\n# Intro\n\
             [ext](https://example.com/nope) `[not](a-link.md)`\n\
             ```\n[fenced](ignored.md)\n```\n",
        );
        assert_eq!(check_files(&[a, b]), vec![]);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn missing_files_and_anchors_are_reported() {
        let d = tmpdir("bad");
        let b = write(&d, "docs/B.md", "# Only Heading\n");
        let a = write(&d, "README.md", "[gone](docs/C.md)\n[bad](docs/B.md#nope)\n");
        let errs = check_files(&[a.clone(), b]);
        assert_eq!(errs.len(), 2);
        assert!(errs[0].reason.contains("does not exist"), "{}", errs[0]);
        assert_eq!(errs[0].line, 1);
        assert!(errs[1].reason.contains("#nope"), "{}", errs[1]);
        assert_eq!(errs[1].line, 2);
        // Unreadable input is an error too, not a silent pass.
        let ghost = d.join("MISSING.md");
        assert_eq!(check_files(&[ghost])[0].reason, "file does not exist");
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn slugs_follow_github_rules() {
        let slugs = heading_slugs("# A B\n## C.d `e` (f)\n### Already-Hyphened\n");
        assert_eq!(slugs, vec!["a-b", "cd-e-f", "already-hyphened"]);
        // Underscores survive; duplicate headings get -1/-2 suffixes.
        let slugs = heading_slugs("# `schema_version: 2`\n## Setup\n## Setup\n## Setup\n");
        assert_eq!(slugs, vec!["schema_version-2", "setup", "setup-1", "setup-2"]);
    }

    #[test]
    fn nested_image_links_check_both_targets() {
        let d = tmpdir("nested");
        write(&d, "img.svg", "x");
        let a = write(&d, "README.md", "[![alt](img.svg)](docs/GONE.md)\n");
        let errs = check_files(&[a]);
        // The inner image resolves; the *outer* link is the broken one —
        // bracket-pairing scanners miss it entirely.
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].target.contains("GONE.md"), "{}", errs[0]);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn duplicate_heading_anchors_resolve() {
        let d = tmpdir("dups");
        let b = write(&d, "B.md", "## Setup\ntext\n## Setup\n");
        let a = write(&d, "README.md", "[first](B.md#setup) [second](B.md#setup-1)\n");
        assert_eq!(check_files(&[a, b]), vec![]);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn default_set_contains_readme_and_docs() {
        let d = tmpdir("set");
        write(&d, "README.md", "x");
        write(&d, "docs/A.md", "x");
        write(&d, "docs/B.md", "x");
        write(&d, "docs/skip.txt", "x");
        let files = default_doc_set(&d);
        let names: Vec<String> =
            files.iter().map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect();
        assert_eq!(names, vec!["README.md", "A.md", "B.md"]);
        let _ = std::fs::remove_dir_all(d);
    }
}
