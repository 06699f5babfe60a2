//! Markdown cross-reference checker: every relative link in the repo's
//! top-level documentation (README.md, docs/GUIDE.md, DESIGN.md,
//! EXPERIMENTS.md, …) must point at a file that exists, and every
//! `#fragment` must match a heading in the target document — so the
//! GUIDE/README/DESIGN cross-references cannot rot. CI runs this via
//! `cargo test --test doc_links` right after building the rustdoc
//! artifact.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// The documents under the contract. Paths are relative to the workspace
/// root (`CARGO_MANIFEST_DIR` of the root crate).
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/GUIDE.md",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// GitHub's heading-to-anchor slug: lowercase, inline-code backticks and
/// all punctuation dropped (anything that is not alphanumeric, space or
/// hyphen — multi-byte characters like `—` included), spaces replaced by
/// hyphens. Duplicate-heading `-1` suffixes are not modelled; the docs
/// avoid relying on them.
fn slug(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == ' ' || *c == '-' || *c == '_')
        .collect::<String>()
        .to_ascii_lowercase()
        .replace(' ', "-")
}

/// All anchors defined by a markdown document's ATX headings. Fenced code
/// blocks are skipped so `# comment` lines inside ```sh``` blocks do not
/// register as headings.
fn anchors(text: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let trimmed = line.trim_start();
        let level = trimmed.chars().take_while(|&c| c == '#').count();
        if (1..=6).contains(&level) && trimmed[level..].starts_with(' ') {
            out.insert(slug(&trimmed[level..]));
        }
    }
    out
}

/// Extracts `[text](target)` link targets, skipping fenced code blocks and
/// inline code spans.
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Strip inline code spans so `[i]` indexing examples in code are
        // not mistaken for links.
        let mut cleaned = String::with_capacity(line.len());
        let mut in_code = false;
        for c in line.chars() {
            if c == '`' {
                in_code = !in_code;
            } else if !in_code {
                cleaned.push(c);
            }
        }
        let mut rest = cleaned.as_str();
        while let Some(close) = rest.find("](") {
            let after = &rest[close + 2..];
            let Some(end) = after.find(')') else { break };
            out.push(after[..end].trim().to_owned());
            rest = &after[end + 1..];
        }
    }
    out
}

#[test]
fn every_relative_doc_link_resolves() {
    let root = root();
    let mut failures = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        let base = path.parent().expect("doc has a parent directory");
        for target in link_targets(&text) {
            // External links and mail addresses are out of scope.
            if target.contains("://") || target.starts_with("mailto:") {
                continue;
            }
            let (file_part, fragment) = match target.split_once('#') {
                Some((f, frag)) => (f, Some(frag)),
                None => (target.as_str(), None),
            };
            let target_path = if file_part.is_empty() {
                path.clone()
            } else {
                base.join(file_part)
            };
            if !target_path.exists() {
                failures.push(format!("{doc}: broken link target `{target}`"));
                continue;
            }
            if let Some(frag) = fragment {
                if target_path.extension().is_some_and(|e| e == "md") {
                    let target_text = std::fs::read_to_string(&target_path)
                        .expect("existing markdown file is readable");
                    if !anchors(&target_text).contains(frag) {
                        failures.push(format!(
                            "{doc}: anchor `#{frag}` not found in {}",
                            Path::new(file_part).display()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "documentation cross-references rotted:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn checked_docs_actually_link_to_each_other() {
    // The checker is only worth its CI minutes if the guide really is
    // cross-referenced: GUIDE.md must link into DESIGN.md with anchors,
    // and README.md must point at the guide.
    let root = root();
    let guide = std::fs::read_to_string(root.join("docs/GUIDE.md")).expect("GUIDE.md exists");
    assert!(
        link_targets(&guide)
            .iter()
            .any(|t| t.starts_with("../DESIGN.md#")),
        "GUIDE.md should deep-link into DESIGN.md sections"
    );
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md exists");
    assert!(
        link_targets(&readme).iter().any(|t| t == "docs/GUIDE.md"),
        "README.md should point at the architecture guide"
    );
}

#[test]
fn slugging_matches_github_for_the_design_headings() {
    // Pin the slug algorithm on the exact heading shapes DESIGN.md uses
    // (inline code, em dashes, slashes) so a drift in `slug` fails here
    // with a readable message rather than as a mysterious broken anchor.
    assert_eq!(
        slug("`dew-trace` — the trace model"),
        "dew-trace--the-trace-model"
    );
    assert_eq!(
        slug("Pass fusion across associativities"),
        "pass-fusion-across-associativities"
    );
    assert_eq!(
        slug("`vendor/` — offline third-party stand-ins"),
        "vendor--offline-third-party-stand-ins"
    );
}
