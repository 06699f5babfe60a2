//! Public-surface checker: every `pub mod` and `pub use` in the `lib.rs`
//! of each library crate (`dew-core`, `dew-trace`, `dew-explore`,
//! `dew-serve`, `dew-cachesim`, `dew-workloads` and `dew-isa`) must have a
//! row in DESIGN.md's "Public surface" table saying what reaches it, and
//! every row must name something those files export — so a new export
//! cannot land without a stated reason, and a retired one cannot leave a
//! stale row behind.

use std::collections::BTreeSet;
use std::path::PathBuf;

/// The crates under the contract and their `lib.rs`, relative to the
/// workspace root.
const CRATES: &[(&str, &str)] = &[
    ("dew-core", "crates/core/src/lib.rs"),
    ("dew-trace", "crates/trace/src/lib.rs"),
    ("dew-explore", "crates/explore/src/lib.rs"),
    ("dew-serve", "crates/serve/src/lib.rs"),
    ("dew-cachesim", "crates/cachesim/src/lib.rs"),
    ("dew-workloads", "crates/workloads/src/lib.rs"),
    ("dew-isa", "crates/isa/src/lib.rs"),
];

/// The heading the table sits under in DESIGN.md.
const HEADING: &str = "### Public surface";

/// One export: its crate, `mod` or `use`, and the name it is reached by.
type Export = (String, &'static str, String);

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The names a `lib.rs` exports through top-level `pub mod` and `pub use`
/// items. Grouped uses (`pub use a::{B, c::D};`) contribute each leaf, a
/// rename (`X as Y`) contributes `Y`; comments, attributes, private and
/// `pub(crate)` items contribute nothing.
fn exports(krate: &str, lib: &str) -> Vec<Export> {
    let mut out = Vec::new();
    let mut lines = lib.lines();
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix("pub mod ") {
            let name = rest.trim_end_matches(';').trim();
            out.push((krate.to_owned(), "mod", name.to_owned()));
        } else if let Some(rest) = line.strip_prefix("pub use ") {
            let mut stmt = rest.to_owned();
            while !stmt.contains(';') {
                let more = lines.next().expect("a `pub use` ends with `;`");
                stmt.push(' ');
                stmt.push_str(more.trim());
            }
            let stmt = stmt.split(';').next().unwrap_or_default();
            let leaves = match (stmt.find('{'), stmt.rfind('}')) {
                (Some(open), Some(close)) => stmt[open + 1..close].split(',').collect(),
                _ => vec![stmt.rsplit("::").next().unwrap_or_default()],
            };
            for leaf in leaves {
                let leaf = leaf.trim();
                let name = match leaf.split_once(" as ") {
                    Some((_, alias)) => alias.trim(),
                    None => leaf.rsplit("::").next().unwrap_or_default(),
                };
                if !name.is_empty() {
                    out.push((krate.to_owned(), "use", name.to_owned()));
                }
            }
        }
    }
    out
}

/// The rows of the "Public surface" table: `(crate, kind, item)` and the
/// "Reached by" text. Backticks are stripped from the first three cells.
fn rows(design: &str) -> Vec<(Export, String)> {
    let start = design
        .lines()
        .position(|l| l.trim() == HEADING)
        .unwrap_or_else(|| panic!("DESIGN.md has no `{HEADING}` heading"));
    let mut out = Vec::new();
    for line in design.lines().skip(start + 1) {
        if line.starts_with('#') {
            break;
        }
        let Some(body) = line.trim().strip_prefix('|') else {
            continue;
        };
        let cells: Vec<&str> = body
            .trim_end_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() != 4 || cells[0] == "Crate" || cells[0].starts_with('-') {
            continue;
        }
        let plain = |c: &str| c.trim_matches('`').to_owned();
        let kind = match cells[1] {
            "mod" => "mod",
            "use" => "use",
            other => panic!("row kind must be `mod` or `use`, got `{other}`: {line}"),
        };
        out.push((
            (plain(cells[0]), kind, plain(cells[2])),
            cells[3].to_owned(),
        ));
    }
    out
}

/// Everything wrong between the exports and the table rows, one line per
/// fault; empty when they agree.
fn mismatches(exported: &[Export], table: &[(Export, String)]) -> Vec<String> {
    let mut faults = Vec::new();
    let have: BTreeSet<&Export> = exported.iter().collect();
    let mut listed = BTreeSet::new();
    for (row, reached_by) in table {
        if !listed.insert(row) {
            faults.push(format!("duplicate row: {} {} {}", row.0, row.1, row.2));
        }
        if reached_by.is_empty() {
            faults.push(format!("row says nothing reaches {} {}", row.0, row.2));
        }
        if !have.contains(row) {
            faults.push(format!(
                "row names nothing exported: {} pub {} {}",
                row.0, row.1, row.2
            ));
        }
    }
    for export in &have {
        if !listed.contains(export) {
            faults.push(format!(
                "export has no row: {} pub {} {}",
                export.0, export.1, export.2
            ));
        }
    }
    faults
}

#[test]
fn every_export_has_a_row_and_every_row_an_export() {
    let exported: Vec<Export> = CRATES
        .iter()
        .flat_map(|(krate, lib)| exports(krate, &read(lib)))
        .collect();
    assert!(exported.len() > 50, "the parser found the exports");
    let faults = mismatches(&exported, &rows(&read("DESIGN.md")));
    assert!(
        faults.is_empty(),
        "DESIGN.md \"Public surface\" is out of date:\n  {}",
        faults.join("\n  ")
    );
}

#[test]
fn the_parser_reads_grouped_renamed_and_single_exports() {
    let lib = "\
//! pub use docs::Ignored;
#![warn(missing_docs)]

mod private;
pub mod open;
#[allow(unsafe_code)]
pub mod guarded;
pub(crate) use private::Hidden;
pub use private::{
    Alpha, nested::Beta,
    Gamma as Delta,
};
pub use private::Single;
";
    let names: Vec<(&str, String)> = exports("c", lib)
        .into_iter()
        .map(|(_, kind, name)| (kind, name))
        .collect();
    let want = [
        ("mod", "open"),
        ("mod", "guarded"),
        ("use", "Alpha"),
        ("use", "Beta"),
        ("use", "Delta"),
        ("use", "Single"),
    ];
    assert_eq!(
        names,
        want.map(|(k, n)| (k, n.to_owned())).to_vec(),
        "{lib}"
    );
}

#[test]
fn a_new_export_without_a_row_and_a_stale_row_are_both_caught() {
    let design = "\
### Public surface

| Crate | Kind | Item | Reached by |
|-------|------|------|------------|
| `c` | use | `Kept` | a bench bin |
| `c` | use | `Retired` | an example |

## Next section

| `c` | use | `Outside` | not part of the table |
";
    let exported = exports("c", "pub use m::{Kept, Added};\n");
    let faults = mismatches(&exported, &rows(design));
    assert_eq!(
        faults,
        [
            "row names nothing exported: c pub use Retired",
            "export has no row: c pub use Added",
        ]
    );
}
