//! The public surface is what ships: every `pub fn` / `pub const` under
//! `crates/*/src` (the shim crates aside) is named outside its own file by
//! code that is not test code — in `crates/*/src`, `examples/` or
//! `benchmark/src/` — or it is on [`ORACLES`] with the test that reads it as
//! the reference for a shipped path.
//!
//! Matching is by identifier, comments included, so it can only over-count
//! callers: every failure is real. Left out of the caller text are test
//! code — each `#[cfg(test)]` item and every module declared `#[cfg(test)]
//! mod name;` — and re-exports, which name an item without calling it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Public items with no shipped caller, each with an integration test (path
/// from the workspace root) that reads it as its reference.
const ORACLES: &[(&str, &str)] = &[
    // The closed form the synthetic PDK tabulates, and the primary-input
    // slew: the hand-computed chain.
    ("INPUT_SLEW", "crates/sta/tests/chain.rs"),
    ("analytic_delay", "crates/sta/tests/chain.rs"),
    ("analytic_slew", "crates/sta/tests/chain.rs"),
    ("analytic_pin_cap", "crates/sta/tests/chain.rs"),
    ("analytic_setup", "crates/sta/tests/chain.rs"),
    ("analytic_hold", "crates/sta/tests/chain.rs"),
    // The smoothed objective the STA gradients are finite-differenced on.
    ("wns_smooth", "crates/sta/tests/gradcheck.rs"),
    // The density energy the field's gradient is finite-differenced on.
    ("energy_into", "crates/place/tests/density_golden.rs"),
    // The inverse transform that checks the FFT solver against the dense one.
    ("idct2", "crates/place/tests/properties.rs"),
    // Band heights the automatic policy does not pick, for the legalizer's
    // pool-width invariance.
    ("with_band_rows", "crates/place/tests/parallel_equiv.rs"),
    // The RUDY demand checked against the forest's wirelength.
    ("total_demand", "crates/route/tests/properties.rs"),
    // The re-serialization the trace parser must round-trip byte for byte.
    ("to_bytes", "crates/trace/tests/properties.rs"),
    // The in-memory writer the reader's round trip parses.
    ("write_verilog", "crates/netlist/tests/properties.rs"),
    // The schema tag `metrics.json` is checked against.
    ("METRICS_SCHEMA", "crates/core/tests/obs_golden.rs"),
    // One net's tree, which the forest's trees are compared with.
    ("build_tree_with", "crates/rsmt/tests/properties.rs"),
    // Path extraction and incremental RUDY: the benchmark harness links
    // them, and their tests read these accessors until they go together.
    ("num_paths", "crates/sta/tests/paths.rs"),
    ("pin_criticality", "crates/sta/tests/paths.rs"),
    ("critical_pins", "crates/core/tests/paths_golden.rs"),
    ("sync_cells", "crates/route/tests/properties.rs"),
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for p in fs::read_dir(dir)
        .expect("readable dir")
        .map(|e| e.expect("entry").path())
    {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The non-test code of a file laid out as rustfmt does, re-exports (`pub
/// use`) left out, and the files of the modules it declares
/// `#[cfg(test)] mod name;`. A `#[cfg(test)]` item is
/// its first line when that ends in `;` or `}`, else it runs to the first
/// lone `}` at its own indent.
fn non_test_code(path: &Path) -> (String, Vec<PathBuf>) {
    let text = fs::read_to_string(path).expect("readable source");
    let lines: Vec<&str> = text.lines().collect();
    let (mut code, mut test_mods, mut i) = (String::new(), Vec::new(), 0);
    let indent = |l: &str| l.len() - l.trim_start().len();
    while i < lines.len() {
        if lines[i].trim_start().starts_with("pub use ") {
            while !lines[i].trim_end().ends_with(';') {
                i += 1;
            }
            i += 1;
            continue;
        }
        if lines[i].trim() != "#[cfg(test)]" {
            code.push_str(lines[i]);
            code.push('\n');
            i += 1;
            continue;
        }
        let k = indent(lines[i]);
        i += 1;
        while lines[i].trim_start().starts_with("#[") {
            i += 1;
        }
        if let Some(name) = lines[i]
            .trim()
            .strip_prefix("mod ")
            .and_then(|m| m.strip_suffix(';'))
        {
            let stem = path.file_stem().expect("file name");
            let dir = match stem.to_str() {
                Some("lib" | "main" | "mod") => path.parent().expect("parent").to_path_buf(),
                _ => path.with_extension(""),
            };
            test_mods.push(dir.join(format!("{name}.rs")));
        }
        if !lines[i].trim_end().ends_with([';', '}']) {
            while !(indent(lines[i]) == k && lines[i].trim() == "}") {
                i += 1;
            }
        }
        i += 1;
    }
    (code, test_mods)
}

/// The identifiers of `text`, in order.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The names `text` declares `pub fn` / `pub const` (also `pub const fn`,
/// `pub unsafe fn`).
fn public_items(text: &str) -> Vec<&str> {
    let words: Vec<&str> = idents(text).collect();
    let mut out = Vec::new();
    for i in (0..words.len()).filter(|&i| words[i] == "pub") {
        let rest = match &words[i + 1..] {
            r @ ["const" | "unsafe", "fn", ..] => &r[1..],
            r => r,
        };
        if let ["fn" | "const", name, ..] = rest {
            out.push(*name);
        }
    }
    out
}

#[test]
fn every_public_item_has_a_shipped_caller_or_a_reference_test() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.retain(|p| {
        p.components().any(|c| c.as_os_str() == "src") || p.starts_with(root.join("examples"))
    });
    let mut code = BTreeMap::new();
    let mut test_files = BTreeSet::new();
    for f in files {
        let (text, test_mods) = non_test_code(&f);
        test_files.extend(test_mods);
        code.insert(
            f.strip_prefix(&root).expect("under root").to_path_buf(),
            text,
        );
    }
    code.retain(|f, _| !test_files.iter().any(|t| t.ends_with(f)));
    let mut named_in: BTreeMap<&str, BTreeSet<&PathBuf>> = BTreeMap::new();
    for (file, text) in &code {
        for w in idents(text) {
            named_in.entry(w).or_default().insert(file);
        }
    }

    let mut unshipped = BTreeMap::new();
    for (file, text) in &code {
        let krate = file.iter().nth(1).and_then(|c| c.to_str()).unwrap_or("");
        if !file.starts_with("crates") || krate.starts_with("shim-") {
            continue;
        }
        for name in public_items(text) {
            if named_in[name].iter().all(|f| *f == file) {
                unshipped.insert(name, file.display());
            }
        }
    }

    let mut failures = Vec::new();
    for (name, file) in &unshipped {
        if !ORACLES.iter().any(|(n, _)| n == name) {
            failures.push(format!(
                "`{name}` ({file}) has no shipped caller and no ORACLES entry"
            ));
        }
    }
    for (name, test) in ORACLES {
        if !unshipped.contains_key(name) {
            failures.push(format!(
                "ORACLES entry `{name}` is not an unshipped public item"
            ));
        }
        let text = fs::read_to_string(root.join(test)).unwrap_or_default();
        if !idents(&text).any(|w| w == *name) {
            failures.push(format!("ORACLES entry `{name}`: {test} does not name it"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
