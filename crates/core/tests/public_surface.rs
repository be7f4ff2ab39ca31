//! The public surface is what ships: every `pub fn` / `pub const` under
//! `crates/*/src` (the shim crates aside) is named outside its own file by
//! code that is not test code — in `crates/*/src`, `examples/` or
//! `benchmark/src/` — or it is on [`ORACLES`] with the test that reads it as
//! the reference for a shipped path: an integration test, or the in-file
//! tests of a source file.
//!
//! Matching is by identifier, in code only: left out of the caller text are
//! comments (`//`, `///`, `//!`), test code — each `#[cfg(test)]` item and
//! every module declared `#[cfg(test)] mod name;` — and re-exports, all of
//! which name an item without calling it. A file that defines a public item
//! of a name is no caller of any item of that name, so two uncalled items
//! of one name do not vouch for each other.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Public items with no shipped caller, each with the file (path from the
/// workspace root) whose tests read it as their reference: an integration
/// test, or a source file whose in-file tests do.
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
    // The smoothed maximum the shipped softmax weights are finite-differenced
    // on (`smoothing.rs`'s tests; its doc example is a doctest).
    ("lse_max", "crates/sta/src/smoothing.rs"),
    // The allocating Elmore backward pass and the Steiner-point fold the
    // arena kernels are checked against bit for bit
    // (`elmore::tests::arena_kernels_equal_reference`).
    ("backward", "crates/sta/src/elmore.rs"),
    ("scatter_gradient", "crates/sta/src/elmore.rs"),
    // The density energy the field's gradient is finite-differenced on.
    ("energy_into", "crates/place/tests/density_golden.rs"),
    // The transforms that check the FFT solver against the dense one.
    ("dct2", "crates/place/tests/properties.rs"),
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
    // The 30k-cell preset the scale goldens place (the benchmark's
    // `scale_wl_30k` workload spells out its parameters).
    ("scale_design", "crates/core/tests/scale_golden.rs"),
    // The schema tag `metrics.json` is checked against.
    ("METRICS_SCHEMA", "crates/core/tests/obs_golden.rs"),
    // One net's tree, which the forest's trees are compared with.
    ("build_tree_with", "crates/rsmt/tests/properties.rs"),
    // Path extraction and incremental RUDY: the benchmark harness links
    // them, and their tests read these accessors until they go together.
    ("num_paths", "crates/sta/tests/paths.rs"),
    ("criticality", "crates/sta/tests/paths.rs"),
    ("pin_criticality", "crates/sta/tests/paths.rs"),
    ("critical_pins", "crates/core/tests/paths_golden.rs"),
    ("sync_cells", "crates/route/tests/properties.rs"),
    // The RUDY map without its pin term, whose demand is the forest's
    // wirelength.
    ("with_pin_weight", "crates/route/tests/properties.rs"),
    // The Elmore quantities of one net, compared bit for bit between the
    // incremental and the full analysis (the shipped view), and between the
    // arena kernels and the allocating reference (`elmore.rs`'s tests).
    ("root_load", "crates/sta/tests/incremental.rs"),
    ("root_load", "crates/sta/src/elmore.rs"),
    ("impulse_sq_at", "crates/sta/tests/incremental.rs"),
    ("impulse_sq_at", "crates/sta/src/elmore.rs"),
    // The transform counts of the density and Poisson scratches: three 2-D
    // transforms per density evaluation.
    ("transforms", "crates/place/tests/zero_alloc.rs"),
    ("transforms", "crates/place/src/spectral.rs"),
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

/// `text` with its line comments (`//`, `///`, `//!`) cut. String and
/// character literals, raw strings included, are kept whole, so a `//`
/// inside one cuts nothing.
fn strip_comments(text: &str) -> String {
    let s: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < s.len() {
        let start = i;
        let hashes = s[i + 1..].iter().take_while(|&&c| c == '#').count();
        match s[i] {
            '/' if s.get(i + 1) == Some(&'/') => {
                while i < s.len() && s[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            '"' => {
                i += 1;
                while s[i] != '"' {
                    i += if s[i] == '\\' { 2 } else { 1 };
                }
                i += 1;
            }
            'r' if s.get(i + 1 + hashes) == Some(&'"') => {
                i += hashes + 2;
                while !(s[i] == '"' && s[i + 1..].iter().take(hashes).all(|&c| c == '#')) {
                    i += 1;
                }
                i += hashes + 1;
            }
            '\'' if s.get(i + 1) == Some(&'\\') || s.get(i + 2) == Some(&'\'') => {
                i += if s[i + 1] == '\\' { 3 } else { 2 };
                while s[i] != '\'' {
                    i += 1;
                }
                i += 1;
            }
            _ => i += 1,
        }
        out.extend(&s[start..i]);
    }
    out
}

/// The non-test code of a file laid out as rustfmt does, comments and
/// re-exports (`pub use`) left out, and the files of the modules it declares
/// `#[cfg(test)] mod name;`. A `#[cfg(test)]` item is
/// its first line when that ends in `;` or `}`, else it runs to the first
/// lone `}` at its own indent.
fn non_test_code(path: &Path) -> (String, Vec<PathBuf>) {
    let text = strip_comments(&fs::read_to_string(path).expect("readable source"));
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
    let mut defined_in: BTreeMap<&str, BTreeSet<&PathBuf>> = BTreeMap::new();
    for (file, text) in &code {
        for w in idents(text) {
            named_in.entry(w).or_default().insert(file);
        }
        for name in public_items(text) {
            defined_in.entry(name).or_default().insert(file);
        }
    }

    let mut unshipped = BTreeMap::new();
    for (file, text) in &code {
        let krate = file.iter().nth(1).and_then(|c| c.to_str()).unwrap_or("");
        if !file.starts_with("crates") || krate.starts_with("shim-") {
            continue;
        }
        for name in public_items(text) {
            // A file that defines an item of this name is no caller of it:
            // two dead items of one name do not vouch for each other.
            if named_in[name].iter().all(|f| defined_in[name].contains(f)) {
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
        // The test code names it: all of an integration test's code, the
        // part of a source file that is not its shipped code.
        let path = root.join(test);
        let text = strip_comments(&fs::read_to_string(&path).unwrap_or_default());
        let shipped = if test.contains("/src/") { non_test_code(&path).0 } else { String::new() };
        let count = |t: &str| idents(t).filter(|w| w == name).count();
        if count(&text) <= count(&shipped) {
            failures.push(format!("ORACLES entry `{name}`: no test in {test} names it"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
