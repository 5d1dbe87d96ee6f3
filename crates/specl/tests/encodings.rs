//! Pins the interpreter's state encodings on every shipped spec.
//!
//! For each spec under `specs/` and `specs/fivegs/`, the reachable-state
//! count and one digest over every state's [`Model::components`] bytes and
//! [`Model::format_state`] text, taken in [`mck::explore`] order. The
//! in-memory layout of `SpecState` is free to change; the collapse store's
//! component bytes, the spill format and the rendered witnesses are not.

use std::fs;
use std::path::{Path, PathBuf};

use mck::Model;

/// `(file, reachable states, digest)` for every shipped spec, in
/// `specs/` then `specs/fivegs/` file-name order.
const PINNED: &[(&str, usize, u64)] = &[
    ("attach_reliable.specl", 11, 0xcebd_878e_1df8_fd6e),
    ("attach_s2.specl", 810, 0x027d_1d34_7957_5d16),
    ("crosssys_lu_s6.specl", 5, 0x6454_7625_aa44_aa64),
    ("attach_timer_race_s10.specl", 606, 0xcb88_c954_c0e3_b81b),
    ("eps_fallback_s9.specl", 43, 0xd57a_8a6b_7621_f90f),
    ("fiveg_registration_s7.specl", 39, 0x075b_c85a_7eb8_8167),
    ("nsa_secondary_s8.specl", 5, 0xb683_b373_c283_2ab1),
];

fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "specl"))
        .collect();
    files.sort();
    files
}

/// Reachable-state count and encoding digest of the spec at `path`.
fn encoding(path: &Path) -> (usize, u64) {
    let source = fs::read_to_string(path).expect("spec readable");
    let model = specl::compile(&source).expect("shipped spec compiles");
    let graph = mck::explore(&model, 1_000_000);
    assert!(graph.complete, "{} must exhaust", path.display());
    let mut comps = Vec::new();
    let per_state: Vec<u64> = graph
        .states
        .iter()
        .map(|s| {
            assert!(model.components(s, &mut comps));
            mck::fingerprint(&(&comps, model.format_state(s)))
        })
        .collect();
    (graph.states.len(), mck::fingerprint(&per_state))
}

#[test]
fn every_shipped_spec_keeps_its_state_encoding() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut files = spec_files(&root);
    files.extend(spec_files(&root.join("fivegs")));
    let got: Vec<(String, usize, String)> = files
        .iter()
        .map(|p| {
            let (states, digest) = encoding(p);
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, states, format!("{digest:#018x}"))
        })
        .collect();
    let want: Vec<(String, usize, String)> = PINNED
        .iter()
        .map(|&(f, n, d)| (f.to_string(), n, format!("{d:#018x}")))
        .collect();
    assert_eq!(got, want);
}
