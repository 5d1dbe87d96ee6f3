//! Output oracles: structural checks every rep runs, plus fingerprints
//! pinned in `oracles.json` for the inputs recorded there.
//!
//! A fingerprint is the compact rendering of everything a workload's
//! output is checked on (event count and digest hash, verdict tallies,
//! state counts, findings). For a pinned input the rep's fingerprint must
//! equal the pinned one; for any other input (another seed, say) the parent
//! requires every rep of the run to agree on it byte for byte.

use std::sync::OnceLock;

use serde_json::Value;

use crate::measure::field;

/// Failed checks of one operation.
#[derive(Default)]
pub struct Checks {
    errs: Vec<String>,
}

impl Checks {
    /// Record a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errs.push(what());
        }
    }

    /// Require `actual == expected`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, actual: T, expected: T) {
        self.check(actual == expected, || {
            format!("{what}: got {actual:?}, expected {expected:?}")
        });
    }

    /// Compare `fingerprint` with the pinned value for `key`, if any.
    pub fn pinned(&mut self, key: &str, fingerprint: &str) {
        if let Some(expected) = pinned(key) {
            self.check(fingerprint == expected, || {
                format!("{key}: fingerprint {fingerprint:?} differs from the pinned {expected:?}")
            });
        }
    }

    /// The failures, consumed.
    pub fn into_errs(self) -> Vec<String> {
        self.errs
    }
}

/// The pinned fingerprint for `key`.
pub fn pinned(key: &str) -> Option<&'static str> {
    static ORACLES: OnceLock<Value> = OnceLock::new();
    let v = ORACLES.get_or_init(|| {
        serde_json::from_str(include_str!("../oracles.json")).expect("oracles.json is valid JSON")
    });
    match field(field(v, "fingerprints")?, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}
