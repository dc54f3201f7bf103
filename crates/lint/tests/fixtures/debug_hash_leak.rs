//! Fixture: a Debug-derived type holding a hash container. Execution
//! fingerprints hash the `{:?}` rendering, and Debug iterates hash
//! containers in nondeterministic order — a direct fingerprint-poisoning
//! vector v1 could not see (it had no notion of type bodies or derives).
use std::collections::HashMap; // lint:allow(hash-iteration)

#[derive(Clone, Debug)]
pub struct Snapshot {
    pub seq: u64,
    pub entries: HashMap<u64, u64>, // lint:allow(hash-iteration)
}
