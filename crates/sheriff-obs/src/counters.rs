//! Monotonic counter registry.

use std::collections::BTreeMap;

/// A registry of monotonic `u64` counters keyed by `&'static str`
/// names (dotted by convention: `"net.drops"`, `"migrations.committed"`).
///
/// Backed by a `BTreeMap` so iteration order — and therefore any trace
/// or report rendered from it — is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to `name`, creating it at zero first if absent.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.map.entry(name).or_insert(0) += delta;
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no counter has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Fold another registry into this one (used when merging
    /// per-shard sinks back into a run-level report).
    pub fn merge(&mut self, other: &Counters) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_merges() {
        let mut a = Counters::new();
        a.add("x", 1);
        a.add("y", 3);
        let mut b = Counters::new();
        b.add("y", 2);
        b.add("z", 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 1);
        assert_eq!(a.get("missing"), 0);
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }
}
