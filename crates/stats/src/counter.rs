//! Named event counters.
//!
//! Simulator components expose their behaviour through [`Counter`]s grouped
//! in a [`CounterSet`]. Counters are plain `u64` accumulators with a stable
//! name, so experiment drivers can collect them generically.

use std::collections::BTreeMap;
use std::fmt;

/// A single monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use rmt_stats::Counter;
///
/// let mut retired = Counter::new("retired_instructions");
/// retired.add(8);
/// retired.inc();
/// assert_eq!(retired.value(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Increments by one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Resets the count to zero (used at the warmup/measurement boundary).
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.value)
    }
}

/// An ordered collection of named counters.
///
/// Components create counters lazily by name; the set keeps them sorted so
/// reports are stable across runs.
///
/// # Examples
///
/// ```
/// use rmt_stats::CounterSet;
///
/// let mut cs = CounterSet::new();
/// cs.add("loads", 3);
/// cs.inc("loads");
/// assert_eq!(cs.get("loads"), 4);
/// assert_eq!(cs.get("stores"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counters: BTreeMap<String, u64>,
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from `(name, count)` pairs, keeping only the non-zero
    /// counts: the set a component that creates each counter on its first
    /// increment would hold.
    ///
    /// # Examples
    ///
    /// ```
    /// use rmt_stats::CounterSet;
    ///
    /// let cs = CounterSet::nonzero([("hits", 3), ("misses", 0)]);
    /// assert_eq!(cs.get("hits"), 3);
    /// assert_eq!(cs.len(), 1);
    /// ```
    pub fn nonzero<'a>(counts: impl IntoIterator<Item = (&'a str, u64)>) -> Self {
        let mut set = Self::new();
        for (name, n) in counts.into_iter().filter(|&(_, n)| n > 0) {
            set.add(name, n);
        }
        set
    }

    /// Increments counter `name` by one, creating it if necessary.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `n`, creating it if necessary.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += n;
        } else {
            self.counters.insert(name.to_owned(), n);
        }
    }

    /// Returns the value of counter `name`, or zero if it was never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Resets every counter to zero (the names are retained).
    pub fn reset_all(&mut self) {
        for v in self.counters.values_mut() {
            *v = 0;
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the set has no counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Merges another counter set into this one, summing shared names.
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{name:<40} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basic_ops() {
        let mut c = Counter::new("x");
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        c.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn counter_display_nonempty() {
        let c = Counter::new("events");
        assert_eq!(format!("{c}"), "events = 0");
    }

    #[test]
    fn set_creates_on_demand() {
        let mut cs = CounterSet::new();
        assert_eq!(cs.get("nothing"), 0);
        cs.inc("a");
        cs.add("a", 2);
        assert_eq!(cs.get("a"), 3);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn set_reset_keeps_names() {
        let mut cs = CounterSet::new();
        cs.add("a", 5);
        cs.reset_all();
        assert_eq!(cs.get("a"), 0);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn set_iterates_in_name_order() {
        let mut cs = CounterSet::new();
        cs.inc("zeta");
        cs.inc("alpha");
        let names: Vec<&str> = cs.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn set_merge_sums() {
        let mut a = CounterSet::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = CounterSet::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn set_display_lists_counters() {
        let mut cs = CounterSet::new();
        cs.add("loads", 7);
        let text = format!("{cs}");
        assert!(text.contains("loads"));
        assert!(text.contains('7'));
    }
}
