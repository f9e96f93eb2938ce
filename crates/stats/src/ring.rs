//! A bounded event ring: keeps the most recent `capacity` items, evicting
//! the oldest and counting what it evicted. The pipeline's event tracer
//! and the fault-forensics flight recorder are both built on it; it never
//! allocates past its capacity and never panics once constructed.

use std::collections::VecDeque;

/// A bounded ring of `T` with an eviction counter.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring keeping the most recent `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        Ring {
            items: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an item, evicting the oldest beyond capacity.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forgets every retained item and resets the eviction count.
    pub fn clear(&mut self) {
        self.items.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_most_recent_and_counts_evictions() {
        let mut r = Ring::new(3);
        for i in 0..100u64 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.dropped(), 97);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![97, 98, 99]);
    }

    #[test]
    fn clear_resets_items_and_dropped() {
        let mut r = Ring::new(2);
        for i in 0..5 {
            r.push(i);
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        Ring::<u8>::new(0);
    }
}
