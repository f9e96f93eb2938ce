//! Sparse, paged architectural memory.
//!
//! Each *logical program* owns one [`MemImage`]: the architectural data
//! memory outside the sphere of replication. Timing is modelled separately
//! by `rmt-mem` caches; this type is purely functional, which is what lets
//! the simulator separate "what value does this load see" from "how long
//! does it take".
//!
//! All accesses are little-endian. Unwritten memory reads as zero.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse 64-bit byte-addressable memory image.
///
/// # Examples
///
/// ```
/// use rmt_isa::MemImage;
///
/// let mut m = MemImage::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x1000), 0xef); // little endian
/// assert_eq!(m.read_u64(0x9999_0000), 0); // unwritten reads as zero
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemImage {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl MemImage {
    /// Creates an empty (all-zero) memory image.
    pub fn new() -> Self {
        Self::default()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads a little-endian 64-bit word (may straddle pages).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut v = 0u64;
        for i in 0..8 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes a little-endian 64-bit word (may straddle pages).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        for i in 0..8 {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads `bytes` bytes (1 or 8) as a zero-extended value.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not 1 or 8.
    pub fn read(&self, addr: u64, bytes: u64) -> u64 {
        match bytes {
            1 => self.read_u8(addr) as u64,
            8 => self.read_u64(addr),
            other => panic!("unsupported access size {other}"),
        }
    }

    /// Writes the low `bytes` bytes (1 or 8) of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not 1 or 8.
    pub fn write(&mut self, addr: u64, value: u64, bytes: u64) {
        match bytes {
            1 => self.write_u8(addr, value as u8),
            8 => self.write_u64(addr, value),
            other => panic!("unsupported access size {other}"),
        }
    }

    /// Number of materialized pages (for tests and memory accounting).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Returns a canonical digest of the full image contents, used to compare
    /// architectural state between redundant executions. Zero pages and
    /// absent pages hash identically.
    pub fn digest(&self) -> u64 {
        // FNV-1a over (page_index, non-zero contents), pages in sorted order.
        let mut keys: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| p.iter().any(|b| *b != 0))
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for k in keys {
            for i in 0..8 {
                mix((k >> (8 * i)) as u8);
            }
            let page = &self.pages[&k];
            for &b in page.iter() {
                mix(b);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_unwritten() {
        let m = MemImage::new();
        assert_eq!(m.read_u8(123), 0);
        assert_eq!(m.read_u64(0xffff_ffff_ffff_0000), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn byte_roundtrip() {
        let mut m = MemImage::new();
        m.write_u8(5, 0xab);
        assert_eq!(m.read_u8(5), 0xab);
        assert_eq!(m.read_u8(6), 0);
    }

    #[test]
    fn word_roundtrip_and_endianness() {
        let mut m = MemImage::new();
        m.write_u64(0x100, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(0x100), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(0x100), 0x08);
        assert_eq!(m.read_u8(0x107), 0x01);
    }

    #[test]
    fn word_straddles_page_boundary() {
        let mut m = MemImage::new();
        let addr = (1 << PAGE_SHIFT) - 4;
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn sized_access_dispatch() {
        let mut m = MemImage::new();
        m.write(0, 0x1234, 8);
        assert_eq!(m.read(0, 8), 0x1234);
        m.write(100, 0xff55, 1);
        assert_eq!(m.read(100, 1), 0x55);
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn bad_size_panics() {
        MemImage::new().read(0, 4);
    }

    #[test]
    fn digest_ignores_zero_pages() {
        let empty = MemImage::new();
        let mut touched = MemImage::new();
        touched.write_u8(0x4000, 0);
        assert_eq!(empty.digest(), touched.digest());
    }

    #[test]
    fn digest_detects_single_bit_difference() {
        let mut a = MemImage::new();
        let mut b = MemImage::new();
        a.write_u64(0x2000, 42);
        b.write_u64(0x2000, 43);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_is_order_independent() {
        let mut a = MemImage::new();
        a.write_u8(0x1000, 1);
        a.write_u8(0x9000, 2);
        let mut b = MemImage::new();
        b.write_u8(0x9000, 2);
        b.write_u8(0x1000, 1);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn clone_is_independent() {
        let mut a = MemImage::new();
        a.write_u8(0, 1);
        let mut b = a.clone();
        b.write_u8(0, 2);
        assert_eq!(a.read_u8(0), 1);
        assert_eq!(b.read_u8(0), 2);
    }
}
