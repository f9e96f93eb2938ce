//! Sparse, paged architectural memory.
//!
//! Each *logical program* owns one [`MemImage`]: the architectural data
//! memory outside the sphere of replication. Timing is modelled separately
//! by `rmt-mem` caches; this type is purely functional, which is what lets
//! the simulator separate "what value does this load see" from "how long
//! does it take".
//!
//! All accesses are little-endian. Unwritten memory reads as zero.
//!
//! Pages are copy-on-write: cloning an image shares every page, and the
//! first write to a shared page copies it. A sampled run's checkpoint
//! ladder therefore holds a page again only where the fast-forward wrote
//! it between two checkpoints, and installing a checkpoint's image into a
//! machine copies nothing until the machine stores. The pages are
//! reference-counted atomically because runner threads share ladders.

use std::collections::HashMap;
use std::sync::Arc;

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
///
/// let snapshot = m.clone(); // shares every page
/// m.write_u8(0x1000, 7); // copies the written page only
/// assert_eq!(snapshot.read_u8(0x1000), 0xef);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemImage {
    pages: HashMap<u64, Arc<[u8; PAGE_SIZE]>>,
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
        Arc::make_mut(
            self.pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE])),
        )
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

    /// The in-page offset of the 8-byte word at `addr`, or `None` when
    /// the word straddles two pages.
    fn word_offset(addr: u64) -> Option<usize> {
        let off = (addr & OFFSET_MASK) as usize;
        (off <= PAGE_SIZE - 8).then_some(off)
    }

    /// Reads a little-endian 64-bit word (may straddle pages).
    pub fn read_u64(&self, addr: u64) -> u64 {
        if let Some(off) = Self::word_offset(addr) {
            return self.page(addr).map_or(0, |p| {
                u64::from_le_bytes(p[off..off + 8].try_into().expect("an 8-byte slice"))
            });
        }
        let mut v = 0u64;
        for i in 0..8 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes a little-endian 64-bit word (may straddle pages).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        if let Some(off) = Self::word_offset(addr) {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
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
        assert_eq!(m.pages.len(), 0);
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
        assert_eq!(m.pages.len(), 2);
    }

    #[test]
    fn words_at_page_edges_match_their_bytes() {
        let page = 1u64 << PAGE_SHIFT;
        // The last in-page word, the first straddling one, and one that
        // wraps from the top of the address space to page 0.
        for (addr, pages) in [(page - 8, 1), (page - 7, 2), (u64::MAX - 3, 2)] {
            let mut m = MemImage::new();
            m.write_u64(addr, 0x0102_0304_0506_0708);
            assert_eq!(m.pages.len(), pages, "{addr:#x}");
            assert_eq!(m.read_u64(addr), 0x0102_0304_0506_0708, "{addr:#x}");
            for i in 0..8u64 {
                assert_eq!(
                    m.read_u8(addr.wrapping_add(i)),
                    8 - i as u8,
                    "{addr:#x}+{i}"
                );
            }
        }
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

    /// Whether `a` and `b` hold page `k` in one shared allocation.
    fn shares(a: &MemImage, b: &MemImage, k: u64) -> bool {
        Arc::ptr_eq(&a.pages[&k], &b.pages[&k])
    }

    #[test]
    fn clone_is_independent() {
        let mut a = MemImage::new();
        for k in 0..4u64 {
            a.write_u64(k << PAGE_SHIFT, k + 1);
        }
        let mut b = a.clone();
        assert!((0..4).all(|k| shares(&a, &b, k)), "a clone copied a page");

        // A write to the clone copies only the page it touches...
        b.write_u8(0, 0xaa);
        assert!(!shares(&a, &b, 0));
        assert!((1..4).all(|k| shares(&a, &b, k)));
        assert_eq!(a.read_u64(0), 1);
        assert_eq!(b.read_u8(0), 0xaa);

        // ...and so does a write to the original.
        a.write_u64(2 << PAGE_SHIFT, 0x55);
        assert!(!shares(&a, &b, 2));
        assert!(shares(&a, &b, 1) && shares(&a, &b, 3));
        assert_eq!(b.read_u64(2 << PAGE_SHIFT), 3);
        assert_eq!(a.read_u64(2 << PAGE_SHIFT), 0x55);

        // A page first written after the clone exists on one side only.
        b.write_u8(9 << PAGE_SHIFT, 1);
        assert_eq!(a.read_u8(9 << PAGE_SHIFT), 0);
        assert_eq!((a.pages.len(), b.pages.len()), (4, 5));
    }

    #[test]
    fn an_unshared_page_is_written_in_place() {
        let mut a = MemImage::new();
        a.write_u8(0, 1);
        let before = Arc::as_ptr(&a.pages[&0]);
        a.write_u8(1, 2);
        assert_eq!(Arc::as_ptr(&a.pages[&0]), before);
        // Once the only other holder is gone, writes stop copying too.
        drop(a.clone());
        a.write_u8(2, 3);
        assert_eq!(Arc::as_ptr(&a.pages[&0]), before);
    }
}
