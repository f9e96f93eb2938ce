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
//! first write to a shared page copies it. Installing an image into a
//! machine therefore copies nothing until the machine stores. The pages
//! are reference-counted atomically because runner threads share
//! checkpoint ladders.
//!
//! A sampled run's checkpoint ladder keeps its first image whole and
//! every later one as a [`MemDelta`]: [`MemImage::delta_since`] records
//! the words a descendant image changed in the pages it no longer
//! shares, and [`MemImage::patch`] moves the older image forward to it.

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

    /// Writes `words` as consecutive little-endian 64-bit words from
    /// `addr` on, looking each page up once.
    ///
    /// ```
    /// use rmt_isa::MemImage;
    ///
    /// let mut m = MemImage::new();
    /// m.write_words(0xff8, &[1, 2, 3]); // crosses into the next page
    /// assert_eq!(m.read_u64(0x1008), 3);
    /// ```
    pub fn write_words(&mut self, mut addr: u64, mut words: &[u64]) {
        while let Some((&first, rest)) = words.split_first() {
            let off = (addr & OFFSET_MASK) as usize;
            let n = ((PAGE_SIZE - off) / 8).min(words.len());
            if n == 0 {
                // The next word straddles two pages.
                self.write_u64(addr, first);
                (addr, words) = (addr.wrapping_add(8), rest);
                continue;
            }
            let page = self.page_mut(addr);
            for (dst, w) in page[off..].chunks_exact_mut(8).zip(&words[..n]) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
            (addr, words) = (addr.wrapping_add(8 * n as u64), &words[n..]);
        }
    }

    /// What this image changed since `older`, the image it descends
    /// from: for each page it no longer shares with `older` (it wrote
    /// the page since, or first wrote it), the 8-byte words that differ.
    ///
    /// Only unshared pages are compared, so the cost is that of the
    /// pages written since. A page `older` does not hold is recorded
    /// even if every word of it is zero, so [`patch`](Self::patch)
    /// reproduces the page set too; a rewritten page whose bytes came
    /// back unchanged is not recorded.
    ///
    /// ```
    /// use rmt_isa::MemImage;
    ///
    /// let mut m = MemImage::new();
    /// m.write_u64(0x1000, 1);
    /// let older = m.clone();
    /// m.write_u64(0x1008, 2);
    /// m.write_u8(0x9000, 0);
    ///
    /// let mut forward = older.clone();
    /// forward.patch(&m.delta_since(&older));
    /// assert_eq!(forward, m);
    /// ```
    ///
    /// # Panics
    ///
    /// Debug builds panic if `older` holds a page this image does not:
    /// images never drop pages, so it is not this image's ancestor.
    pub fn delta_since(&self, older: &MemImage) -> MemDelta {
        debug_assert!(
            older.pages.keys().all(|k| self.pages.contains_key(k)),
            "delta_since: `older` holds a page this image dropped"
        );
        let mut keys: Vec<u64> = self
            .pages
            .iter()
            .filter(|(k, p)| older.pages.get(k).is_none_or(|o| !Arc::ptr_eq(o, p)))
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        let zero = [0u8; PAGE_SIZE];
        let mut delta = MemDelta::default();
        for k in keys {
            let old = older.pages.get(&k);
            let start = delta.words.len();
            let words = self.pages[&k].chunks_exact(8);
            for (i, (n, o)) in words
                .zip(old.map_or(&zero, |o| &**o).chunks_exact(8))
                .enumerate()
            {
                if n != o {
                    delta.offsets.push(i as u16);
                    delta
                        .words
                        .push(u64::from_le_bytes(n.try_into().expect("an 8-byte chunk")));
                }
            }
            if old.is_none() || delta.words.len() > start {
                delta.pages.push((k, delta.words.len() as u32));
            }
        }
        delta.pages.shrink_to_fit();
        delta.offsets.shrink_to_fit();
        delta.words.shrink_to_fit();
        delta
    }

    /// Moves this image forward by `delta`: applied to the `older` image
    /// of [`delta_since`](Self::delta_since), it yields the image the
    /// delta was taken from. Each page the delta touches is looked up
    /// once, and copied only if this image shares it.
    pub fn patch(&mut self, delta: &MemDelta) {
        let mut start = 0;
        for &(k, end) in &delta.pages {
            let end = end as usize;
            let page = self.page_mut(k << PAGE_SHIFT);
            for (&i, w) in delta.offsets[start..end]
                .iter()
                .zip(&delta.words[start..end])
            {
                let off = usize::from(i) * 8;
                page[off..off + 8].copy_from_slice(&w.to_le_bytes());
            }
            start = end;
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

/// The words one [`MemImage`] changed since an older one it descends
/// from, page by page (see [`MemImage::delta_since`] and
/// [`MemImage::patch`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// Changed pages in ascending order, each with the end of its words
    /// in `offsets` and `words`.
    pages: Vec<(u64, u32)>,
    /// Each changed word's index within its page.
    offsets: Vec<u16>,
    /// Each changed word's new value.
    words: Vec<u64>,
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
    fn write_words_matches_word_by_word_writes() {
        let page = 1u64 << PAGE_SHIFT;
        let words: Vec<u64> = (1..=1_100).map(|i| i * 0x0101_0101).collect();
        // Page-aligned, mid-page, unaligned (every page edge straddled),
        // and wrapping from the top of the address space to page 0.
        for addr in [page, page + 8, 3 * page - 16, page + 3, u64::MAX - 999] {
            for n in [0, 1, 511, 512, 513, words.len()] {
                let mut each = MemImage::new();
                for (i, &w) in words[..n].iter().enumerate() {
                    each.write_u64(addr.wrapping_add(8 * i as u64), w);
                }
                let mut at_once = MemImage::new();
                at_once.write_words(addr, &words[..n]);
                assert_eq!(at_once, each, "{addr:#x} x{n}");
            }
        }
    }

    /// Checks that patching `older` by `new`'s delta gives `new`, and
    /// returns the delta.
    fn patched(older: &MemImage, new: &MemImage) -> MemDelta {
        let delta = new.delta_since(older);
        let mut forward = older.clone();
        forward.patch(&delta);
        assert_eq!(&forward, new);
        assert_eq!(forward.digest(), new.digest());
        delta
    }

    #[test]
    fn a_delta_holds_only_the_changed_words_of_unshared_pages() {
        let mut a = MemImage::new();
        a.write_words(0, &[7; 1024]); // pages 0 and 1
        let older = a.clone();
        a.write_u64(8, 9); // one word of page 0
        a.write_u64(PAGE_SIZE as u64, 7); // page 1 rewritten, unchanged
        a.write_u8(5 << PAGE_SHIFT, 0); // page 5 first written, all zero
        let d = patched(&older, &a);
        assert_eq!(d.pages, [(0, 1), (5, 1)]);
        assert_eq!((d.offsets, d.words), (vec![1], vec![9]));
        // Nothing written since: an empty delta.
        assert_eq!(patched(&a, &a.clone()), MemDelta::default());
    }

    #[test]
    fn patching_forward_reproduces_every_generation() {
        use rmt_stats::Xoshiro256;
        for seed in 0..16 {
            let mut rng = Xoshiro256::seed_from(seed);
            let mut m = MemImage::new();
            let mut older = m.clone();
            let mut cursor = MemImage::new();
            for _ in 0..12 {
                for _ in 0..rng.below(200) {
                    // Few pages, so pages are rewritten and sometimes
                    // restored; some words straddle pages.
                    let addr = rng.below(8 << PAGE_SHIFT);
                    let v = if rng.chance(0.3) { 0 } else { rng.next_u64() };
                    match rng.below(3) {
                        0 => m.write_u8(addr, v as u8),
                        1 => m.write_u64(addr, v),
                        _ => m.write_u64(addr & !7, older.read_u64(addr & !7)),
                    }
                }
                cursor.patch(&patched(&older, &m));
                assert_eq!(cursor, m);
                older = m.clone();
            }
        }
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
