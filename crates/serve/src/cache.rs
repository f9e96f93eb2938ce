//! Two-tier content-addressed result cache.
//!
//! Results are keyed by the request digest ([`rmt_sim::ServiceRequest`]'s
//! canonical-JSON content address). The simulator is deterministic, so one
//! digest maps to exactly one result document forever — there is no
//! invalidation, only capacity eviction.
//!
//! * **Memory tier** — shared document text (`Arc<str>`) in an `Lru`
//!   capped at a document count, so a memory hit and a promotion copy
//!   nothing. It holds only documents that were put or read back
//!   verified.
//! * **Disk tier** — `dir/<d[0..2]>/<digest>.json`, written atomically
//!   (temp file + rename) and never evicted. An entry is one header line,
//!   `rmt-cache/1 <checksum>`, then the document: the checksum is
//!   [`rmt_stats::digest::digest_hex`] of the document bytes, and every
//!   read checks it. An entry that fails the check (a flipped byte, a
//!   torn write, or an entry from a daemon that wrote no header) is
//!   renamed aside to `<digest>.json.corrupt`, counted, and reported as a
//!   miss, so the daemon computes the result again and its `put` writes a
//!   fresh entry. A memory miss that hits disk promotes the document.
//!
//! [`ResultCache::get`] returns the stored document text, never
//! re-encoded, so a served result is bitwise identical on every hit —
//! the byte contract `scripts/ci.sh` asserts with `cmp`.

use rmt_stats::digest::digest_hex;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::hash::Hash;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a disk entry's header line starts with; the document's checksum
/// follows after one space.
const ENTRY_TAG: &str = "rmt-cache/1";

/// Hit/miss/eviction counts, snapshotted for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memory tier.
    pub mem_hits: u64,
    /// Lookups answered from the disk tier (after a memory miss).
    pub disk_hits: u64,
    /// Lookups neither tier could answer (corrupt entries included).
    pub misses: u64,
    /// Memory-tier entries dropped to stay under the capacity cap.
    pub evictions: u64,
    /// Disk entries that failed their checksum and were moved aside.
    pub corrupt: u64,
}

/// A map of at most `cap` entries that evicts the least recently used
/// one. Every `get` and `insert` stamps its entry from a counter and
/// `order` maps each live stamp back to its key, so the oldest entry is
/// the first of `order` and eviction scans nothing.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    cap: usize,
    clock: u64,
    entries: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty map holding at most `cap` entries (`0` holds none).
    pub(crate) fn new(cap: usize) -> Lru<K, V> {
        Lru {
            cap,
            clock: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// The value under `key`, which becomes the most recently used.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (value, stamp) = self.entries.get_mut(key)?;
        self.clock += 1;
        let old = std::mem::replace(stamp, self.clock);
        let key = self.order.remove(&old).expect("every entry has a stamp");
        self.order.insert(self.clock, key);
        Some(value.clone())
    }

    /// Inserts or replaces `key` as the most recently used entry, then
    /// evicts down to the cap; returns how many entries it evicted.
    pub(crate) fn insert(&mut self, key: K, value: V) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        self.clock += 1;
        if let Some((_, old)) = self.entries.insert(key.clone(), (value, self.clock)) {
            self.order.remove(&old);
        }
        self.order.insert(self.clock, key);
        let mut evicted = 0;
        while self.entries.len() > self.cap {
            let (_, oldest) = self.order.pop_first().expect("an over-cap map has entries");
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Entries held now.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The document of a disk entry whose header checksum matches it.
fn verified(entry: &[u8]) -> Option<Arc<str>> {
    let split = entry.iter().position(|&b| b == b'\n')?;
    let (header, doc) = (&entry[..split], &entry[split + 1..]);
    let sum = header
        .strip_prefix(ENTRY_TAG.as_bytes())?
        .strip_prefix(b" ")?;
    if sum != digest_hex(doc).as_bytes() {
        return None;
    }
    std::str::from_utf8(doc).ok().map(Arc::from)
}

/// The cache. All methods take `&self`; the memory tier is behind a mutex
/// and the counters are atomics, so worker threads and connection threads
/// share one instance.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    mem: Mutex<Lru<String, Arc<str>>>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the disk tier under `dir`, with at most
    /// `mem_cap` documents held in memory (`0` disables the memory tier).
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn new(dir: &Path, mem_cap: usize) -> std::io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            mem: Mutex::new(Lru::new(mem_cap)),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        })
    }

    /// `dir/<first two hex chars>/<digest>.json` — a two-level fan-out so
    /// a long-lived cache does not pile thousands of files in one
    /// directory.
    fn path_for(&self, digest: &str) -> PathBuf {
        let shard = digest.get(..2).unwrap_or("xx");
        self.dir.join(shard).join(format!("{digest}.json"))
    }

    /// Looks `digest` up, memory first, then disk (promoting a verified
    /// disk hit into memory). Returns the stored document text verbatim.
    /// A disk entry that fails its checksum is moved aside and answers as
    /// a miss; a [`ResultCache::put`] racing that rename can be moved
    /// aside too, which costs one recomputation, never a wrong answer.
    pub fn get(&self, digest: &str) -> Option<Arc<str>> {
        if let Some(text) = self.mem.lock().expect("cache mutex poisoned").get(digest) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some(text);
        }
        let path = self.path_for(digest);
        let Ok(entry) = fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match verified(&entry) {
            Some(text) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.insert_mem(digest, Arc::clone(&text));
                Some(text)
            }
            None => {
                let _ = fs::rename(&path, path.with_extension("json.corrupt"));
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `text` under `digest` in both tiers. The disk write is
    /// atomic (unique temp file, then rename), so a concurrent reader
    /// sees either nothing or the whole entry — and because the
    /// simulator is deterministic, two racing writers write identical
    /// bytes and either rename winning is correct.
    ///
    /// # Errors
    ///
    /// Propagates disk I/O failures (the memory tier is still updated, so
    /// a full disk degrades the cache instead of losing the result).
    pub fn put(&self, digest: &str, text: &str) -> std::io::Result<()> {
        self.insert_mem(digest, Arc::from(text));
        let path = self.path_for(digest);
        let dir = path.parent().expect("shard path has a parent");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(".{digest}.{}.tmp", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            let header = format!("{ENTRY_TAG} {}\n", digest_hex(text.as_bytes()));
            f.write_all(header.as_bytes())?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)
    }

    fn insert_mem(&self, digest: &str, text: Arc<str>) {
        let evicted = self
            .mem
            .lock()
            .expect("cache mutex poisoned")
            .insert(digest.to_string(), text);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Number of documents currently in the memory tier.
    pub fn mem_len(&self) -> usize {
        self.mem.lock().expect("cache mutex poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rmt-cache-test-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn put_then_get_returns_identical_text() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::new(&dir, 4).unwrap();
        assert_eq!(cache.get("00ff"), None);
        cache.put("00ff", "{\n  \"x\": 1\n}").unwrap();
        assert_eq!(cache.get("00ff").as_deref(), Some("{\n  \"x\": 1\n}"));
        let s = cache.stats();
        assert_eq!((s.misses, s.mem_hits), (1, 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache_and_promotes() {
        let dir = temp_dir("disk");
        ResultCache::new(&dir, 4)
            .unwrap()
            .put("ab12", "doc")
            .unwrap();
        let fresh = ResultCache::new(&dir, 4).unwrap();
        assert_eq!(fresh.get("ab12").as_deref(), Some("doc"));
        assert_eq!(fresh.stats().disk_hits, 1);
        // Promoted: the second lookup is a memory hit.
        assert_eq!(fresh.get("ab12").as_deref(), Some("doc"));
        assert_eq!(fresh.stats().mem_hits, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_tier_evicts_least_recently_used() {
        let dir = temp_dir("lru");
        let cache = ResultCache::new(&dir, 2).unwrap();
        cache.put("aa00", "a").unwrap();
        cache.put("bb00", "b").unwrap();
        cache.get("aa00"); // refresh aa00 so bb00 is the LRU entry
        cache.put("cc00", "c").unwrap();
        assert_eq!(cache.mem_len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted document still answers from disk.
        assert_eq!(cache.get("bb00").as_deref(), Some("b"));
        assert_eq!(cache.stats().disk_hits, 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// Many more touches than entries: each eviction still takes the
    /// entry touched longest ago, whatever order the touches came in.
    #[test]
    fn eviction_follows_the_last_touch_through_many_touches() {
        let mut lru = Lru::new(3);
        for k in ["a", "b", "c"] {
            lru.insert(k.to_string(), k.len());
        }
        for _ in 0..10 {
            for k in ["c", "a", "b", "a", "c"] {
                assert!(lru.get(k).is_some());
            }
        }
        // Last touches: b, then a, then c.
        assert_eq!(lru.insert("d".to_string(), 1), 1);
        assert!(lru.get("b").is_none(), "b was touched longest ago");
        assert_eq!(lru.insert("e".to_string(), 1), 1);
        assert!(lru.get("a").is_none(), "then a");
        assert!(lru.get("c").is_some() && lru.get("d").is_some() && lru.get("e").is_some());
        // Replacing a key refreshes it without evicting.
        assert_eq!(lru.insert("c".to_string(), 2), 0);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get("c"), Some(2));
    }

    #[test]
    fn zero_capacity_disables_the_memory_tier() {
        let dir = temp_dir("nomem");
        let cache = ResultCache::new(&dir, 0).unwrap();
        cache.put("dd00", "d").unwrap();
        assert_eq!(cache.mem_len(), 0);
        assert_eq!(cache.get("dd00").as_deref(), Some("d"));
        assert_eq!(cache.stats().disk_hits, 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// A flipped byte, a missing header and a truncated entry are each a
    /// miss that moves the entry aside; a fresh put then reads back.
    #[test]
    fn an_entry_that_fails_its_checksum_is_a_miss_and_moves_aside() {
        let dir = temp_dir("corrupt");
        let doc = "{\n  \"x\": 1\n}\n\n";
        let digest = "ee00";
        let path = dir.join("ee").join("ee00.json");
        let spoil: [fn(Vec<u8>) -> Vec<u8>; 3] = [
            |mut b| {
                let mid = b.len() / 2;
                b[mid] ^= 0x01;
                b
            },
            |b| b[b.iter().position(|&c| c == b'\n').unwrap() + 1..].to_vec(),
            |b| b[..b.len() - 1].to_vec(),
        ];
        for (n, spoil) in spoil.into_iter().enumerate() {
            ResultCache::new(&dir, 0).unwrap().put(digest, doc).unwrap();
            fs::write(&path, spoil(fs::read(&path).unwrap())).unwrap();
            let fresh = ResultCache::new(&dir, 4).unwrap();
            assert_eq!(fresh.get(digest), None, "case {n}");
            let s = fresh.stats();
            assert_eq!((s.corrupt, s.misses, s.disk_hits), (1, 1, 0), "case {n}");
            assert_eq!(fresh.mem_len(), 0, "case {n}: nothing unverified in memory");
            assert!(!path.exists(), "case {n}");
            assert!(
                dir.join("ee").join("ee00.json.corrupt").exists(),
                "case {n}"
            );
            fresh.put(digest, doc).unwrap();
            let reread = ResultCache::new(&dir, 4).unwrap();
            assert_eq!(reread.get(digest).as_deref(), Some(doc), "case {n}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
