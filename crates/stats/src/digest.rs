//! Content addressing for JSON documents: canonical form and digest.
//!
//! The simulator is deterministic — identical resolved machine specs
//! produce bitwise-identical results — so a result is perfectly cacheable
//! under a key derived from its request. This module provides that key:
//!
//! * [`canonical`] rewrites a [`Json`] value into **canonical form**
//!   (object keys sorted lexicographically at every depth, last duplicate
//!   wins), so two spellings of the same document — a hand-written config
//!   file and a codec round-trip — collapse onto one byte string.
//! * [`digest`] hashes the canonical compact encoding into a 128-bit,
//!   32-hex-character content address with an in-tree mixing hash (the
//!   build is offline, so no external SHA crate; the digest is a cache
//!   key, not a cryptographic commitment).
//!
//! # Examples
//!
//! ```
//! use rmt_stats::json::parse;
//! use rmt_stats::digest::digest;
//!
//! let a = parse(r#"{"b": 1, "a": {"y": 2, "x": 3}}"#).unwrap();
//! let b = parse(r#"{"a": {"x": 3, "y": 2}, "b": 1}"#).unwrap();
//! assert_eq!(digest(&a), digest(&b)); // key order never matters
//!
//! let c = parse(r#"{"a": {"x": 4, "y": 2}, "b": 1}"#).unwrap();
//! assert_ne!(digest(&a), digest(&c)); // any value change does
//! ```

use crate::json::Json;

/// Rewrites `v` into canonical form: object keys sorted lexicographically
/// at every depth (stable sort; on duplicate keys the last occurrence
/// wins, matching [`Json::set`] semantics). Arrays keep their order —
/// element order is data.
pub fn canonical(v: &Json) -> Json {
    match v {
        Json::Obj(fields) => {
            let mut out: Vec<(String, Json)> = Vec::with_capacity(fields.len());
            for (k, val) in fields {
                let cv = canonical(val);
                if let Some(slot) = out.iter_mut().find(|(ok, _)| ok == k) {
                    slot.1 = cv;
                } else {
                    out.push((k.clone(), cv));
                }
            }
            out.sort_by(|(a, _), (b, _)| a.cmp(b));
            Json::Obj(out)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(canonical).collect()),
        other => other.clone(),
    }
}

/// The canonical compact encoding of `v`: [`canonical`] then
/// [`Json::encode`]. This is the byte string [`digest`] hashes.
pub fn canonical_encode(v: &Json) -> String {
    canonical(v).encode()
}

/// SplitMix64's finalizer: a full-avalanche 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hashes a byte string into two 64-bit lanes. Each 8-byte word is mixed
/// into both lanes with different multipliers and cross-fed, and the total
/// length participates in finalization so zero-padded tails cannot collide
/// with genuine trailing zero bytes.
pub fn digest_bytes(bytes: &[u8]) -> [u64; 2] {
    let mut h0: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h1: u64 = 0x6a09_e667_f3bc_c909;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        h0 = mix64(h0 ^ w).wrapping_add(h1.rotate_left(23));
        h1 = mix64(h1 ^ w.wrapping_mul(0xff51_afd7_ed55_8ccd)).wrapping_add(h0.rotate_left(41));
    }
    let len = bytes.len() as u64;
    h0 = mix64(h0 ^ len);
    h1 = mix64(h1 ^ len.wrapping_mul(0xc4ce_b9fe_1a85_ec53) ^ h0);
    [mix64(h0 ^ h1), mix64(h1.wrapping_add(h0.rotate_left(32)))]
}

/// [`digest_bytes`] of `bytes` as 32 lowercase hex characters.
pub fn digest_hex(bytes: &[u8]) -> String {
    let [a, b] = digest_bytes(bytes);
    format!("{a:016x}{b:016x}")
}

/// The 128-bit content address of `v` as 32 lowercase hex characters:
/// [`digest_hex`] of [`canonical_encode`]. Invariant under object-key
/// reordering; sensitive to any value, key-name, or structural change.
pub fn digest(v: &Json) -> String {
    digest_hex(canonical_encode(v).as_bytes())
}

/// True when `s` has the shape [`digest`] produces (32 lowercase hex
/// characters) — the validation servers apply to `/v1/results/<digest>`
/// path segments before touching the cache.
pub fn is_digest(s: &str) -> bool {
    s.len() == 32
        && s.bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn canonical_sorts_keys_at_every_depth() {
        let v = parse(r#"{"z": {"b": 1, "a": 2}, "a": [ {"y": 1, "x": 2} ]}"#).unwrap();
        assert_eq!(
            canonical_encode(&v),
            r#"{"a":[{"x":2,"y":1}],"z":{"a":2,"b":1}}"#
        );
    }

    #[test]
    fn canonical_keeps_array_order() {
        let v = parse(r#"[3, 1, 2]"#).unwrap();
        assert_eq!(canonical_encode(&v), "[3,1,2]");
    }

    #[test]
    fn canonical_last_duplicate_wins() {
        // The strict parsers upstream reject duplicates, but canonical form
        // must still be well-defined for hand-assembled values.
        let v = Json::Obj(vec![("k".into(), Json::U64(1)), ("k".into(), Json::U64(2))]);
        assert_eq!(canonical_encode(&v), r#"{"k":2}"#);
    }

    #[test]
    fn digest_is_stable_and_well_formed() {
        let v = parse(r#"{"spec": {"core": 1}, "benches": ["gcc"]}"#).unwrap();
        let d = digest(&v);
        assert!(is_digest(&d), "{d}");
        assert_eq!(d, digest(&v), "digest must be a pure function");
    }

    #[test]
    fn digest_ignores_key_order_but_not_values() {
        let a = parse(r#"{"x": 1, "y": {"p": true, "q": null}}"#).unwrap();
        let b = parse(r#"{"y": {"q": null, "p": true}, "x": 1}"#).unwrap();
        assert_eq!(digest(&a), digest(&b));
        let c = parse(r#"{"x": 1, "y": {"p": false, "q": null}}"#).unwrap();
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn digest_separates_padding_from_data() {
        // A zero tail byte and a shorter string must not collide through
        // the zero-padded final word.
        let a = digest_bytes(b"abc\0");
        let b = digest_bytes(b"abc");
        assert_ne!(a, b);
        // Same bytes split across the 8-byte word boundary differently.
        assert_ne!(digest_bytes(b"12345678"), digest_bytes(b"1234567"));
    }

    #[test]
    fn is_digest_rejects_other_shapes() {
        assert!(!is_digest(""));
        assert!(!is_digest("abc"));
        assert!(!is_digest(&"a".repeat(33)));
        assert!(!is_digest(&"Z".repeat(32)));
        assert!(!is_digest(&"A".repeat(32)), "uppercase hex is not ours");
        assert!(is_digest("0123456789abcdef0123456789abcdef"));
    }
}
