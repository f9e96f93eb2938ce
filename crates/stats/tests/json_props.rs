//! Property tests for the JSON codec's edge cases: escape-heavy strings,
//! deeply nested documents, and non-finite floats, driven by the in-repo
//! [`rmt_stats::check`] harness. The codec backs every committed artifact
//! and the `--jobs` determinism contract, so round-trip fidelity and
//! encoder determinism are load-bearing, not cosmetic.

use rmt_stats::check::{gen_vec, run_cases, DEFAULT_CASES};
use rmt_stats::json::{parse, write_nested, Json};
use rmt_stats::rng::Xoshiro256;

/// Characters the encoder must escape (or pass through) correctly, biased
/// toward the nasty end: quotes, backslashes, every C0 control character
/// class the encoder distinguishes, multi-byte UTF-8 and astral-plane
/// characters (which exercise the surrogate-pair path when written as
/// `\u` escapes by other producers).
fn gen_string(rng: &mut Xoshiro256) -> String {
    const ALPHABET: &[char] = &[
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0000}',
        '\u{0008}',
        '\u{000c}',
        '\u{001f}',
        '\u{007f}',
        'a',
        'Z',
        '0',
        ' ',
        'é',
        'ß',
        '中',
        '\u{fffd}',
        '\u{10348}',
        '😀',
    ];
    gen_vec(rng, 0, 24, |r| *r.pick(ALPHABET))
        .into_iter()
        .collect()
}

/// A random JSON tree. `fuel` bounds the total node budget so trees stay
/// readable when a case fails; `I64` is only generated negative (the
/// parser canonicalizes non-negative integers to `U64`).
fn gen_tree(rng: &mut Xoshiro256, fuel: &mut u32) -> Json {
    *fuel = fuel.saturating_sub(1);
    let leaf_only = *fuel == 0;
    match rng.below(if leaf_only { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::U64(rng.next_u64()),
        3 => Json::I64(-((rng.next_u64() >> 1).max(1) as i64)),
        4 => Json::F64(rng.next_f64() * 1e6 - 5e5),
        5 => Json::Str(gen_string(rng)),
        6 => Json::Arr(gen_vec(rng, 0, 4, |r| gen_tree(r, fuel))),
        _ => Json::Obj(
            gen_vec(rng, 0, 4, |r| (gen_string(r), gen_tree(r, fuel)))
                .into_iter()
                .collect(),
        ),
    }
}

#[test]
fn random_trees_round_trip_exactly() {
    run_cases("tree round-trip", DEFAULT_CASES, 0x7ee5, |rng| {
        let tree = gen_tree(rng, &mut 40);
        let compact = parse(&tree.encode()).expect("compact encoding must parse");
        assert_eq!(compact, tree, "compact round trip must be lossless");
        let pretty = parse(&tree.encode_pretty()).expect("pretty encoding must parse");
        assert_eq!(pretty, tree, "pretty round trip must be lossless");
    });
}

#[test]
fn escape_heavy_strings_round_trip_exactly() {
    run_cases("string escapes", DEFAULT_CASES, 0xe5c, |rng| {
        let s = gen_string(rng);
        let encoded = Json::Str(s.clone()).encode();
        // Everything below U+0020 must leave the document as an escape —
        // raw control bytes inside a string are invalid JSON.
        for b in encoded.as_bytes()[1..encoded.len() - 1].iter() {
            assert!(*b >= 0x20, "raw control byte {b:#04x} in {encoded}");
        }
        assert_eq!(parse(&encoded), Ok(Json::Str(s)));
    });
}

#[test]
fn unicode_escapes_parse_to_the_same_string_as_literals() {
    // `\u`-escaped text (including a surrogate pair for the astral plane)
    // must decode to the identical tree as the literal characters the
    // encoder emits.
    let escaped = r#""é 中 𐍈 ""#;
    let literal = Json::Str("é 中 \u{10348} \u{001f}".into());
    assert_eq!(parse(escaped), Ok(literal.clone()));
    assert_eq!(parse(&literal.encode()), Ok(literal));
}

#[test]
fn deeply_nested_documents_round_trip() {
    run_cases("deep nesting", DEFAULT_CASES, 0xdee9, |rng| {
        // Alternate arrays and single-key objects down to a random depth;
        // the parser is recursive, so this bounds its practical headroom.
        let depth = rng.range(1, 192);
        let mut doc = Json::U64(rng.next_u64());
        for level in 0..depth {
            doc = if level % 2 == 0 {
                Json::Arr(vec![doc])
            } else {
                Json::Obj(vec![("k".into(), doc)])
            };
        }
        assert_eq!(parse(&doc.encode()), Ok(doc.clone()));
        assert_eq!(parse(&doc.encode_pretty()), Ok(doc));
    });
}

#[test]
fn non_finite_floats_encode_as_null_deterministically() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::F64(v).encode(), "null");
        assert_eq!(Json::F64(v).encode_pretty(), "null\n");
        assert_eq!(parse(&Json::F64(v).encode()), Ok(Json::Null));
    }
    // Embedded in a document the substitution is positional, not global.
    let doc = Json::Arr(vec![Json::F64(f64::NAN), Json::F64(1.5)]);
    assert_eq!(doc.encode(), "[null,1.5]");
    run_cases("non-finite from arithmetic", DEFAULT_CASES, 0xf1f, |rng| {
        // Non-finite values produced by arithmetic (0/0, overflow, log of
        // a negative) must hit the same deterministic null path.
        let x = rng.next_f64() - 0.5;
        for bad in [
            0.0 * (x / 0.0),
            f64::MAX * 2.0 * x.signum(),
            (-x.abs() - 1.0).ln(),
        ] {
            assert!(!bad.is_finite());
            assert_eq!(Json::F64(bad).encode(), "null");
        }
    });
}

/// Stands in for the nested document while the wrapper is encoded.
const PLACEHOLDER: &str = "\u{1}nested";

/// `inner` inside `depth` levels of objects and arrays, each with
/// siblings before and after it.
fn wrap(depth: usize, inner: Json) -> Json {
    (0..depth).fold(inner, |inner, level| {
        if level % 2 == 0 {
            Json::obj()
                .with("before", Json::U64(level as u64))
                .with("doc", inner)
                .with("after", Json::Arr(vec![Json::Bool(true)]))
        } else {
            Json::Arr(vec![Json::obj(), inner, Json::Str("after".into())])
        }
    })
}

/// Splices `pretty`, a document's `encode_pretty` text, into a wrapper at
/// `depth` with [`write_nested`], and checks that the result is
/// `encode_pretty` of the wrapper holding the parsed document: the way
/// `rmt-serve` writes a hit envelope around the stored result text.
fn assert_nests(pretty: &str, depth: usize) {
    let doc = parse(pretty).expect("encoder text parses");
    let expected = wrap(depth, doc).encode_pretty();
    let frame = wrap(depth, Json::Str(PLACEHOLDER.into())).encode_pretty();
    let (before, after) = frame
        .split_once(&Json::Str(PLACEHOLDER.into()).encode())
        .expect("the frame holds the placeholder");
    let mut spliced = before.to_string();
    write_nested(pretty, depth, &mut spliced);
    spliced.push_str(after);
    assert_eq!(spliced, expected, "depth {depth}");
}

#[test]
fn committed_documents_nest_as_the_encoder_writes_them() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut seen = 0;
    for dir in ["results", "requests", "sweeps"] {
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
            .expect("committed directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path).expect("committed file");
            let doc = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for depth in [1, 2, 5] {
                assert_nests(&doc.encode_pretty(), depth);
            }
            seen += 1;
        }
    }
    assert!(seen >= 10, "found only {seen} committed documents");
}

#[test]
fn edge_values_nest_as_the_encoder_writes_them() {
    let edges = Json::obj()
        .with("neg_zero", Json::F64(-0.0))
        .with("big", Json::F64(1e21))
        .with("subnormal", Json::F64(5e-324))
        .with("max", Json::F64(f64::MAX))
        .with("nan", Json::F64(f64::NAN))
        .with(
            "ints",
            Json::Arr(vec![Json::U64(u64::MAX), Json::I64(i64::MIN)]),
        )
        .with(
            "text",
            Json::Str("tab\t nl\n cr\r quote\" back\\ nul\u{0} del\u{7f} é 中 😀".into()),
        )
        .with("empty_arr", Json::Arr(vec![]))
        .with("empty_obj", Json::obj())
        .with("empties", Json::Arr(vec![Json::Arr(vec![]), Json::obj()]))
        .with("esc\"aped\nkey", Json::Null);
    for depth in 0..4 {
        assert_nests(&edges.encode_pretty(), depth);
    }
    for scalar in [Json::Null, Json::F64(-0.0), Json::Str("\n".into())] {
        assert_nests(&scalar.encode_pretty(), 2);
    }
}

#[test]
fn seeded_documents_nest_as_the_encoder_writes_them() {
    run_cases("nesting", DEFAULT_CASES, 0x5b1ce, |rng| {
        let tree = if rng.chance(0.5) {
            gen_tree(rng, &mut 40)
        } else {
            // Deep nesting: alternating arrays and objects.
            let mut doc = Json::Str(gen_string(rng));
            for level in 0..rng.range(1, 64) {
                doc = if level % 2 == 0 {
                    Json::Arr(vec![doc, Json::Arr(vec![])])
                } else {
                    Json::Obj(vec![(gen_string(rng), doc)])
                };
            }
            doc
        };
        let depth = rng.range(0, 6) as usize;
        assert_nests(&tree.encode_pretty(), depth);
    });
}
