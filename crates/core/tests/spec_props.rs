//! Property tests for the [`MachineSpec`] JSON codec on the in-repo
//! `rmt_stats::check` harness: randomly perturbed specs must round-trip
//! bitwise through the document form, and the strict reader must reject
//! unknown keys, missing keys and type mismatches — naming the offending
//! dotted path — no matter where in the document the damage lands.

use rmt_core::{DeviceKind, MachineSpec};
use rmt_stats::check::run_cases;
use rmt_stats::rng::Xoshiro256;
use rmt_stats::Json;

const KINDS: [DeviceKind; 10] = [
    DeviceKind::Base,
    DeviceKind::Base2,
    DeviceKind::Srt,
    DeviceKind::SrtPtsq,
    DeviceKind::SrtNosc,
    DeviceKind::SrtNoPsr,
    DeviceKind::Lock0,
    DeviceKind::Lock8,
    DeviceKind::Crt,
    DeviceKind::CrtRing4,
];

/// Key paths a case may perturb, with the generator for a valid value.
/// Spread across all six sections so round-trips cover non-default
/// nested fields everywhere, not just the common core knobs.
fn mutate(spec: &mut MachineSpec, rng: &mut Xoshiro256) {
    let n = rng.range(1, 8);
    for _ in 0..n {
        let (path, value) = match rng.below(12) {
            0 => ("core.sq_entries", Json::U64(rng.range(1, 512))),
            1 => ("core.iq_size", Json::U64(rng.range(8, 256))),
            2 => ("core.chunk_size", Json::U64(rng.range(1, 8))),
            3 => (
                "core.preferential_space_redundancy",
                Json::Bool(rng.chance(0.5)),
            ),
            4 => ("hierarchy.l1d.assoc", Json::U64(1 << rng.below(4))),
            5 => ("hierarchy.mem_latency", Json::U64(rng.range(10, 500))),
            6 => ("predictor.local_history_bits", Json::U64(rng.range(4, 16))),
            7 => ("env.lvq_entries", Json::U64(rng.range(1, 256))),
            8 => ("env.cross_core_delay", Json::U64(rng.below(64))),
            9 => ("scheme.checker_latency", Json::U64(rng.below(32))),
            10 => ("sample.windows", Json::U64(rng.range(1, 64))),
            _ => ("sample.mode_seed", Json::U64(rng.next_u64() >> 1)),
        };
        spec.set(path, value).expect("valid mutation");
    }
}

fn random_spec(rng: &mut Xoshiro256) -> MachineSpec {
    let mut spec = MachineSpec::for_kind(*rng.pick(&KINDS));
    mutate(&mut spec, rng);
    spec
}

/// A uniformly chosen `(section, key)` leaf of the document; `None`
/// section index means the top level.
fn pick_leaf(doc: &Json, rng: &mut Xoshiro256) -> (String, String) {
    let sections = doc.members().expect("spec doc is an object");
    let (section, body) = &sections[rng.below(sections.len() as u64) as usize];
    let keys = body.members().expect("section is an object");
    let (key, _) = &keys[rng.below(keys.len() as u64) as usize];
    (section.clone(), key.clone())
}

#[test]
fn spec_round_trips_bitwise_through_json() {
    run_cases("spec round-trips bitwise", 128, 0x5bec, |rng| {
        let spec = random_spec(rng);
        let doc = spec.to_json();
        let back = MachineSpec::from_json(&doc).expect("own document validates");
        assert_eq!(back, spec, "decode(encode(spec)) must be identity");
        assert_eq!(
            back.to_json().encode(),
            doc.encode(),
            "re-encode must be bitwise stable"
        );
    });
}

#[test]
fn unknown_keys_are_rejected_wherever_they_land() {
    run_cases("unknown keys are rejected", 64, 0xbadc0de, |rng| {
        let mut doc = random_spec(rng).to_json();
        let bogus = format!("bogus_{}", rng.below(1000));
        let path = if rng.chance(0.25) {
            doc.set(&bogus, Json::U64(1));
            bogus.clone()
        } else {
            let sections = doc.members().expect("object");
            let (section, _) = &sections[rng.below(sections.len() as u64) as usize];
            let section = section.clone();
            doc.get_mut(&section)
                .expect("picked from members")
                .set(&bogus, Json::U64(1));
            format!("{section}.{bogus}")
        };
        let err = MachineSpec::from_json(&doc).expect_err("unknown key must fail");
        assert!(
            err.to_string().contains(&path),
            "error `{err}` must name `{path}`"
        );
    });
}

#[test]
fn missing_keys_and_type_mismatches_name_the_path() {
    run_cases("damaged leaves name their path", 64, 0xdead, |rng| {
        let doc = random_spec(rng).to_json();
        let (section, key) = pick_leaf(&doc, rng);
        let mut damaged = Json::obj();
        if rng.chance(0.5) {
            // Drop the leaf entirely.
            for (s, body) in doc.members().expect("object") {
                if *s != section {
                    damaged.set(s, body.clone());
                    continue;
                }
                let mut rebuilt = Json::obj();
                for (k, v) in body.members().expect("section object") {
                    if *k != key {
                        rebuilt.set(k, v.clone());
                    }
                }
                damaged.set(s, rebuilt);
            }
        } else {
            // Replace the leaf with a wrongly-typed value. An object is
            // the wrong type for every leaf the codec reads (including
            // the stringly-typed scheme.kind and sample.mode).
            damaged = doc.clone();
            damaged
                .get_mut(&section)
                .expect("picked from members")
                .set(&key, Json::obj());
        }
        let err = MachineSpec::from_json(&damaged).expect_err("damage must fail");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("{section}.{key}")) || msg.contains(&section),
            "error `{msg}` must point at `{section}.{key}`"
        );
    });
}
