//! The strict JSON codec behind [`MachineSpec`]: every field of every
//! section is serialized, and deserialization demands exactly that set of
//! keys — a missing key, an unknown key, a type mismatch or a value the
//! machine cannot be built with is an error naming the dotted path.
//! Strictness is what lets `check_json` treat an embedded `config`
//! section as self-validating and lets [`MachineSpec::set`] type-check
//! overrides by round-tripping.
//!
//! Each section's keys are listed once, in document order, with the
//! values a machine can be built with, by [`walk`]: encoding and decoding
//! are two [`Walk`]s over it, and only the decoder checks.

use super::{DeviceKind, MachineSpec, SampleMode, SamplePlan, SchemeSpec, SpecError};
use crate::rmt_env::RmtEnvConfig;
use rmt_mem::{CacheConfig, HierarchyConfig};
use rmt_pipeline::CoreConfig;
use rmt_predict::BranchPredictorConfig;
use rmt_stats::fields::{FieldError, Fields, OBJECT};
use rmt_stats::Json;
use std::fmt;
use std::ops::{Bound, RangeBounds};

// Upper bounds on the counts that size a buffer when a machine is built,
// so that no spec asks for more memory than a host has: a spec at every
// bound at once (an 8-core ring of 16-context cores) allocates about
// 420 MB.
const MAX_THREADS: usize = 16;
/// Queue, buffer and port entries.
const MAX_QUEUE: usize = 4_096;
/// Units in each functional-unit pool.
const MAX_FUS: usize = 64;
/// Predictor and store-set table entries.
const MAX_TABLE: usize = 1 << 18;
const MAX_CACHE_BYTES: u64 = 1 << 24;
const MAX_CACHE_BLOCKS: u64 = 1 << 17;
const MAX_ASSOC: usize = 256;
const MAX_RING: usize = 8;
const MAX_WINDOWS: usize = 4_096;

impl From<FieldError> for SpecError {
    fn from(e: FieldError) -> SpecError {
        SpecError::new(match e {
            FieldError::Missing(path) => format!("missing config key `{path}`"),
            FieldError::Unknown(path) => format!("unknown config key `{path}`"),
            FieldError::Type { path, want: OBJECT } => {
                format!("config section `{path}` must be a JSON object")
            }
            other => other.to_string(),
        })
    }
}

/// The unsigned integer types spec leaves hold, each read by the
/// reader's getter of the same name.
trait Int: Copy + PartialOrd + fmt::Display {
    fn read(f: &mut Fields, key: &str) -> Result<Self, FieldError>;
    fn to_u64(self) -> u64;
}

macro_rules! int {
    ($($t:ident),*) => {$(
        impl Int for $t {
            fn read(f: &mut Fields, key: &str) -> Result<$t, FieldError> {
                f.$t(key)
            }
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}

int!(u64, u32, usize);

/// What a value outside `ok` must be instead.
fn bounds_rule<T: fmt::Display>(ok: &impl RangeBounds<T>) -> String {
    match (ok.start_bound(), ok.end_bound()) {
        (Bound::Included(lo), Bound::Included(hi)) => format!("must be in {lo}..={hi}"),
        (Bound::Included(lo), _) => format!("must be at least {lo}"),
        (_, Bound::Included(hi)) => format!("must be at most {hi}"),
        _ => unreachable!("every value lies in an unbounded range"),
    }
}

type Step = Result<(), FieldError>;

/// One pass over a spec's leaves in document order: the encoder writes
/// each into a document, the decoder reads each through the strict
/// reader and checks it.
enum Walk<'a> {
    Encode(Vec<(String, Json)>),
    Decode(Fields<'a>),
}

impl<'a> Walk<'a> {
    /// An integer leaf the decoder refuses outside `ok`.
    fn within<T: Int>(&mut self, key: &str, v: &mut T, ok: impl RangeBounds<T>) -> Step {
        match self {
            Walk::Encode(doc) => doc.push((key.to_string(), Json::U64(v.to_u64()))),
            Walk::Decode(f) => {
                let n = T::read(f, key)?;
                if !ok.contains(&n) {
                    return Err(f.invalid(key, bounds_rule(&ok)));
                }
                *v = n;
            }
        }
        Ok(())
    }

    /// An integer leaf that takes any value.
    fn int<T: Int>(&mut self, key: &str, v: &mut T) -> Step {
        self.within(key, v, ..)
    }

    fn bool(&mut self, key: &str, v: &mut bool) -> Step {
        match self {
            Walk::Encode(doc) => doc.push((key.to_string(), Json::Bool(*v))),
            Walk::Decode(f) => *v = f.bool(key)?,
        }
        Ok(())
    }

    /// A leaf written as `name_of(*v)`, one of the names of `all`.
    fn name<T: Copy>(
        &mut self,
        key: &str,
        v: &mut T,
        what: &str,
        all: &[T],
        name_of: fn(T) -> &'static str,
    ) -> Step {
        match self {
            Walk::Encode(doc) => doc.push((key.to_string(), Json::Str(name_of(*v).to_string()))),
            Walk::Decode(f) => {
                let got = f.str(key)?;
                let Some(&t) = all.iter().find(|&&t| name_of(t) == got) else {
                    let names: Vec<&str> = all.iter().map(|&t| name_of(t)).collect();
                    let names = names.join(", ");
                    let rule = format!("names an unknown {what} `{got}` (one of: {names})");
                    return Err(f.invalid(key, rule));
                };
                *v = t;
            }
        }
        Ok(())
    }

    /// A rule over leaves already walked, which the decoder checks.
    fn rule(&mut self, key: &str, holds: impl FnOnce() -> bool, rule: impl fmt::Display) -> Step {
        match self {
            Walk::Decode(f) if !holds() => Err(f.invalid(key, rule.to_string())),
            _ => Ok(()),
        }
    }

    fn section(&mut self, key: &str, body: impl FnOnce(&mut Walk<'a>) -> Step) -> Step {
        let mut inner = match self {
            Walk::Encode(_) => Walk::Encode(Vec::new()),
            Walk::Decode(f) => Walk::Decode(f.object(key)?),
        };
        body(&mut inner)?;
        match (self, inner) {
            (Walk::Encode(doc), Walk::Encode(fields)) => {
                doc.push((key.to_string(), Json::Obj(fields)));
            }
            (_, Walk::Decode(fields)) => fields.finish()?,
            _ => unreachable!("a section is walked the way its document is"),
        }
        Ok(())
    }
}

/// The six sections of the document, in order. The branch predictor
/// lives on the core but is a section of its own.
fn walk(w: &mut Walk, s: &mut MachineSpec) -> Step {
    w.section("core", |w| core(w, &mut s.core))?;
    w.section("hierarchy", |w| hierarchy(w, &mut s.hierarchy))?;
    w.section("predictor", |w| predictor(w, &mut s.core.predictor))?;
    w.section("env", |w| env(w, &mut s.env))?;
    w.section("scheme", |w| scheme(w, &mut s.scheme))?;
    w.section("sample", |w| sample(w, &mut s.sample))
}

/// An empty structure or port deadlocks the machine or fails a
/// constructor, and the queue, the issue width and every functional-unit
/// pool are split evenly between the two queue halves, so each half needs
/// a share.
fn core(w: &mut Walk, c: &mut CoreConfig) -> Step {
    w.within("max_threads", &mut c.max_threads, 1..=MAX_THREADS)?;
    w.within("fetch_chunks", &mut c.fetch_chunks, 1..)?;
    w.within("chunk_size", &mut c.chunk_size, 1..=8)?;
    w.int("ibox_latency", &mut c.ibox_latency)?;
    w.int("pbox_latency", &mut c.pbox_latency)?;
    w.int("qbox_latency", &mut c.qbox_latency)?;
    w.int("rbox_latency", &mut c.rbox_latency)?;
    w.int("mbox_latency", &mut c.mbox_latency)?;
    w.int("misfetch_penalty", &mut c.misfetch_penalty)?;
    w.within("iq_size", &mut c.iq_size, 2..=MAX_QUEUE)?;
    w.within("issue_width", &mut c.issue_width, 2..)?;
    w.within("retire_width", &mut c.retire_width, 1..)?;
    w.within("phys_regs", &mut c.phys_regs, 2..=65_535)?;
    w.within("rob_per_thread", &mut c.rob_per_thread, 1..=MAX_QUEUE)?;
    w.within("rmb_chunks", &mut c.rmb_chunks, 1..=MAX_QUEUE)?;
    w.within("lq_entries", &mut c.lq_entries, 1..=MAX_QUEUE)?;
    w.within("sq_entries", &mut c.sq_entries, 1..=MAX_QUEUE)?;
    w.bool("per_thread_store_queues", &mut c.per_thread_store_queues)?;
    for (key, n) in [
        ("fu_int", &mut c.fu_int),
        ("fu_logic", &mut c.fu_logic),
        ("fu_mem", &mut c.fu_mem),
        ("fu_fp", &mut c.fu_fp),
    ] {
        w.within(key, n, 2..=MAX_FUS)?;
        w.rule(key, || *n % 2 == 0, "must be even, one unit per queue half")?;
    }
    w.within("max_loads_per_cycle", &mut c.max_loads_per_cycle, 1..)?;
    w.within("max_stores_per_cycle", &mut c.max_stores_per_cycle, 1..)?;
    let table = 1..=MAX_TABLE;
    w.within(
        "line_predictor_entries",
        &mut c.line_predictor_entries,
        table.clone(),
    )?;
    w.within("store_sets_entries", &mut c.store_sets_entries, table)?;
    w.within("ras_entries", &mut c.ras_entries, ..=MAX_QUEUE)?;
    w.int("iq_reserve_per_thread", &mut c.iq_reserve_per_thread)?;
    w.bool(
        "preferential_space_redundancy",
        &mut c.preferential_space_redundancy,
    )?;
    w.bool("trailing_fetch_priority", &mut c.trailing_fetch_priority)?;
    w.int("store_release_delay", &mut c.store_release_delay)?;
    w.int("uncached_below", &mut c.uncached_below)?;
    w.bool("trailing_uses_lpq", &mut c.trailing_uses_lpq)
}

fn hierarchy(w: &mut Walk, h: &mut HierarchyConfig) -> Step {
    w.section("l1i", |w| cache(w, &mut h.l1i))?;
    w.section("l1d", |w| cache(w, &mut h.l1d))?;
    w.section("l2", |w| cache(w, &mut h.l2))?;
    w.int("l2_latency", &mut h.l2_latency)?;
    w.int("mem_latency", &mut h.mem_latency)?;
    w.within("mshrs", &mut h.mshrs, 1..=MAX_QUEUE)?;
    w.within("merge_entries", &mut h.merge_entries, 1..=MAX_QUEUE)?;
    w.int("merge_drain_interval", &mut h.merge_drain_interval)?;
    w.int("checker_penalty", &mut h.checker_penalty)?;
    w.bool("l1d_next_line_prefetch", &mut h.l1d_next_line_prefetch)
}

/// [`rmt_mem::Cache::new`]'s geometry: power-of-two blocks, at least one
/// set of `assoc` of them, and a bounded number of them.
fn cache(w: &mut Walk, c: &mut CacheConfig) -> Step {
    w.within("size_bytes", &mut c.size_bytes, 1..=MAX_CACHE_BYTES)?;
    w.within("assoc", &mut c.assoc, 1..=MAX_ASSOC)?;
    w.int("block_bytes", &mut c.block_bytes)?;
    w.bool("way_prediction", &mut c.way_prediction)?;
    let power = || c.block_bytes.is_power_of_two();
    w.rule("block_bytes", power, "must be a power of two")?;
    let blocks = || c.size_bytes / c.block_bytes;
    let one_set = || blocks() >= c.assoc as u64;
    w.rule("size_bytes", one_set, "must hold a set of `assoc` blocks")?;
    let fits = || blocks() <= MAX_CACHE_BLOCKS;
    let most = format_args!("must hold at most {MAX_CACHE_BLOCKS} blocks");
    w.rule("size_bytes", fits, most)
}

/// A history register is a `u32`, so at most 31 bits index a table.
fn predictor(w: &mut Walk, p: &mut BranchPredictorConfig) -> Step {
    let table = 1..=MAX_TABLE;
    w.within("local_entries", &mut p.local_entries, table.clone())?;
    w.within("local_history_bits", &mut p.local_history_bits, ..=31)?;
    w.within("global_entries", &mut p.global_entries, table.clone())?;
    w.within("global_history_bits", &mut p.global_history_bits, ..=31)?;
    w.within("chooser_entries", &mut p.chooser_entries, table.clone())?;
    w.within("jump_entries", &mut p.jump_entries, table)
}

fn env(w: &mut Walk, e: &mut RmtEnvConfig) -> Step {
    w.within("lvq_entries", &mut e.lvq_entries, 1..=MAX_QUEUE)?;
    w.within("lpq_chunks", &mut e.lpq_chunks, 1..=MAX_QUEUE)?;
    w.int("lpq_delay", &mut e.lpq_delay)?;
    w.int("lvq_delay", &mut e.lvq_delay)?;
    w.int("comparator_delay", &mut e.comparator_delay)?;
    w.int("cross_core_delay", &mut e.cross_core_delay)?;
    w.bool("store_comparison", &mut e.store_comparison)?;
    w.bool("compare_at_retire", &mut e.compare_at_retire)?;
    w.bool("lvq_ecc", &mut e.lvq_ecc)?;
    w.bool("lpq_enabled", &mut e.lpq_enabled)
}

fn scheme(w: &mut Walk, s: &mut SchemeSpec) -> Step {
    let kinds = DeviceKind::ALL;
    w.name("kind", &mut s.kind, "device kind", kinds, DeviceKind::name)?;
    w.int("checker_latency", &mut s.checker_latency)?;
    w.int("desync_window", &mut s.desync_window)?;
    w.within("ring", &mut s.ring, 2..=MAX_RING)
}

fn sample(w: &mut Walk, p: &mut SamplePlan) -> Step {
    // A plan needs at least one window of at least one measured
    // instruction: zero windows has no positions to sample, and a zero
    // measure divides by zero in every efficiency.
    w.within("windows", &mut p.windows, 1..=MAX_WINDOWS)?;
    w.int("warmup", &mut p.warmup)?;
    w.within("measure", &mut p.measure, 1..)?;
    // A window runs `warmup + measure` detailed instructions; its cycle
    // budget is computed from that sum.
    let sum = || p.warmup.checked_add(p.measure).is_some();
    w.rule("warmup", sum, "+ `sample.measure` must fit in a u64")?;
    w.int("warm_window", &mut p.warm_window)?;
    let (mut random, mut seed) = match p.mode {
        SampleMode::Periodic => (false, 0),
        SampleMode::Random { seed } => (true, seed),
    };
    let name = |random| if random { "random" } else { "periodic" };
    w.name("mode", &mut random, "sampling mode", &[false, true], name)?;
    w.int("mode_seed", &mut seed)?;
    p.mode = if random {
        SampleMode::Random { seed }
    } else {
        SampleMode::Periodic
    };
    Ok(())
}

pub(super) fn to_json(spec: &MachineSpec) -> Json {
    let mut encoder = Walk::Encode(Vec::new());
    walk(&mut encoder, &mut spec.clone()).expect("the encoder refuses nothing");
    match encoder {
        Walk::Encode(fields) => Json::Obj(fields),
        Walk::Decode(_) => unreachable!("the encoder stays one"),
    }
}

pub(super) fn from_json(doc: &Json) -> Result<MachineSpec, SpecError> {
    // Start from the paper machine so build-time-only fields (the `chaos`
    // validation hook) keep their defaults without being spec keys.
    let mut spec = MachineSpec::default();
    let mut decoder = Walk::Decode(Fields::new(doc)?);
    walk(&mut decoder, &mut spec)?;
    if let Walk::Decode(fields) = decoder {
        fields.finish()?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_roundtrips_bitwise() {
        for &k in DeviceKind::ALL {
            let s = MachineSpec::for_kind(k);
            let doc = s.to_json();
            let back = MachineSpec::from_json(&doc).unwrap();
            assert_eq!(back, s, "{k} spec drifted through the codec");
            // And the encoded text is stable through a parse.
            let text = doc.encode_pretty();
            let reparsed = rmt_stats::json::parse(&text).unwrap();
            assert_eq!(MachineSpec::from_json(&reparsed).unwrap(), s);
        }
    }

    #[test]
    fn document_has_the_six_sections_in_order() {
        let doc = MachineSpec::default().to_json();
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["core", "hierarchy", "predictor", "env", "scheme", "sample"]
        );
    }

    #[test]
    fn missing_and_unknown_keys_are_rejected() {
        let mut doc = MachineSpec::default().to_json();
        doc.set("bogus", Json::U64(1));
        let e = MachineSpec::from_json(&doc).unwrap_err();
        assert!(e.message.contains("unknown config key `bogus`"), "{e}");

        let mut doc = MachineSpec::default().to_json();
        doc.get_mut("env").unwrap().set("bogus", Json::Bool(true));
        let e = MachineSpec::from_json(&doc).unwrap_err();
        assert!(e.message.contains("env.bogus"), "{e}");

        let doc = Json::obj().with("core", Json::obj());
        let e = MachineSpec::from_json(&doc).unwrap_err();
        assert!(e.message.contains("missing config key `core."), "{e}");
    }

    #[test]
    fn type_mismatches_name_the_path() {
        let mut doc = MachineSpec::default().to_json();
        doc.get_mut("hierarchy")
            .unwrap()
            .get_mut("l1d")
            .unwrap()
            .set("assoc", Json::Str("two".into()));
        let e = MachineSpec::from_json(&doc).unwrap_err();
        assert!(e.message.contains("hierarchy.l1d.assoc"), "{e}");
    }

    #[test]
    fn core_shapes_the_pipeline_cannot_run_are_rejected() {
        // The default machine still round-trips.
        let s = MachineSpec::default();
        assert_eq!(MachineSpec::from_json(&s.to_json()).unwrap(), s);
        for (key, bad) in [
            ("max_threads", 0),
            ("fetch_chunks", 0),
            ("retire_width", 0),
            ("rob_per_thread", 0),
            ("rmb_chunks", 0),
            ("lq_entries", 0),
            ("sq_entries", 0),
            ("max_loads_per_cycle", 0),
            ("max_stores_per_cycle", 0),
            ("iq_size", 0),
            ("iq_size", 1),
            ("issue_width", 0),
            ("issue_width", 1),
            ("chunk_size", 0),
            ("chunk_size", 9),
            ("phys_regs", 1),
            ("phys_regs", 65_536),
            ("fu_int", 0),
            ("fu_int", 3),
            ("fu_logic", 1),
            ("fu_mem", 0),
            ("fu_fp", 5),
        ] {
            let mut doc = s.to_json();
            doc.get_mut("core").unwrap().set(key, Json::U64(bad));
            let e = MachineSpec::from_json(&doc).unwrap_err();
            assert!(
                e.message.contains(&format!("`core.{key}` must")),
                "{key} = {bad}: {e}"
            );
        }
        // Every count that sizes a buffer when the machine is built has an
        // upper bound, and the cache geometry and the ring are ones their
        // constructors accept.
        for (path, bad) in [
            ("core.max_threads", 17),
            ("core.iq_size", 4_097),
            ("core.rob_per_thread", 4_097),
            ("core.rmb_chunks", 4_097),
            ("core.lq_entries", 4_097),
            ("core.sq_entries", 1_000_000_000_000),
            ("core.fu_int", 66),
            ("core.fu_logic", 66),
            ("core.fu_mem", 66),
            ("core.fu_fp", 66),
            ("core.line_predictor_entries", 0),
            ("core.line_predictor_entries", (1 << 18) + 1),
            ("core.store_sets_entries", 0),
            ("core.store_sets_entries", (1 << 18) + 1),
            ("core.ras_entries", 4_097),
            ("hierarchy.mshrs", 0),
            ("hierarchy.mshrs", 4_097),
            ("hierarchy.merge_entries", 0),
            ("hierarchy.merge_entries", 4_097),
            ("hierarchy.l1i.size_bytes", (1 << 24) + 64),
            ("hierarchy.l1d.assoc", 0),
            ("hierarchy.l1d.assoc", 257),
            ("hierarchy.l1d.block_bytes", 48),
            ("hierarchy.l1d.size_bytes", 64),
            ("hierarchy.l2.size_bytes", 12 << 20),
            ("predictor.local_entries", 0),
            ("predictor.local_history_bits", 32),
            ("predictor.global_history_bits", 64),
            ("predictor.global_entries", (1 << 18) + 1),
            ("predictor.chooser_entries", (1 << 18) + 1),
            ("predictor.jump_entries", 0),
            ("env.lvq_entries", 0),
            ("env.lvq_entries", 4_097),
            ("env.lpq_chunks", 0),
            ("env.lpq_chunks", 4_097),
            ("scheme.ring", 1),
            ("scheme.ring", 9),
            ("sample.windows", 4_097),
        ] {
            let e = s.clone().set(path, Json::U64(bad)).unwrap_err();
            assert!(
                e.message.contains(&format!("`{path}` must")),
                "{path} = {bad}: {e}"
            );
        }
    }

    #[test]
    fn sample_modes_roundtrip() {
        let mut s = MachineSpec::default();
        s.sample.mode = SampleMode::Random { seed: 42 };
        let back = MachineSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back.sample.mode, SampleMode::Random { seed: 42 });
    }
}
