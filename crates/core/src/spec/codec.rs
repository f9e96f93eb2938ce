//! The strict JSON codec behind [`MachineSpec`]: every field of every
//! section is serialized, and deserialization demands exactly that set of
//! keys — a missing key, an unknown key, or a type mismatch is an error
//! naming the dotted path. Strictness is what lets `check_json` treat an
//! embedded `config` section as self-validating and lets
//! [`MachineSpec::set`] type-check overrides by round-tripping.

use super::{DeviceKind, MachineSpec, SampleModeSpec, SampleSpec, SchemeSpec, SpecError};
use crate::rmt_env::RmtEnvConfig;
use rmt_mem::{CacheConfig, HierarchyConfig};
use rmt_pipeline::CoreConfig;
use rmt_predict::BranchPredictorConfig;
use rmt_stats::Json;

/// A section reader that tracks which keys were consumed, so `finish`
/// can reject unknown keys with their full dotted path.
struct Fields<'a> {
    path: String,
    entries: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Json, path: &str) -> Result<Fields<'a>, SpecError> {
        match v.members() {
            Some(entries) => Ok(Fields {
                path: path.to_string(),
                entries,
                used: vec![false; entries.len()],
            }),
            None => Err(SpecError::new(format!(
                "config section `{path}` must be a JSON object"
            ))),
        }
    }

    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn take(&mut self, key: &str) -> Result<&'a Json, SpecError> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Ok(v);
            }
        }
        Err(SpecError::new(format!(
            "missing config key `{}`",
            self.key_path(key)
        )))
    }

    fn u64(&mut self, key: &str) -> Result<u64, SpecError> {
        let path = self.key_path(key);
        self.take(key)?
            .as_u64()
            .ok_or_else(|| SpecError::new(format!("`{path}` must be a non-negative integer")))
    }

    fn usize(&mut self, key: &str) -> Result<usize, SpecError> {
        let path = self.key_path(key);
        usize::try_from(self.u64(key)?)
            .map_err(|_| SpecError::new(format!("`{path}` is out of range")))
    }

    fn u32(&mut self, key: &str) -> Result<u32, SpecError> {
        let path = self.key_path(key);
        u32::try_from(self.u64(key)?)
            .map_err(|_| SpecError::new(format!("`{path}` is out of range")))
    }

    fn bool(&mut self, key: &str) -> Result<bool, SpecError> {
        let path = self.key_path(key);
        self.take(key)?
            .as_bool()
            .ok_or_else(|| SpecError::new(format!("`{path}` must be true or false")))
    }

    fn str(&mut self, key: &str) -> Result<&'a str, SpecError> {
        let path = self.key_path(key);
        self.take(key)?
            .as_str()
            .ok_or_else(|| SpecError::new(format!("`{path}` must be a string")))
    }

    fn finish(self) -> Result<(), SpecError> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(SpecError::new(format!(
                    "unknown config key `{}`",
                    self.key_path(k)
                )));
            }
        }
        Ok(())
    }
}

// ====================================================================
// core
// ====================================================================

fn core_to_json(c: &CoreConfig) -> Json {
    Json::obj()
        .with("max_threads", Json::U64(c.max_threads as u64))
        .with("fetch_chunks", Json::U64(c.fetch_chunks as u64))
        .with("chunk_size", Json::U64(c.chunk_size as u64))
        .with("ibox_latency", Json::U64(c.ibox_latency))
        .with("pbox_latency", Json::U64(c.pbox_latency))
        .with("qbox_latency", Json::U64(c.qbox_latency))
        .with("rbox_latency", Json::U64(c.rbox_latency))
        .with("mbox_latency", Json::U64(c.mbox_latency))
        .with("misfetch_penalty", Json::U64(c.misfetch_penalty))
        .with("iq_size", Json::U64(c.iq_size as u64))
        .with("issue_width", Json::U64(c.issue_width as u64))
        .with("retire_width", Json::U64(c.retire_width as u64))
        .with("phys_regs", Json::U64(c.phys_regs as u64))
        .with("rob_per_thread", Json::U64(c.rob_per_thread as u64))
        .with("rmb_chunks", Json::U64(c.rmb_chunks as u64))
        .with("lq_entries", Json::U64(c.lq_entries as u64))
        .with("sq_entries", Json::U64(c.sq_entries as u64))
        .with(
            "per_thread_store_queues",
            Json::Bool(c.per_thread_store_queues),
        )
        .with("fu_int", Json::U64(c.fu_int as u64))
        .with("fu_logic", Json::U64(c.fu_logic as u64))
        .with("fu_mem", Json::U64(c.fu_mem as u64))
        .with("fu_fp", Json::U64(c.fu_fp as u64))
        .with(
            "max_loads_per_cycle",
            Json::U64(c.max_loads_per_cycle as u64),
        )
        .with(
            "max_stores_per_cycle",
            Json::U64(c.max_stores_per_cycle as u64),
        )
        .with(
            "line_predictor_entries",
            Json::U64(c.line_predictor_entries as u64),
        )
        .with("store_sets_entries", Json::U64(c.store_sets_entries as u64))
        .with("ras_entries", Json::U64(c.ras_entries as u64))
        .with(
            "iq_reserve_per_thread",
            Json::U64(c.iq_reserve_per_thread as u64),
        )
        .with(
            "preferential_space_redundancy",
            Json::Bool(c.preferential_space_redundancy),
        )
        .with(
            "trailing_fetch_priority",
            Json::Bool(c.trailing_fetch_priority),
        )
        .with("store_release_delay", Json::U64(c.store_release_delay))
        .with("uncached_below", Json::U64(c.uncached_below))
        .with("trailing_uses_lpq", Json::Bool(c.trailing_uses_lpq))
}

fn core_from_json(v: &Json, path: &str) -> Result<CoreConfig, SpecError> {
    let mut f = Fields::new(v, path)?;
    // Start from the paper machine so build-time-only fields (the `chaos`
    // validation hook) keep their defaults without being spec keys.
    let mut c = CoreConfig::base();
    c.max_threads = f.usize("max_threads")?;
    c.fetch_chunks = f.usize("fetch_chunks")?;
    c.chunk_size = f.usize("chunk_size")?;
    c.ibox_latency = f.u64("ibox_latency")?;
    c.pbox_latency = f.u64("pbox_latency")?;
    c.qbox_latency = f.u64("qbox_latency")?;
    c.rbox_latency = f.u64("rbox_latency")?;
    c.mbox_latency = f.u64("mbox_latency")?;
    c.misfetch_penalty = f.u64("misfetch_penalty")?;
    c.iq_size = f.usize("iq_size")?;
    c.issue_width = f.usize("issue_width")?;
    c.retire_width = f.usize("retire_width")?;
    c.phys_regs = f.usize("phys_regs")?;
    c.rob_per_thread = f.usize("rob_per_thread")?;
    c.rmb_chunks = f.usize("rmb_chunks")?;
    c.lq_entries = f.usize("lq_entries")?;
    c.sq_entries = f.usize("sq_entries")?;
    c.per_thread_store_queues = f.bool("per_thread_store_queues")?;
    c.fu_int = f.usize("fu_int")?;
    c.fu_logic = f.usize("fu_logic")?;
    c.fu_mem = f.usize("fu_mem")?;
    c.fu_fp = f.usize("fu_fp")?;
    c.max_loads_per_cycle = f.usize("max_loads_per_cycle")?;
    c.max_stores_per_cycle = f.usize("max_stores_per_cycle")?;
    c.line_predictor_entries = f.usize("line_predictor_entries")?;
    c.store_sets_entries = f.usize("store_sets_entries")?;
    c.ras_entries = f.usize("ras_entries")?;
    c.iq_reserve_per_thread = f.usize("iq_reserve_per_thread")?;
    c.preferential_space_redundancy = f.bool("preferential_space_redundancy")?;
    c.trailing_fetch_priority = f.bool("trailing_fetch_priority")?;
    c.store_release_delay = f.u64("store_release_delay")?;
    c.uncached_below = f.u64("uncached_below")?;
    c.trailing_uses_lpq = f.bool("trailing_uses_lpq")?;
    f.finish()?;
    check_core_shape(&c, path)?;
    Ok(c)
}

/// Rejects core shapes the pipeline cannot run, naming the key: an empty
/// structure or port deadlocks the machine or fails a constructor, and
/// the queue, the issue width and every functional-unit pool are split
/// evenly between the two queue halves, so each half needs a share.
fn check_core_shape(c: &CoreConfig, path: &str) -> Result<(), SpecError> {
    let reject = |key: &str, rule: &str| Err(SpecError::new(format!("`{path}.{key}` must {rule}")));
    for (key, n) in [
        ("max_threads", c.max_threads),
        ("fetch_chunks", c.fetch_chunks),
        ("retire_width", c.retire_width),
        ("rob_per_thread", c.rob_per_thread),
        ("rmb_chunks", c.rmb_chunks),
        ("lq_entries", c.lq_entries),
        ("sq_entries", c.sq_entries),
        ("max_loads_per_cycle", c.max_loads_per_cycle),
        ("max_stores_per_cycle", c.max_stores_per_cycle),
    ] {
        if n == 0 {
            return reject(key, "be at least 1");
        }
    }
    for (key, n) in [("iq_size", c.iq_size), ("issue_width", c.issue_width)] {
        if n < 2 {
            return reject(key, "be at least 2, one per queue half");
        }
    }
    if !(1..=8).contains(&c.chunk_size) {
        return reject("chunk_size", "be in 1..=8");
    }
    if !(2..=65_535).contains(&c.phys_regs) {
        return reject("phys_regs", "be in 2..=65535");
    }
    for (key, n) in [
        ("fu_int", c.fu_int),
        ("fu_logic", c.fu_logic),
        ("fu_mem", c.fu_mem),
        ("fu_fp", c.fu_fp),
    ] {
        if n < 2 || n % 2 != 0 {
            return reject(key, "be even and at least 2, one unit per queue half");
        }
    }
    Ok(())
}

// ====================================================================
// hierarchy
// ====================================================================

fn cache_to_json(c: &CacheConfig) -> Json {
    Json::obj()
        .with("size_bytes", Json::U64(c.size_bytes))
        .with("assoc", Json::U64(c.assoc as u64))
        .with("block_bytes", Json::U64(c.block_bytes))
        .with("way_prediction", Json::Bool(c.way_prediction))
}

fn cache_from_json(v: &Json, path: &str) -> Result<CacheConfig, SpecError> {
    let mut f = Fields::new(v, path)?;
    let c = CacheConfig {
        size_bytes: f.u64("size_bytes")?,
        assoc: f.usize("assoc")?,
        block_bytes: f.u64("block_bytes")?,
        way_prediction: f.bool("way_prediction")?,
    };
    f.finish()?;
    Ok(c)
}

fn hierarchy_to_json(h: &HierarchyConfig) -> Json {
    Json::obj()
        .with("l1i", cache_to_json(&h.l1i))
        .with("l1d", cache_to_json(&h.l1d))
        .with("l2", cache_to_json(&h.l2))
        .with("l2_latency", Json::U64(h.l2_latency))
        .with("mem_latency", Json::U64(h.mem_latency))
        .with("mshrs", Json::U64(h.mshrs as u64))
        .with("merge_entries", Json::U64(h.merge_entries as u64))
        .with("merge_drain_interval", Json::U64(h.merge_drain_interval))
        .with("checker_penalty", Json::U64(h.checker_penalty))
        .with(
            "l1d_next_line_prefetch",
            Json::Bool(h.l1d_next_line_prefetch),
        )
}

fn hierarchy_from_json(v: &Json, path: &str) -> Result<HierarchyConfig, SpecError> {
    let mut f = Fields::new(v, path)?;
    let h = HierarchyConfig {
        l1i: cache_from_json(f.take("l1i")?, &f.key_path("l1i"))?,
        l1d: cache_from_json(f.take("l1d")?, &f.key_path("l1d"))?,
        l2: cache_from_json(f.take("l2")?, &f.key_path("l2"))?,
        l2_latency: f.u64("l2_latency")?,
        mem_latency: f.u64("mem_latency")?,
        mshrs: f.usize("mshrs")?,
        merge_entries: f.usize("merge_entries")?,
        merge_drain_interval: f.u64("merge_drain_interval")?,
        checker_penalty: f.u64("checker_penalty")?,
        l1d_next_line_prefetch: f.bool("l1d_next_line_prefetch")?,
    };
    f.finish()?;
    Ok(h)
}

// ====================================================================
// predictor
// ====================================================================

fn predictor_to_json(p: &BranchPredictorConfig) -> Json {
    Json::obj()
        .with("local_entries", Json::U64(p.local_entries as u64))
        .with(
            "local_history_bits",
            Json::U64(u64::from(p.local_history_bits)),
        )
        .with("global_entries", Json::U64(p.global_entries as u64))
        .with(
            "global_history_bits",
            Json::U64(u64::from(p.global_history_bits)),
        )
        .with("chooser_entries", Json::U64(p.chooser_entries as u64))
        .with("jump_entries", Json::U64(p.jump_entries as u64))
}

fn predictor_from_json(v: &Json, path: &str) -> Result<BranchPredictorConfig, SpecError> {
    let mut f = Fields::new(v, path)?;
    let p = BranchPredictorConfig {
        local_entries: f.usize("local_entries")?,
        local_history_bits: f.u32("local_history_bits")?,
        global_entries: f.usize("global_entries")?,
        global_history_bits: f.u32("global_history_bits")?,
        chooser_entries: f.usize("chooser_entries")?,
        jump_entries: f.usize("jump_entries")?,
    };
    f.finish()?;
    Ok(p)
}

// ====================================================================
// env
// ====================================================================

fn env_to_json(e: &RmtEnvConfig) -> Json {
    Json::obj()
        .with("lvq_entries", Json::U64(e.lvq_entries as u64))
        .with("lpq_chunks", Json::U64(e.lpq_chunks as u64))
        .with("lpq_delay", Json::U64(e.lpq_delay))
        .with("lvq_delay", Json::U64(e.lvq_delay))
        .with("comparator_delay", Json::U64(e.comparator_delay))
        .with("cross_core_delay", Json::U64(e.cross_core_delay))
        .with("store_comparison", Json::Bool(e.store_comparison))
        .with("compare_at_retire", Json::Bool(e.compare_at_retire))
        .with("lvq_ecc", Json::Bool(e.lvq_ecc))
        .with("lpq_enabled", Json::Bool(e.lpq_enabled))
}

fn env_from_json(v: &Json, path: &str) -> Result<RmtEnvConfig, SpecError> {
    let mut f = Fields::new(v, path)?;
    let e = RmtEnvConfig {
        lvq_entries: f.usize("lvq_entries")?,
        lpq_chunks: f.usize("lpq_chunks")?,
        lpq_delay: f.u64("lpq_delay")?,
        lvq_delay: f.u64("lvq_delay")?,
        comparator_delay: f.u64("comparator_delay")?,
        cross_core_delay: f.u64("cross_core_delay")?,
        store_comparison: f.bool("store_comparison")?,
        compare_at_retire: f.bool("compare_at_retire")?,
        lvq_ecc: f.bool("lvq_ecc")?,
        lpq_enabled: f.bool("lpq_enabled")?,
    };
    f.finish()?;
    Ok(e)
}

// ====================================================================
// scheme & sample
// ====================================================================

fn scheme_to_json(s: &SchemeSpec) -> Json {
    Json::obj()
        .with("kind", Json::Str(s.kind.name().to_string()))
        .with("checker_latency", Json::U64(s.checker_latency))
        .with("desync_window", Json::U64(s.desync_window))
        .with("ring", Json::U64(s.ring as u64))
}

fn scheme_from_json(v: &Json, path: &str) -> Result<SchemeSpec, SpecError> {
    let mut f = Fields::new(v, path)?;
    let kind_name = f.str("kind")?;
    let kind = DeviceKind::from_name(kind_name).ok_or_else(|| {
        SpecError::new(format!(
            "`{path}.kind`: unknown device kind `{kind_name}` (one of: {})",
            DeviceKind::ALL
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })?;
    let s = SchemeSpec {
        kind,
        checker_latency: f.u64("checker_latency")?,
        desync_window: f.u64("desync_window")?,
        ring: f.usize("ring")?,
    };
    f.finish()?;
    Ok(s)
}

fn sample_to_json(s: &SampleSpec) -> Json {
    let (mode, seed) = match s.mode {
        SampleModeSpec::Periodic => ("periodic", 0),
        SampleModeSpec::Random { seed } => ("random", seed),
    };
    Json::obj()
        .with("windows", Json::U64(s.windows as u64))
        .with("warmup", Json::U64(s.warmup))
        .with("measure", Json::U64(s.measure))
        .with("warm_window", Json::U64(s.warm_window as u64))
        .with("mode", Json::Str(mode.to_string()))
        .with("mode_seed", Json::U64(seed))
}

fn sample_from_json(v: &Json, path: &str) -> Result<SampleSpec, SpecError> {
    let mut f = Fields::new(v, path)?;
    let windows = f.usize("windows")?;
    let warmup = f.u64("warmup")?;
    let measure = f.u64("measure")?;
    let warm_window = f.usize("warm_window")?;
    // A plan needs at least one window of at least one measured
    // instruction: zero windows has no positions to sample, and a zero
    // measure divides by zero in every efficiency.
    for (key, n) in [("windows", windows as u64), ("measure", measure)] {
        if n == 0 {
            return Err(SpecError::new(format!("`{path}.{key}` must be at least 1")));
        }
    }
    let mode_name = f.str("mode")?;
    let seed = f.u64("mode_seed")?;
    let mode = match mode_name {
        "periodic" => SampleModeSpec::Periodic,
        "random" => SampleModeSpec::Random { seed },
        other => {
            return Err(SpecError::new(format!(
                "`{path}.mode`: unknown sampling mode `{other}` (periodic or random)"
            )))
        }
    };
    f.finish()?;
    Ok(SampleSpec {
        windows,
        warmup,
        measure,
        warm_window,
        mode,
    })
}

// ====================================================================
// the document
// ====================================================================

pub(super) fn to_json(spec: &MachineSpec) -> Json {
    Json::obj()
        .with("core", core_to_json(&spec.core))
        .with("hierarchy", hierarchy_to_json(&spec.hierarchy))
        .with("predictor", predictor_to_json(&spec.core.predictor))
        .with("env", env_to_json(&spec.env))
        .with("scheme", scheme_to_json(&spec.scheme))
        .with("sample", sample_to_json(&spec.sample))
}

pub(super) fn from_json(doc: &Json) -> Result<MachineSpec, SpecError> {
    let mut f = Fields::new(doc, "")?;
    let mut core = core_from_json(f.take("core")?, "core")?;
    let hierarchy = hierarchy_from_json(f.take("hierarchy")?, "hierarchy")?;
    core.predictor = predictor_from_json(f.take("predictor")?, "predictor")?;
    let env = env_from_json(f.take("env")?, "env")?;
    let scheme = scheme_from_json(f.take("scheme")?, "scheme")?;
    let sample = sample_from_json(f.take("sample")?, "sample")?;
    f.finish()?;
    Ok(MachineSpec {
        core,
        hierarchy,
        env,
        scheme,
        sample,
    })
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
    }

    #[test]
    fn sample_modes_roundtrip() {
        let mut s = MachineSpec::default();
        s.sample.mode = SampleModeSpec::Random { seed: 42 };
        let back = MachineSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back.sample.mode, SampleModeSpec::Random { seed: 42 });
    }
}
