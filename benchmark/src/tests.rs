//! Smoke test: every workload at tiny sizes, in a debug build.

use super::*;

fn emitted(line: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(fields)) = line.get("metrics") else {
        panic!("result line lacks metrics: {}", line.encode());
    };
    fields
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{k} is not a number: {}",
                v.encode()
            );
            (
                k.clone(),
                v.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_defined_metrics() {
    let names = |section| {
        defined(section)
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect::<Vec<_>>()
    };
    let (e2e, layers) = (names("end_to_end"), names("per_layer"));
    for name in workloads::NAMES {
        let m = measure(name, 1, 0.2, true, true);
        let layer_line = m.layers.expect("traced run");
        for line in [&m.e2e, &layer_line] {
            assert_eq!(
                line.get("correct").and_then(Json::as_bool),
                Some(true),
                "{name}: {}",
                line.encode()
            );
        }
        assert_eq!(emitted(&m.e2e), e2e, "{name}: end-to-end metrics");
        assert_eq!(emitted(&layer_line), layers, "{name}: per-layer metrics");
        assert!(
            !m.spans.is_empty(),
            "{name}: the traced run recorded no spans"
        );
    }
}

/// Flips one byte in the middle of every disk-cache entry under `dir`.
fn corrupt_disk_cache(dir: &std::path::Path) {
    for shard in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        for entry in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let p = entry.path();
            if let Ok(mut bytes) = std::fs::read(&p) {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(&p, bytes).expect("rewrite cache entry");
            }
        }
    }
}

#[test]
fn a_corrupted_disk_cache_entry_is_counted_as_failed() {
    let dir = std::path::Path::new(WORK_DIR).join(format!("corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let off = Tracer::new(false);
    let ctx = Ctx {
        seed: 1,
        seconds: 1.0,
        tracer: &off,
        dir: dir.clone(),
        tiny: true,
    };
    let out = workloads::serve::run_with(&ctx, corrupt_disk_cache);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.failed > 0,
        "corrupted disk entries were served silently"
    );
}
