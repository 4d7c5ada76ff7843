//! Every name the benchmark prints, with its unit. `BENCHMARK.json` at the
//! repository root declares the same lists; a test keeps the two equal.

/// `--seconds` when the flag is absent; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

pub const WORKLOADS: [&str; 4] = ["serve_hot", "serve_miss", "eval_rob", "retrieve_large"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when larger is better.
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: true,
    }
}

/// End-to-end metric and the share of the parent's median it may worsen by.
///
/// The timing bounds are what this class of host allows, not what the code
/// deserves: on the 2-vCPU box the benchmark was sized on, ten same-code runs
/// spread 3–11% (interquartile range over median) in a calm half hour and
/// 6–20% in a busy one, single-threaded CPU-bound workloads included. See the
/// README.
pub const END_TO_END: [(Metric, f64); 5] = [
    (higher("throughput_ops_s", "ops/s"), 0.25),
    (lower("latency_p50_us", "us"), 0.25),
    (lower("cpu_us_per_op", "us"), 0.25),
    (higher("quality", "ratio"), 0.05),
    (lower("setup_s", "s"), 0.25),
];

pub const PER_LAYER: [Metric; 62] = [
    lower("loadgen.latency_p99_us", "us"),
    lower("loadgen.echo_p50_us", "us"),
    lower("loadgen.cpu_us_per_op", "us"),
    lower("loadgen.trace_overhead_share", "ratio"),
    lower("loadgen.failed_share", "ratio"),
    lower("net.wake_roundtrip_us", "us"),
    lower("serve.http.parse_ns", "ns"),
    lower("serve.http.write_ns", "ns"),
    lower("serve.key_ns", "ns"),
    lower("serve.cache.lookup_hit_ns", "ns"),
    lower("serve.cache.lookup_miss_ns", "ns"),
    lower("serve.cache.insert_evict_ns", "ns"),
    lower("serve.pool.roundtrip_us", "us"),
    lower("serve.translate_body_us", "us"),
    lower("serve.overhead_us", "us"),
    lower("serve.stage.conn_read_us", "us"),
    lower("serve.stage.queue_wait_us", "us"),
    lower("serve.stage.cache_lookup_us", "us"),
    lower("serve.stage.embed_us", "us"),
    lower("serve.stage.retrieve_us", "us"),
    lower("serve.stage.backend_translate_us", "us"),
    lower("serve.stage.resp_write_us", "us"),
    lower("serve.stage.unattributed_share", "ratio"),
    lower("serve.event_cpu_us_per_op", "us"),
    lower("serve.dispatch_cpu_us_per_op", "us"),
    lower("serve.worker_cpu_us_per_op", "us"),
    lower("serve.batcher_cpu_us_per_op", "us"),
    higher("serve.cache.hit_share", "ratio"),
    higher("serve.batch.lookups_per_batch", "count"),
    lower("serve.queue_wait_mean_us", "us"),
    lower("serve.rejected_share", "ratio"),
    lower("obs.cpu_us_per_op", "us"),
    lower("trace.span_ns", "ns"),
    lower("tenant.lookup_ns", "ns"),
    lower("parallel.transient_cpu_us_per_op", "us"),
    lower("embed.embed_ns", "ns"),
    lower("embed.top_k_us", "us"),
    lower("embed.flat_scan_ms", "ms"),
    lower("embed.dot_ns", "ns"),
    lower("ann.search_us", "us"),
    higher("ann.recall_at_10", "ratio"),
    lower("ann.train_s", "s"),
    lower("ann.index_bytes", "bytes"),
    lower("gred.translate_us", "us"),
    lower("gred.generator_us", "us"),
    lower("gred.retuner_us", "us"),
    lower("gred.debugger_us", "us"),
    lower("gred.library_build_ms", "ms"),
    lower("llm.generate_us", "us"),
    lower("dvq.parse_ns", "ns"),
    lower("eval.grade_us", "us"),
    higher("eval.accuracy.original", "ratio"),
    higher("eval.accuracy.nlq", "ratio"),
    higher("eval.accuracy.schema", "ratio"),
    higher("eval.accuracy.both", "ratio"),
    lower("perturb.build_rob_ms", "ms"),
    lower("corpus.generate_ms", "ms"),
    lower("store.encode_ms", "ms"),
    lower("store.decode_ms", "ms"),
    lower("store.snapshot_bytes", "bytes"),
    lower("process.rss_mb", "MB"),
    lower("process.threads", "count"),
];

pub fn end_to_end(name: &str) -> Option<(Metric, f64)> {
    END_TO_END.iter().copied().find(|(m, _)| m.name == name)
}

pub fn per_layer(name: &str) -> Option<Metric> {
    PER_LAYER.iter().copied().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_engine::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn text<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn every_name_printed_is_in_benchmark_json_and_vice_versa() {
        let m = manifest();
        let declared: Vec<(String, String, bool, Option<f64>)> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|section| m.get(section).and_then(Json::as_arr).expect(section))
            .map(|e| {
                (
                    text(e, "name").to_string(),
                    text(e, "unit").to_string(),
                    text(e, "better") == "higher",
                    e.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let printed: Vec<(String, String, bool, Option<f64>)> = END_TO_END
            .iter()
            .map(|(m, b)| (m, Some(*b)))
            .chain(PER_LAYER.iter().map(|m| (m, None)))
            .map(|(m, b)| (m.name.to_string(), m.unit.to_string(), m.higher, b))
            .collect();
        assert_eq!(declared, printed);
    }

    #[test]
    fn workloads_command_and_run_length_agree_with_benchmark_json() {
        let m = manifest();
        let names: Vec<&str> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        assert_eq!(
            m.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1)
        );
        let command: Vec<&str> = m
            .get("command")
            .and_then(Json::as_arr)
            .expect("command")
            .iter()
            .map(|c| c.as_str().expect("command strings"))
            .collect();
        assert!(command.contains(&"benchmark/Cargo.toml"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS)
            .collect();
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(n.len() <= 64 && ok(n, "_.-"), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        for m in END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && ok(m.unit, "_/%.-"), "{}", m.unit);
        }
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|(m, _)| m.unit == "s" && !m.higher));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
