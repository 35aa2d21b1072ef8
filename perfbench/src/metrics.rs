//! The metric names and units the benchmark reports. `BENCHMARK.json` and
//! `perfbench/rationale.json` list the same names; a test keeps the three
//! in step.

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, reported by a run with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("probes_per_query", "probes"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by a run with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("reactor.transport_us_p50", "us"),
    ("reactor.syscalls_per_response", "ratio"),
    ("reactor.completions_per_wake", "ratio"),
    ("reactor.bytes_per_response", "B"),
    ("proto.parse_ns", "ns"),
    ("proto.render_ns", "ns"),
    ("pool.handoff_us_p50", "us"),
    ("session.resolve_ns", "ns"),
    ("session.build_us", "us"),
    ("session.answer_us_p50", "us"),
    ("session.answer_us_p99", "us"),
    ("session.resident", "count"),
    ("algo.self_us_per_query", "us"),
    ("algo.probes_p50", "probes"),
    ("algo.probes_p99", "probes"),
    ("probe.counting.self_ns_per_probe", "ns"),
    ("probe.cached.self_ns_per_probe", "ns"),
    ("probe.cached.hit_rate", "ratio"),
    ("probe.cached.entries", "count"),
    ("graph.implicit.calls_per_query", "calls"),
    ("graph.implicit.ns_per_call", "ns"),
    ("fleet.http_parse_ns", "ns"),
    ("fleet.http_render_ns", "ns"),
    ("fleet.router_self_us", "us"),
    ("fleet.backend_roundtrip_us_p50", "us"),
    ("fleet.hop_us_p50", "us"),
    ("fleet.spec_cache_entries", "count"),
    ("fleet.spec_cache_evictions", "count"),
    ("fleet.retries", "count"),
    ("trace.unexplained_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The unit of metric `name` in `table`.
pub fn unit_of(table: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Json;

    fn load(path: &str) -> Json {
        let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{full}: {e}"))
    }

    fn list(v: &Json, key: &str) -> Vec<Json> {
        match v.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let bench = load("../BENCHMARK.json");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = list(&bench, key)
                .iter()
                .map(|m| (str_of(m, "name").to_owned(), str_of(m, "unit").to_owned()))
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the binary's table");
        }
        let workloads: Vec<String> = list(&bench, "workloads")
            .iter()
            .map(|w| str_of(w, "name").to_owned())
            .collect();
        let ours: Vec<String> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name().to_owned())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn rationale_covers_every_workload_and_layer_metric() {
        let bench = load("../BENCHMARK.json");
        let why = load("rationale.json");
        assert_eq!(
            why.get("default_seed").and_then(Json::as_u64),
            Some(DEFAULT_SEED)
        );
        let heldout = why.get("heldout_seed").and_then(Json::as_u64);
        assert!(
            heldout.is_some_and(|s| s != DEFAULT_SEED),
            "a held-out seed is recorded"
        );
        for w in list(&bench, "workloads") {
            let name = str_of(&w, "name");
            let reason = why.get("workloads").and_then(|ws| ws.get(name));
            assert_eq!(
                reason.and_then(Json::as_str),
                Some(str_of(&w, "why")),
                "{name}"
            );
        }
        let workload_names: Vec<&str> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        for (name, _) in PER_LAYER {
            let entry = why
                .get("layers")
                .and_then(|l| l.get(name))
                .unwrap_or_else(|| panic!("{name} has no rationale"));
            for moved in list(entry, "moves") {
                let m = moved.as_str().unwrap_or_default();
                assert!(
                    unit_of(&END_TO_END, m).is_some(),
                    "{name} moves unknown metric {m:?}"
                );
            }
            for on in list(entry, "on") {
                let w = on.as_str().unwrap_or_default();
                assert!(
                    workload_names.contains(&w),
                    "{name} names unknown workload {w:?}"
                );
            }
        }
    }
}
