//! The names the rig reports under, mirrored by `BENCHMARK.json` (a
//! test keeps the two in step).

use crate::stats::Summary;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "batch",
        "map files in, route file out, on big (130k names): parser, graph, mapper and printer do all the work, server and poll none; op = one CLI run, alt = serve --map cold start",
    ),
    (
        "lookup",
        "QUERY serving on big (130k-entry table vs 4,096-entry LRU): server, poll and mailer do the work, mapper and router none; op = QUERY (per_s: 32 pipelined), alt = one MQUERY line of 64",
    ),
    (
        "path",
        "PATH src dst on paper (1986 scale) with source locality: the graph search dominates the socket; op = PATH on serve --map (bidirectional tier), alt = PATH on serve --pagf with a stored hierarchy",
    ),
    (
        "reload",
        "writes beside reads on big: a paced QUERY reader while an editor edits map files and RELOADs; op = RELOAD after a one-link cost edit (per_s: edits absorbed per second), alt = after a structural edit",
    ),
];

/// End-to-end metrics: what a user of the binary or the daemon sees.
/// Every workload reports every one; what `op` and `alt` are is part of
/// the workload's definition.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("rss_mb", "MB"),
    lower("op_p50_us", "us"),
    higher("op_per_s", "1/s"),
    lower("alt_p50_us", "us"),
];

/// Per-layer metrics, named `crate.metric`. A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: &[Def] = &[
    // The pipeline stages, in-process on the workload's world.
    lower("parser.parse_s", "s"),
    higher("parser.mb_per_s", "MB/s"),
    lower("core.parse_build_s", "s"),
    lower("graph.freeze_s", "s"),
    lower("graph.snapshot_write_s", "s"),
    lower("graph.snapshot_load_s", "s"),
    lower("graph.snapshot_bytes", "B"),
    lower("mapper.map_s", "s"),
    lower("mapper.relaxations", "count"),
    lower("mapper.pops", "count"),
    lower("mapper.stale_pops", "count"),
    lower("mapper.invented_links", "count"),
    lower("printer.print_s", "s"),
    lower("printer.routes", "count"),
    lower("printer.render_bytes", "B"),
    // The O(n) floors every cold start and reload pays.
    lower("mailer.routedb_build_s", "s"),
    lower("router.engine_build_s", "s"),
    lower("pabench.trace_overhead_pct", "%"),
    lower("server.cold_start_pagf_s", "s"),
    // The request path, in-process on the lookup script.
    lower("server.protocol_parse_ns", "ns"),
    lower("server.protocol_parse_mquery64_ns", "ns"),
    lower("mailer.resolve_exact_ns", "ns"),
    lower("mailer.resolve_suffix_ns", "ns"),
    lower("mailer.resolve_miss_ns", "ns"),
    lower("mailer.mmap_resolve_ns", "ns"),
    lower("server.cached_hit_ns", "ns"),
    lower("server.cached_miss_ns", "ns"),
    lower("telemetry.record_ns", "ns"),
    // The daemon from outside (lookup).
    lower("server.rtt_p99_us", "us"),
    lower("server.wire_us", "us"),
    lower("server.cpu_us_per_query", "us"),
    lower("server.cpu_us_per_batched_query", "us"),
    higher("server.cache_hit_ratio", "ratio"),
    lower("server.rtt_unix_p50_us", "us"),
    lower("server.rtt_udp_p50_us", "us"),
    lower("server.open20k_p50_us", "us"),
    lower("server.open20k_p99_us", "us"),
    lower("loadgen.late_max_us", "us"),
    // The router (path).
    lower("router.bidir_us", "us"),
    lower("router.ch_us", "us"),
    lower("router.forward_us", "us"),
    lower("router.bidir_settled", "count"),
    lower("router.ch_settled", "count"),
    lower("router.fallback_ratio", "ratio"),
    higher("router.ch_certified_ratio", "ratio"),
    lower("graph.ch_build_s", "s"),
    lower("graph.ch_shortcuts", "count"),
    lower("router.path_hot_p50_us", "us"),
    lower("router.path_home_p50_us", "us"),
    lower("router.path_rand_p50_us", "us"),
    lower("router.path_p99_us", "us"),
    lower("server.cold_start_ch_s", "s"),
    // Reload.
    lower("server.reload_parse_s", "s"),
    lower("server.reload_build_s", "s"),
    lower("server.reload_freeze_s", "s"),
    lower("server.reload_map_s", "s"),
    lower("server.reload_print_s", "s"),
    lower("server.reload_delta_s", "s"),
    lower("server.reload_full_s", "s"),
    higher("server.reload_delta_taken_ratio", "ratio"),
    lower("core.plan_delta_s", "s"),
    lower("server.reload_reader_p50_us", "us"),
    lower("server.reload_rss_first_round_mb", "MB"),
    lower("server.reload_rss_last_mb", "MB"),
];

/// One reported metric: its samples (round values or raw samples) and
/// the value reported, their median.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, one of [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The samples behind the value.
    pub summary: Summary,
}

impl Metric {
    /// The reported value: the median of the samples.
    pub fn value(&self) -> f64 {
        self.summary.median
    }
}

/// Metrics reported by one run, in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Reports `name` as the median of `samples`.
    pub fn put(&mut self, name: &'static str, samples: &[f64]) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name,
            summary: Summary::of(samples),
        });
    }

    /// Reports `name` as one measured value.
    pub fn put1(&mut self, name: &'static str, value: f64) {
        self.put(name, &[value]);
    }

    /// The metric named `name`, if reported.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Appends another set.
    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            debug_assert!(
                self.get(m.name).is_none(),
                "metric {} reported twice",
                m.name
            );
            self.0.push(m);
        }
    }
}

/// The definition of `name`.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics the rig reports, with the same units and
    /// directions.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(json::Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let registry = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), registry(END_TO_END));
        assert_eq!(names("per_layer"), registry(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name")
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_string(),
                    w.get("why")
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for m in doc.get("end_to_end").and_then(json::Value::as_arr).unwrap() {
            let bound = m.get("bound").and_then(json::Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200, "{name}: why has {} characters", why.len());
            assert!(!why.contains('\n'));
        }
    }
}
