//! Metric definitions, the committed `BENCHMARK.json` manifest rendered
//! from them, and the one-line JSON result every run prints last.
//!
//! The tables here are the single source of truth: the run output, the
//! human-readable table and the manifest are all rendered from them, and
//! a test pins the committed manifest to [`render_manifest`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, waste).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees.  Every workload reports all of them
/// (see the benchmark README for what each means on each workload).
/// The open loop's p99 and the flood's ingest rate are per-layer
/// metrics: on a 2-vCPU VM they spread 0.26–0.53 and 0.1–0.25 (IQR ÷
/// median) between runs, too close to or beyond the largest bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("analyze_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Lower, 0.2),
    e2e("query_p50_ms", "ms", Lower, 0.25),
    e2e("query_qps", "1/s", Higher, 0.2),
];

/// Single layers, measured in the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    layer("twitter.build_tweet_graph_s", "s", Lower),
    layer("core.csr_build_s", "s", Lower),
    layer("twitter.mentions", "count", Higher),
    layer("kernels.lwcc_s", "s", Lower),
    layer("kernels.components_iterations", "count", Lower),
    layer("kernels.bc_s", "s", Lower),
    layer("kernels.bc_edges_scanned", "count", Lower),
    layer("kernels.bc_edges_per_s", "1/s", Higher),
    layer("mt.cas_retries_per_update", "ratio", Lower),
    layer("metrics.topk_s", "s", Lower),
    layer("kernels.triangles_s", "s", Lower),
    layer("twitter.mutual_filter_s", "s", Lower),
    layer("analyze.unattributed_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("obs.noop_rtt_p50_ms", "ms", Lower),
    layer("obs.handler_topk_p50_ms", "ms", Lower),
    layer("obs.handler_topk_p90_ms", "ms", Lower),
    layer("obs.handler_component_p50_ms", "ms", Lower),
    layer("obs.handler_degree_p50_ms", "ms", Lower),
    layer("obs.handler_ego_p50_ms", "ms", Lower),
    layer("obs.transport_share", "ratio", Lower),
    layer("obs.bc_sources_per_topk", "count", Lower),
    layer("loadgen.query_p99_ms", "ms", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.open_loop_samples", "count", Higher),
    layer("stream.flood_mentions_per_s", "1/s", Higher),
    layer("stream.ingest_batch_p50_ms", "ms", Lower),
    layer("stream.ingest_batch_p99_ms", "ms", Lower),
    layer("stream.snapshot_refresh_p50_ms", "ms", Lower),
    layer("stream.edges_inserted", "count", Lower),
    layer("stream.edges_expired", "count", Lower),
    layer("stream.duplicates", "count", Lower),
    layer("stream.replay_ns_per_mention", "ns", Lower),
    layer("stream.batch_overhead_ms", "ms", Lower),
    layer("stream.outside_batch_ms", "ms", Lower),
    layer("process.vmhwm_mb", "MiB", Lower),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A workload as listed in the manifest.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
}

/// Seconds one run measures (`run_seconds`, passed as `--seconds`).
pub const RUN_SECONDS: u64 = 40;

/// The benchmark command, run from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories holding the benchmark.
pub const PATHS: &[&str] = &["benchmark"];

fn json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_list(items: &[&str]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(item, &mut out);
    }
    out.push(']');
    out
}

fn metric_line(m: &MetricDef) -> String {
    let mut out = String::from("{\"name\": ");
    json_str(m.name, &mut out);
    out.push_str(", \"unit\": ");
    json_str(m.unit, &mut out);
    out.push_str(", \"better\": ");
    json_str(m.better.as_str(), &mut out);
    if let Some(bound) = m.bound {
        let _ = write!(out, ", \"bound\": {bound}");
    }
    out.push('}');
    out
}

/// Render `BENCHMARK.json` for `workloads`.
pub fn render_manifest(workloads: &[WorkloadDef]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": {},", json_list(COMMAND));
    let _ = writeln!(out, "  \"paths\": {},", json_list(PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        out.push_str("    {\"name\": ");
        json_str(w.name, &mut out);
        out.push_str(", \"why\": ");
        json_str(w.why, &mut out);
        out.push('}');
        out.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    for (key, table, last) in [
        ("end_to_end", END_TO_END, false),
        ("per_layer", PER_LAYER, true),
    ] {
        let _ = writeln!(out, "  \"{key}\": [");
        for (i, m) in table.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&metric_line(m));
            out.push_str(if i + 1 < table.len() { ",\n" } else { "\n" });
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    out.push_str("}\n");
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted: requests, ingest batches, analyses, gates.
    pub attempted: u64,
    /// Operations that failed or answered incorrectly.
    pub failed: u64,
    /// Why each failed operation failed (first few kept per kind).
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl RunReport {
    /// Count one operation and whether it succeeded.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed operation that was already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(why);
        }
    }

    /// Count a gate's outcome: `Ok` passes, `Err` fails with its reason.
    pub fn gate(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(format!("gate {name}: {why}"));
        }
    }

    /// Record metric `name` (must be defined in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "undefined metric {name}");
        self.values.insert(name, value);
    }

    /// Failed or incorrect operations ÷ operations attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The metrics a run reports: every end-to-end metric, or with
    /// `trace` every per-layer metric.  A metric the run did not measure,
    /// or measured as non-finite, is an error.
    pub fn selected(&self, trace: bool) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut missing = Vec::new();
        let mut out = Vec::with_capacity(table.len());
        for m in table {
            match self.values.get(m.name) {
                Some(&v) if v.is_finite() => out.push((m, v)),
                Some(&v) => missing.push(format!("{} = {v}", m.name)),
                None => missing.push(format!("{} not measured", m.name)),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing.join(", "))
        }
    }
}

/// The human-readable metric table (name, value, unit).
pub fn render_table(metrics: &[(&'static MetricDef, f64)]) -> String {
    let mut out = String::new();
    for (m, v) in metrics {
        let _ = writeln!(out, "{:<34} {:>18} {}", m.name, format_value(*v), m.unit);
    }
    out
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every value printed with all its digits.
pub fn render_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static MetricDef, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (m, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(m.name, &mut out);
        let _ = write!(out, ": {{\"value\": {v:?}, \"unit\": ");
        json_str(m.unit, &mut out);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is defined");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn result_line_renders_names_units_and_full_digits() {
        let defs = [find("setup_s").unwrap(), find("query_qps").unwrap()];
        let line = render_result(true, 12, 0, &[(defs[0], 0.812_734_5), (defs[1], 370.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}, \
             \"query_qps\": {\"value\": 370.0, \"unit\": \"1/s\"}}}"
        );
        let parsed = graphct_trace::json::parse(&line).expect("result line is JSON");
        let qps = parsed
            .get("metrics")
            .and_then(|m| m.get("query_qps"))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64());
        assert_eq!(qps, Some(370.0));
    }

    #[test]
    fn table_lists_every_metric_with_its_unit() {
        let m = find("stream.flood_mentions_per_s").unwrap();
        let table = render_table(&[(m, 123_456.7)]);
        assert!(table.starts_with("stream.flood_mentions_per_s"));
        assert!(table.trim_end().ends_with("1/s"));
    }

    #[test]
    fn selection_demands_every_metric() {
        let mut report = RunReport::default();
        assert!(report.selected(false).is_err());
        for m in END_TO_END {
            report.set(m.name, 1.0);
        }
        assert_eq!(report.selected(false).unwrap().len(), END_TO_END.len());
        report.set("query_p50_ms", f64::NAN);
        assert!(report.selected(false).unwrap_err().contains("query_p50_ms"));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut report = RunReport::default();
        report.check(true, String::new);
        report.gate("g", Err("corrupt".into()));
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert_eq!(report.failed_share(), 0.5);
        assert!(report.failures[0].contains("corrupt"));
    }
}
