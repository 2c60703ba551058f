//! Bench-history ledger: `BENCH_HISTORY.jsonl`.
//!
//! Every timing exhibit the `repro` binary runs appends one record per
//! (bench, case) to an append-only JSON-lines ledger, stamped with the
//! git commit and wall-clock time.  `repro check-regress` replays the
//! ledger and fails when the latest run of any case is more than
//! [`REGRESSION_THRESHOLD_PCT`] slower than the median of its earlier
//! runs — a cheap tripwire between full benchmark campaigns.
//!
//! Quick runs and full runs measure different problem sizes, so `quick`
//! is part of the grouping key: a `--quick` smoke run never compares
//! against full-size history.

use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use graphct_trace::json::{self, Json};
use graphct_trace::value::write_json_string;

/// Ledger file name, written to the working directory.
pub const DEFAULT_PATH: &str = "BENCH_HISTORY.jsonl";

/// A case is flagged when its latest mean exceeds the median of its
/// earlier runs by more than this percentage.
pub const REGRESSION_THRESHOLD_PCT: f64 = 10.0;

/// One ledger line: a single timed case from one `repro` run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Exhibit name (`fig4`, `ablation_bfs`, ...).
    pub bench: String,
    /// Case within the exhibit (`#atlflood/10pct`, `rmat/Hybrid`, ...).
    pub case: String,
    /// Whether the run used `--quick` problem sizes.
    pub quick: bool,
    /// Mean wall time in seconds.
    pub mean_s: f64,
    /// Median (p50) wall time in seconds, when the run carried
    /// per-sample or histogram data; absent on older ledger lines.
    pub p50_s: Option<f64>,
    /// 99th-percentile wall time in seconds (same provenance as
    /// [`p50_s`](HistoryEntry::p50_s)).
    pub p99_s: Option<f64>,
    /// Seconds since the Unix epoch at record time.
    pub unix_ts: u64,
    /// Short git commit hash, or `unknown` outside a repository.
    pub git_sha: String,
}

impl HistoryEntry {
    /// A new entry stamped with the current time and commit.
    pub fn now(bench: &str, case: &str, quick: bool, mean_s: f64) -> Self {
        Self {
            bench: bench.to_owned(),
            case: case.to_owned(),
            quick,
            mean_s,
            p50_s: None,
            p99_s: None,
            unix_ts: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            git_sha: current_git_sha(),
        }
    }

    /// Attach latency quantiles (from per-sample timings or a latency
    /// histogram) to this entry.
    pub fn with_quantiles(mut self, p50_s: f64, p99_s: f64) -> Self {
        self.p50_s = Some(p50_s);
        self.p99_s = Some(p99_s);
        self
    }

    fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"bench\":");
        write_json_string(&self.bench, &mut out);
        out.push_str(",\"case\":");
        write_json_string(&self.case, &mut out);
        out.push_str(&format!(
            ",\"quick\":{},\"mean_s\":{:.9}",
            self.quick, self.mean_s
        ));
        if let Some(p50) = self.p50_s {
            out.push_str(&format!(",\"p50_s\":{p50:.9}"));
        }
        if let Some(p99) = self.p99_s {
            out.push_str(&format!(",\"p99_s\":{p99:.9}"));
        }
        out.push_str(&format!(",\"unix_ts\":{},\"git_sha\":", self.unix_ts));
        write_json_string(&self.git_sha, &mut out);
        out.push('}');
        out
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            bench: v.get("bench")?.as_str()?.to_owned(),
            case: v.get("case")?.as_str()?.to_owned(),
            quick: matches!(v.get("quick"), Some(Json::Bool(true))),
            mean_s: v.get("mean_s")?.as_f64()?,
            p50_s: v.get("p50_s").and_then(Json::as_f64),
            p99_s: v.get("p99_s").and_then(Json::as_f64),
            unix_ts: v.get("unix_ts").and_then(Json::as_u64).unwrap_or(0),
            git_sha: v
                .get("git_sha")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned(),
        })
    }

    /// Grouping key: quick and full runs time different problem sizes.
    fn key(&self) -> (String, String, bool) {
        (self.bench.clone(), self.case.clone(), self.quick)
    }
}

/// Short hash of `HEAD`, or `unknown` when git is unavailable.
fn current_git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Append `entries` to the ledger at `path` (created if absent).
pub fn append(path: &Path, entries: &[HistoryEntry]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for entry in entries {
        writeln!(file, "{}", entry.to_json_line())?;
    }
    file.flush()
}

/// Read every well-formed ledger line in file order (the file is
/// append-only, so file order is chronological).  Unparseable lines are
/// reported, not fatal — the ledger outlives format tweaks.
pub fn load(path: &Path) -> std::io::Result<(Vec<HistoryEntry>, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line)
            .ok()
            .as_ref()
            .and_then(HistoryEntry::from_json)
        {
            Some(entry) => entries.push(entry),
            None => skipped += 1,
        }
    }
    Ok((entries, skipped))
}

/// One flagged case from [`check`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Exhibit name.
    pub bench: String,
    /// Case within the exhibit.
    pub case: String,
    /// Whether the flagged series is the `--quick` one.
    pub quick: bool,
    /// Median mean-seconds over the earlier runs.
    pub baseline_median_s: f64,
    /// The latest run's mean seconds.
    pub latest_s: f64,
    /// Slowdown of latest vs baseline, percent.
    pub delta_pct: f64,
}

/// Compare each case's latest run against the median of its earlier
/// runs; return every case slower by more than
/// [`REGRESSION_THRESHOLD_PCT`].  Cases with fewer than two runs have no
/// baseline and are skipped.
pub fn check(entries: &[HistoryEntry]) -> Vec<Regression> {
    use std::collections::BTreeMap;
    let mut series: BTreeMap<(String, String, bool), Vec<f64>> = BTreeMap::new();
    for e in entries {
        series.entry(e.key()).or_default().push(e.mean_s);
    }
    let mut regressions = Vec::new();
    for ((bench, case, quick), means) in series {
        let (&latest, earlier) = match means.split_last() {
            Some(split) if !split.1.is_empty() => split,
            _ => continue,
        };
        let mut sorted = earlier.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let baseline = sorted[sorted.len() / 2];
        if baseline <= 0.0 {
            continue;
        }
        let delta_pct = (latest / baseline - 1.0) * 100.0;
        if delta_pct > REGRESSION_THRESHOLD_PCT {
            regressions.push(Regression {
                bench,
                case,
                quick,
                baseline_median_s: baseline,
                latest_s: latest,
                delta_pct,
            });
        }
    }
    regressions
}

/// The latest quantile-carrying entry of one ledger series.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileRow {
    /// Exhibit name.
    pub bench: String,
    /// Case within the exhibit.
    pub case: String,
    /// Whether this is the `--quick` series.
    pub quick: bool,
    /// Median seconds of the latest quantile-carrying run.
    pub p50_s: f64,
    /// p99 seconds of the same run.
    pub p99_s: f64,
}

impl QuantileRow {
    /// The pinned `check-regress` report line for this row.  The format
    /// is part of the CLI contract (CI greps it): exactly
    /// `"<bench> / <case>[ (quick)]: p50 <x.xxxx>s  p99 <y.yyyy>s"`.
    pub fn render(&self) -> String {
        format!(
            "{} / {}{}: p50 {:.4}s  p99 {:.4}s",
            self.bench,
            self.case,
            if self.quick { " (quick)" } else { "" },
            self.p50_s,
            self.p99_s
        )
    }
}

/// For every `(bench, case, quick)` series, the latest entry that
/// carries both quantiles (file order is chronological).  Series that
/// never recorded quantiles are absent — the `check-regress` quantile
/// table only appears when histogram-backed data exists.
pub fn latest_quantiles(entries: &[HistoryEntry]) -> Vec<QuantileRow> {
    use std::collections::BTreeMap;
    let mut latest: BTreeMap<(String, String, bool), QuantileRow> = BTreeMap::new();
    for e in entries {
        if let (Some(p50), Some(p99)) = (e.p50_s, e.p99_s) {
            latest.insert(
                e.key(),
                QuantileRow {
                    bench: e.bench.clone(),
                    case: e.case.clone(),
                    quick: e.quick,
                    p50_s: p50,
                    p99_s: p99,
                },
            );
        }
    }
    latest.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bench: &str, case: &str, mean_s: f64) -> HistoryEntry {
        HistoryEntry {
            bench: bench.into(),
            case: case.into(),
            quick: false,
            mean_s,
            p50_s: None,
            p99_s: None,
            unix_ts: 1_700_000_000,
            git_sha: "abc1234".into(),
        }
    }

    #[test]
    fn append_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("graphct_hist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let entries = [
            entry("fig4", "#atlflood/10pct", 0.125),
            HistoryEntry::now("fig6", "rmat scale 12", true, 1.5),
        ];
        append(&path, &entries[..1]).unwrap();
        append(&path, &entries[1..]).unwrap();
        let (loaded, skipped) = load(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], entries[0]);
        assert_eq!(loaded[1].bench, "fig6");
        assert!(loaded[1].quick);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_skips_malformed_lines() {
        let dir = std::env::temp_dir().join(format!("graphct_hist_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        std::fs::write(
            &path,
            "not json\n{\"bench\":\"b\",\"case\":\"c\",\"quick\":false,\"mean_s\":1.0}\n",
        )
        .unwrap();
        let (loaded, skipped) = load(&path).unwrap();
        assert_eq!((loaded.len(), skipped), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_flags_only_regressed_cases() {
        let mut entries = vec![
            entry("fig4", "a", 1.0),
            entry("fig4", "a", 1.02),
            entry("fig4", "a", 0.98),
            // Latest run of `a`: 25% over the 1.0 median -> flagged.
            entry("fig4", "a", 1.25),
            // `b` got faster -> clean.
            entry("fig4", "b", 2.0),
            entry("fig4", "b", 1.5),
            // Single-run case: no baseline, skipped.
            entry("fig6", "new", 9.0),
        ];
        // Same case under --quick is a separate series: its 1.25 is the
        // only quick run, so no baseline.
        let mut quick = entry("fig4", "a", 1.25);
        quick.quick = true;
        entries.push(quick);

        let regressions = check(&entries);
        assert_eq!(regressions.len(), 1);
        let r = &regressions[0];
        assert_eq!(
            (r.bench.as_str(), r.case.as_str(), r.quick),
            ("fig4", "a", false)
        );
        assert_eq!(r.baseline_median_s, 1.0);
        assert!((r.delta_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn check_within_threshold_is_clean() {
        let entries = vec![
            entry("fig4", "a", 1.0),
            entry("fig4", "a", 1.0),
            entry("fig4", "a", 1.09),
        ];
        assert!(check(&entries).is_empty());
    }

    #[test]
    fn quantiles_round_trip_and_old_lines_still_load() {
        let dir = std::env::temp_dir().join(format!("graphct_hist_q_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        // One pre-quantile line (the live ledger predates the fields)
        // and one new-format line.
        std::fs::write(
            &path,
            "{\"bench\":\"b\",\"case\":\"c\",\"quick\":false,\"mean_s\":1.0}\n",
        )
        .unwrap();
        let with_q = entry("b", "c", 1.05).with_quantiles(1.02, 2.5);
        append(&path, std::slice::from_ref(&with_q)).unwrap();
        let (loaded, skipped) = load(&path).unwrap();
        assert_eq!((loaded.len(), skipped), (2, 0));
        assert_eq!((loaded[0].p50_s, loaded[0].p99_s), (None, None));
        assert_eq!(loaded[1], with_q);

        // check() still keys on mean_s only: both lines form one series.
        assert!(check(&loaded).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_quantiles_picks_newest_per_series() {
        let entries = vec![
            entry("obs", "bfs", 1.0).with_quantiles(0.9, 1.4),
            entry("obs", "bfs", 1.1).with_quantiles(1.0, 1.6),
            entry("obs", "bc", 2.0), // no quantiles -> absent
        ];
        let rows = latest_quantiles(&entries);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].p50_s, rows[0].p99_s), (1.0, 1.6));
    }

    #[test]
    fn quantile_row_format_is_pinned() {
        let row = QuantileRow {
            bench: "overhead".into(),
            case: "bfs_hybrid/disabled".into(),
            quick: true,
            p50_s: 0.012345,
            p99_s: 0.098765,
        };
        assert_eq!(
            row.render(),
            "overhead / bfs_hybrid/disabled (quick): p50 0.0123s  p99 0.0988s"
        );
        let full = QuantileRow {
            quick: false,
            ..row
        };
        assert_eq!(
            full.render(),
            "overhead / bfs_hybrid/disabled: p50 0.0123s  p99 0.0988s"
        );
    }

    #[test]
    fn json_line_escapes_hostile_names() {
        let e = entry("fig\"4\"", "case\\with\nnoise", 0.5);
        let line = e.to_json_line();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("fig\"4\""));
        assert_eq!(
            v.get("case").and_then(Json::as_str),
            Some("case\\with\nnoise")
        );
    }
}
