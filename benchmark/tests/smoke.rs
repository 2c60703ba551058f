//! Every workload at smoke size, untraced and traced, in one test: the
//! program's telemetry session is process-global, so the runs must not
//! overlap.

use std::path::Path;

use graphct_benchmark::report::{END_TO_END, PER_LAYER};
use graphct_benchmark::workloads::{run, Options, Sizes, Workload};
use graphct_trace::CountingAllocator;

// As in the benchmark binary, so `peak_heap_mb` has something to read.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn every_workload_runs_checks_and_reports_every_metric() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".bench_out")
        .join("smoke");
    for workload in [Workload::AnalyzeSep1, Workload::ServeRead] {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                sizes: Sizes::smoke(),
                out_dir: out_dir.clone(),
            };
            let report = run(&opts);
            let name = workload.name();
            assert_eq!(
                report.failed, 0,
                "{name} trace={trace}: {:?}",
                report.failures
            );
            assert!(report.attempted > 0);
            let metrics = report
                .selected(trace)
                .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
            let table = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.len(), table.len());
            if trace {
                let spans = out_dir.join(format!("spans-{name}-seed7.jsonl"));
                let text = std::fs::read_to_string(&spans).expect("traced run writes its spans");
                assert!(text.contains("\"name\":\"kernels.bc\""), "{name}");
                assert!(text.contains("\"name\":\"loadgen.request\""), "{name}");
            } else {
                for (m, v) in &metrics {
                    assert!(*v > 0.0, "{name}: {} = {v} must be non-zero", m.name);
                }
            }
        }
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
