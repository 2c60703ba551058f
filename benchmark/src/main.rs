//! `graphct-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name and unit, then, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}`.
//! `--manifest` prints the `BENCHMARK.json` the metric tables define.

use std::path::PathBuf;
use std::process::ExitCode;

use graphct_benchmark::report::{render_manifest, render_result, render_table};
use graphct_benchmark::workloads::{self, Options, Sizes, Workload, DEFAULT_SEED, WORKLOADS};
use graphct_trace::CountingAllocator;

// The `graphct` CLI runs on the counting allocator; so does the
// benchmark, so both pay the same per-allocation cost.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: graphct-benchmark --workload analyze-sep1|serve-read \
[--seed N] [--seconds S] [--trace 0|1]\n       graphct-benchmark --manifest";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::AnalyzeSep1,
        seed: DEFAULT_SEED,
        seconds: graphct_benchmark::report::RUN_SECONDS as f64,
        trace: false,
        sizes: Sizes::full(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", render_manifest(WORKLOADS));
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} ({} available cores)",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let report = workloads::run(&opts);
    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }
    let metrics = match report.selected(opts.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: metrics missing: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", render_table(&metrics));
    println!(
        "{:<34} {:>18} ratio ({} of {} operations)",
        "failed_share",
        report.failed_share(),
        report.failed,
        report.attempted
    );
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{}",
        render_result(correct, report.attempted, report.failed, &metrics)
    );
    ExitCode::SUCCESS
}
