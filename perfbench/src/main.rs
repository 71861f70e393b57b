//! The kernel's benchmark: four workloads, end-to-end metrics measured with
//! tracing off, and a separate traced run that reports per-layer metrics.
//! See `README.md` beside this crate for why each workload exists and which
//! layer metric should move which end-to-end metric on which workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <converge|serve|ingest|par2|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod converge;
mod ingest;
mod inputs;
mod layers;
mod measure;
mod par2;
mod serve;

use measure::{median, peak_rss_mb, release_free_memory, reset_peak_rss, Samples, Tracer};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["converge", "serve", "ingest", "par2"];

/// What one workload run brings home. Latencies are raw samples; every
/// per-repetition figure is kept so the report can take medians.
#[derive(Debug, Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub cumulative_s: Vec<f64>,
    /// Cold first-query latencies, every sample.
    pub first_ms: Vec<f64>,
    /// Per repetition: the median of its cold first-query latencies.
    pub first_rep_ms: Vec<f64>,
    pub qps: Vec<f64>,
    pub query: Samples,
    pub insert: Samples,
    pub disk_bytes_per_row: Vec<f64>,
    /// Peak resident set size per repetition, in MiB.
    pub rss_mb: Vec<f64>,
    /// Per repetition: `[p50, p99]` of the query latencies, in µs.
    pub query_us: Vec<[f64; 2]>,
    /// Per repetition: `[p50, p99]` of the insert latencies, in µs.
    pub insert_us: Vec<[f64; 2]>,
    /// Open-loop schedule slip: how late each request was sent.
    pub late: Samples,
    /// Requests the server shed (`serve`).
    pub shed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub problems: Vec<String>,
    /// Observations printed with the run.
    pub notes: Vec<String>,
}

impl Run {
    /// An operation returned a wrong answer: the run is not correct.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.error(what);
    }

    /// An operation errored or was shed.
    pub fn error(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Run `rep` as many times as fit in `seconds` (at least once), recording each
/// repetition's peak resident set size.
pub fn repeat(seconds: f64, run: &mut Run, mut rep: impl FnMut(&mut Run)) {
    let started = Instant::now();
    loop {
        release_free_memory();
        reset_peak_rss();
        let (queries, inserts, firsts) = (run.query.len(), run.insert.len(), run.first_ms.len());
        rep(run);
        run.rss_mb.push(peak_rss_mb());
        run.first_rep_ms.push(median(&run.first_ms[firsts..]));
        let (query, insert) = (run.query.since(queries), run.insert.since(inserts));
        run.query_us
            .push([query.quantile_ns(0.5) / 1e3, query.quantile_ns(0.99) / 1e3]);
        if insert.len() > 0 {
            run.insert_us.push([
                insert.quantile_ns(0.5) / 1e3,
                insert.quantile_ns(0.99) / 1e3,
            ]);
        }
        // stop before a repetition that would overrun the budget
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / run.setup_s.len().max(1) as f64;
        if elapsed + per_rep > seconds {
            break;
        }
    }
}

/// Where the benchmark writes its span files and scratch directories:
/// `out/` beside this crate's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn column(rows: &[[f64; 2]], i: usize) -> Vec<f64> {
    rows.iter().map(|r| r[i]).collect()
}

/// The end-to-end metrics of one run: the gated set every workload
/// reports, then the workload-specific ones, which are printed but not
/// part of the result line (see `README.md`). Every figure is the median
/// over the run's repetitions; quantiles are exact order statistics of each
/// repetition's own samples.
fn end_to_end(run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    let gated = vec![
        metric("setup_s", median(&run.setup_s), "s"),
        metric("cumulative_s", median(&run.cumulative_s), "s"),
        metric("first_query_ms", median(&run.first_rep_ms), "ms"),
        metric("query_p50_us", median(&column(&run.query_us, 0)), "us"),
        metric("qps", median(&run.qps), "1/s"),
        metric("peak_rss_mb", median(&run.rss_mb), "MiB"),
    ];
    let mut printed = vec![
        metric("query_p99_us", median(&column(&run.query_us, 1)), "us"),
        metric(
            "failed_frac",
            run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    if !run.insert_us.is_empty() {
        printed.push(metric(
            "insert_p50_us",
            median(&column(&run.insert_us, 0)),
            "us",
        ));
        printed.push(metric(
            "insert_p99_us",
            median(&column(&run.insert_us, 1)),
            "us",
        ));
    }
    if !run.disk_bytes_per_row.is_empty() {
        printed.push(metric(
            "disk_bytes_per_row",
            median(&run.disk_bytes_per_row),
            "B/row",
        ));
    }
    if run.late.len() > 0 {
        printed.push(metric(
            "loadgen_late_p50_us",
            run.late.quantile_ns(0.5) / 1e3,
            "us",
        ));
        printed.push(metric(
            "loadgen_late_p99_us",
            run.late.quantile_ns(0.99) / 1e3,
            "us",
        ));
    }
    (gated, printed)
}

/// One run of the named workload: repetitions until `seconds` are spent.
pub fn run_workload(name: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    match name {
        "converge" => converge::run(seed, seconds, tr),
        "serve" => serve::run(seed, seconds, tr),
        "ingest" => ingest::run(seed, seconds, tr),
        "par2" => par2::run(seed, seconds, tr),
        other => unreachable!("workload {other} was validated"),
    }
}

fn print_run(name: &str, run: &Run, gated: &[Metric], printed: &[Metric]) {
    println!(
        "[{name}] reps={} attempted={} failed={} wrong={} shed={} query_samples={} insert_samples={}",
        run.setup_s.len(),
        run.attempted,
        run.failed,
        run.wrong,
        run.shed,
        run.query.len(),
        run.insert.len()
    );
    let per_rep = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("[{name}] per-rep setup_s: {}", per_rep(&run.setup_s));
    println!(
        "[{name}] per-rep cumulative_s: {}",
        per_rep(&run.cumulative_s)
    );
    println!(
        "[{name}] per-rep first_query_ms: {}",
        per_rep(&run.first_ms)
    );
    println!("[{name}] per-rep peak_rss_mb: {}", per_rep(&run.rss_mb));
    println!(
        "[{name}] per-rep query_p50_us: {}",
        per_rep(&column(&run.query_us, 0))
    );
    println!(
        "[{name}] per-rep query_p99_us: {}",
        per_rep(&column(&run.query_us, 1))
    );
    if !run.insert_us.is_empty() {
        println!(
            "[{name}] per-rep insert_p99_us: {}",
            per_rep(&column(&run.insert_us, 1))
        );
    }
    for note in &run.notes {
        println!("[{name}] {note}");
    }
    for problem in &run.problems {
        println!("[{name}] problem: {problem}");
    }
    for m in gated.iter().chain(printed) {
        println!("[{name}] {:<22} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // The builder's default parallelism reads this variable; every builder
    // here pins parallelism, and removing it keeps a malformed value from
    // aborting the run.
    std::env::remove_var("AIDX_TEST_PARALLELISM");
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.trace {
        let report = layers::traced_run(&args.workload, args.seed);
        println!(
            "{}",
            result_line(
                report.correct,
                report.attempted,
                report.failed,
                &report.metrics
            )
        );
        return;
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    let several = names.len() > 1;
    for name in names {
        let mut tr = Tracer::new(false);
        let run = run_workload(name, args.seed, args.seconds, &mut tr);
        let (gated, printed) = end_to_end(&run);
        print_run(name, &run, &gated, &printed);
        correct &= run.wrong == 0;
        attempted += run.attempted;
        failed += run.failed;
        // with several workloads, the result line names each metric
        // `<workload>.<metric>`
        metrics.extend(gated.into_iter().map(|m| Metric {
            name: if several {
                format!("{name}.{}", m.name)
            } else {
                m.name
            },
            ..m
        }));
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
}
