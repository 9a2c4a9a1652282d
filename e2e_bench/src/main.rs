//! End-to-end benchmark of STRATA's Algorithm-1 pipeline.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload replays pre-fused OT layer tuples, generated from the
//! seed (the simulated machine's job id), through the unmodified
//! `strata::usecase::thermal::deploy_pipeline` at the default
//! `StrataConfig` (only the connector mode varies), and checks every
//! delivered report against a single-threaded reference built from the
//! same public stage functions. With `--trace 0` the run prints the
//! end-to-end metrics. With `--trace 1` it runs the pipeline a second
//! time, composed from the public `PipelineBuilder` API with a span
//! around every user function, checks that this traced run delivers
//! the same reports, and prints the per-layer metrics. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod probes;
mod reference;
mod run;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use reference::{Comparison, Normalized};
use stats::{median, percentile, ratio};
use trace::Stage;
use workload::{Workload, PARALLELISM};

/// Any failure aborts the run.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The paper's QoS threshold: a result is due within the 3 s recoat gap.
const QOS_MS: f64 = 3_000.0;

/// Set-ups per run that `setup_s` is the median of.
const SETUPS: usize = 3;

/// The longest run a `--seconds` may ask for.
const MAX_SECONDS: f64 = 120.0;

const USAGE: &str =
    "usage: strata-e2e-bench --workload <fine_cells_live|coarse_tcp_burst|deep_window_live> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed takes a whole number, got `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= MAX_SECONDS)
                        .ok_or_else(|| {
                            format!("--seconds takes 0 < s <= {MAX_SECONDS}, got `{value}`")
                        })?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The workload seed is the simulated machine's job id.
fn job_id(seed: u64) -> u32 {
    (seed % u64::from(u32::MAX)) as u32
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }
}

/// What one run reports.
struct Outcome {
    comparison: Comparison,
    metrics: Metrics,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.0.iter().enumerate() {
            // JSON has no NaN or infinity; a value that could not be
            // computed reads 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let separator = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{separator}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.comparison.failed == 0,
            self.comparison.expected,
            self.comparison.failed
        )
    }
}

fn normalized(reports: &[strata::AmTuple]) -> Vec<Normalized> {
    reports.iter().map(reference::normalize).collect()
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn describe(args: &Args, layers: u32, rounds: usize) {
    let w = &args.workload;
    let offered = if w.open_loop() {
        format!("open loop at {} images/s", w.rate)
    } else {
        "as fast as possible".to_string()
    };
    println!(
        "workload {}: job {}, {} paper-px cells, L = {}, {} connectors, {offered}, \
         {layers} layers per round, {rounds} round(s), {} cpus",
        w.name,
        job_id(args.seed),
        w.paper_cell_px,
        w.depth_l,
        if w.remote { "TCP" } else { "in-process" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
}

/// The end-to-end metrics of the untraced `deploy_pipeline`.
fn end_to_end(args: &Args) -> BenchResult<Outcome> {
    let w = &args.workload;
    let machine = w.machine(job_id(args.seed));
    let layers = w.layers(args.seconds);
    let expected = normalized(&reference::run(&machine, w, layers)?.reports);

    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(run::measure(&machine, w, layers, run::Pipeline::Library)?);
        // An open loop's schedule spans the run; the burst repeats
        // rounds of the same input until the time is used.
        if w.open_loop() || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while setups.len() < SETUPS {
        setups.push(run::setup_only(&machine, w, layers)?);
    }

    let mut comparison = Comparison::default();
    let mut latencies = Vec::new();
    let mut images_per_s = Vec::new();
    for round in &rounds {
        comparison += reference::compare(&expected, &round.normalized());
        latencies.extend(round.latencies_ms(w.rate));
        images_per_s.push(round.images_per_s(layers));
    }
    let (p50, n) = percentile(&latencies, 0.5).ok_or("the pipeline delivered no report")?;
    let (p95, _) = percentile(&latencies, 0.95).ok_or("the pipeline delivered no report")?;
    let beyond = latencies.iter().filter(|&&l| l > p95).count();
    let late = latencies.iter().filter(|&&l| l > QOS_MS).count();
    let expected_total = comparison.expected as f64;

    describe(args, layers, rounds.len());
    println!("report_latency_p50_ms {p50:.3} ms (n = {n} layers)");
    println!("report_latency_p95_ms {p95:.3} ms (n = {n} layers, {beyond} beyond)");
    println!(
        "qos_miss_ratio {:.4} ratio ({late} of {n} layers complete later than 3 s; \
         {} expected reports never arrived)",
        ratio(late as f64, n as f64),
        comparison.missing
    );
    println!(
        "images_per_s {:.3} 1/s (median of {} rounds)",
        median(&images_per_s),
        images_per_s.len()
    );
    println!(
        "setup_s {:.3} s (median of {} set-ups)",
        median(&setups),
        setups.len()
    );
    println!("peak_rss_mb {:.1} MB", peak_rss_mb()?);
    println!(
        "reports_failed_ratio {:.4} ratio ({} of {} expected reports missing, extra or different; {} delivered)",
        ratio(comparison.failed as f64, expected_total),
        comparison.failed,
        comparison.expected,
        comparison.delivered
    );

    let mut metrics = Metrics::default();
    metrics.push("report_latency_p50_ms", "ms", p50);
    metrics.push("report_latency_p95_ms", "ms", p95);
    metrics.push("images_per_s", "1/s", median(&images_per_s));
    metrics.push("setup_s", "s", median(&setups));
    Ok(Outcome {
        comparison,
        metrics,
    })
}

/// The per-layer metrics: an untraced and a traced round on the same
/// input, the isolated probes, and the scraped engine, broker, store
/// and registry values.
fn per_layer(args: &Args) -> BenchResult<Outcome> {
    let w = &args.workload;
    let machine = w.machine(job_id(args.seed));
    let layers = w.layers(args.seconds);
    let reference = reference::run(&machine, w, layers)?;
    let untraced = run::measure(&machine, w, layers, run::Pipeline::Library)?;
    let spans = trace::Spans::default();
    let traced = run::measure(&machine, w, layers, run::Pipeline::Traced(&spans))?;
    let spans = spans.take();

    let library_reports = untraced.normalized();
    let mut comparison = reference::compare(&normalized(&reference.reports), &library_reports);
    // The traced composition must deliver what deploy_pipeline delivered.
    comparison += reference::compare(&library_reports, &traced.normalized());

    let mut m = Metrics::default();
    let late = untraced.generator_late_ms(w.rate);
    m.push(
        "bench.generator_late_ms.p95",
        "ms",
        percentile(&late, 0.95).map_or(0.0, |(v, _)| v),
    );
    m.push(
        "bench.sequential_ms_per_image",
        "ms",
        reference.stage_ms_per_image,
    );
    m.push(
        "bench.trace_overhead_ratio",
        "ratio",
        ratio(
            median(&traced.latencies_ms(w.rate)),
            median(&untraced.latencies_ms(w.rate)),
        ),
    );
    m.push("amsim.ot_image_ms", "ms", median(&reference.render_ms));

    let specimen = trace::totals(&spans, Stage::IsolateSpecimen);
    let cell = trace::totals(&spans, Stage::IsolateCell);
    let label = trace::totals(&spans, Stage::LabelCell);
    let correlate = trace::totals(&spans, Stage::Correlate);
    m.push(
        "core.isolate_specimen.ms_per_image",
        "ms",
        ratio(specimen.busy_ns as f64, specimen.calls as f64) / 1e6,
    );
    m.push(
        "core.isolate_cell.ns_per_cell",
        "ns",
        ratio(cell.busy_ns as f64, cell.outputs as f64),
    );
    m.push(
        "core.label_cell.ns_per_cell",
        "ns",
        ratio(label.busy_ns as f64, label.calls as f64),
    );
    m.push(
        "core.label_cell.events_per_cell",
        "ratio",
        ratio(label.outputs as f64, label.calls as f64),
    );
    m.push(
        "core.correlate.ms_per_window",
        "ms",
        ratio(correlate.busy_ns as f64, correlate.calls as f64) / 1e6,
    );
    m.push(
        "core.correlate.events_per_window",
        "count",
        ratio(correlate.inputs as f64, correlate.calls as f64),
    );
    probes::codec(&reference.fused, &reference.events, &mut m)?;
    let stages = trace::stage_times(&spans, &traced.receipts(), PARALLELISM);
    m.push(
        "core.stage.raw_connector_ms",
        "ms",
        median(&stages.raw_connector_ms),
    );
    m.push(
        "core.stage.monitor_gap_ms",
        "ms",
        median(&stages.monitor_gap_ms),
    );
    m.push(
        "core.stage.event_connector_ms",
        "ms",
        median(&stages.event_connector_ms),
    );
    m.push("core.stage.deliver_ms", "ms", median(&stages.deliver_ms));
    probes::spe(&untraced.queries, &mut m);
    probes::pubsub(untraced.broker_text(), &mut m);
    probes::crc(&reference.fused, &mut m);
    probes::net(untraced.server_text.as_deref(), &mut m);
    probes::kv(&untraced.instance_text, &mut m);
    probes::cluster(
        &reference.windows,
        &workload::correlator_options(&machine, w.cell_px()),
        &mut m,
    )?;
    m.push("obs.render_ms", "ms", median(&untraced.render_ms));

    let spans_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.tsv", w.name, args.seed));
    trace::write(&spans_path, &spans)?;

    describe(args, layers, 1);
    for metric in &m.0 {
        println!("{} {} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "reports_failed_ratio {:.4} ratio ({} of {} expected reports missing, extra or different, \
         against the reference and between the traced and untraced runs)",
        ratio(comparison.failed as f64, comparison.expected as f64),
        comparison.failed,
        comparison.expected
    );
    println!("spans written to {}", spans_path.display());
    Ok(Outcome {
        comparison,
        metrics: m,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("strata-e2e-bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("strata-e2e-bench: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed = args(&[
            "--workload",
            "deep_window_live",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload.name, "deep_window_live");
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 20.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "fine_cells_live",
            "--seed",
            "1",
            "--seconds",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "fine_cells_live", "--seconds", "5"]).is_err());
        assert!(args(&["--trace"]).is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", "s", 0.8127);
        metrics.push("images_per_s", "1/s", f64::NAN);
        let outcome = Outcome {
            comparison: Comparison {
                expected: 10,
                delivered: 10,
                missing: 0,
                failed: 0,
            },
            metrics,
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"images_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }
}
