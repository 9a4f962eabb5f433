//! End-to-end and per-layer benchmark of the QuaSAQ reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload scale100|turbulent30|served3 --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with no
//! timer inside any measured loop; with `--trace 1` it prints the
//! per-layer metrics, timed from this package around calls into each
//! layer's public functions. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `README.md` beside this file maps each metric to its layer and
//! workload.

mod alloc;
mod gauge;
mod scale100;
mod served3;
mod stats;
mod timed;
mod turbulent30;

use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("decisions_per_s", "1/s"),
    ("admit_ratio", "ratio"),
    ("mean_utility", "utility"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that does not
/// reach a layer, or does not measure it, reports 0 for it (README.md
/// lists which workload measures what).
const PER_LAYER: &[(&str, &str)] = &[
    ("service.plane.admit_us", "us"),
    ("service.plane.teardown_us", "us"),
    ("service.plane.handle_us", "us"),
    ("core.cost.rank_us", "us"),
    ("core.cost.plans_ranked", "plans/query"),
    ("core.generator.generate_us", "us"),
    ("core.generator.plans_generated", "plans/query"),
    ("core.plane_self_us", "us"),
    ("core.useful_plan_ratio", "ratio"),
    ("stream.fluid.advance_s", "s"),
    ("stream.fluid.next_event_s", "s"),
    ("stream.fluid.add_s", "s"),
    ("stream.fluid.instants", "count"),
    ("stream.fluid.congestion_events", "count"),
    ("workload.driver_self_s", "s"),
    ("workload.run_throughput_s", "s"),
    ("service.admission.retries", "count"),
    ("service.admission.abandoned", "count"),
    ("service.admission.wait_p95_s", "s"),
    ("adapt.downshifts", "count"),
    ("adapt.upshifts", "count"),
    ("adapt.brownout_shed", "count"),
    ("fault.failed_over", "count"),
    ("fault.requeued", "count"),
    ("fault.dropped", "count"),
    ("violation_s", "s"),
    ("service.wire.codec_us", "us"),
    ("service.wire.bytes_per_request", "B"),
    ("shell.transport_us", "us"),
    ("shell.teardown_p50_us", "us"),
    ("admit_p50_us", "us"),
    ("admit_p99_us", "us"),
    ("admit_samples", "count"),
    ("alloc.per_query", "allocs/query"),
    ("alloc.per_request", "allocs/request"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
];

/// One run's raw result, before it is checked against the metric tables.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (decisions, or wire requests).
    pub attempted: u64,
    /// Operations that failed: I/O or wire errors, error effects, and
    /// operations covered by an output check that did not hold.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records `n` operations under one output check.
    pub fn check(&mut self, n: u64, holds: bool, what: &str) {
        self.attempted += n;
        if !holds {
            self.failed += n;
            eprintln!("output check failed: {what}");
        }
    }
}

/// Derives an independent 64-bit seed for one input generator.
pub fn derive(seed: u64, stream: u64) -> u64 {
    quasaq_sim::Rng::new(seed).fork(stream).next_u64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Formats the result line, or names the metric that breaks the tables.
fn render(report: &Report, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    for (name, value) in &report.metrics {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the {} table", mode(trace)));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
    }
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match report.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => v,
            None if *name == "fail_ratio" => report.failed as f64 / report.attempted.max(1) as f64,
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    ))
}

fn mode(trace: bool) -> &'static str {
    if trace {
        "per-layer"
    } else {
        "end-to-end"
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    alloc::use_one_arena();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = match args.workload.as_str() {
        "scale100" => scale100::run(args.seed, budget, args.trace),
        "turbulent30" => turbulent30::run(args.seed, budget, args.trace),
        "served3" => served3::run(args.seed, budget, args.trace),
        other => {
            eprintln!("e2ebench: unknown workload {other} (scale100, turbulent30, served3)");
            std::process::exit(2);
        }
    };
    if !args.trace {
        report.put("peak_rss_mb", alloc::peak_rss_mb().unwrap_or(0.0));
    }
    match render(&report, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the binary prints is declared, with the same unit, in
    /// the repository's `BENCHMARK.json`, and nothing else is.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_fills_unmeasured_layers_and_rejects_unknown_names() {
        let mut r = Report::default();
        r.check(10, true, "ok");
        r.put("trace.overhead_ratio", 1.25);
        let line = render(&r, true).expect("renders");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"trace.overhead_ratio\": {\"value\": 1.25, \"unit\": \"ratio\"}"));
        assert!(line.contains("\"fail_ratio\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(render(&r, false).is_err(), "end-to-end metrics are all required");
        r.put("no_such_metric", 1.0);
        assert!(render(&r, true).is_err());
    }
}
