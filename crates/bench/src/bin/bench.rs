//! Wall-clock benchmark of the scenario-parallel experiment runner.
//!
//! Runs the Fig 6, Fig 7, queued-admission, and availability-under-faults
//! harness scenario suites twice — once as a plain serial loop over
//! [`run_throughput`], once through [`run_throughput_scenarios`] — verifies
//! the outputs are bit-identical, and records the timings (plus the fault
//! suite's robustness metrics) in `BENCH_throughput.json` at the repo root:
//!
//! ```text
//! cargo run --release -p quasaq-bench --bin bench [-- --quick]
//! ```
//!
//! `--quick` shrinks the horizons so the determinism check stays cheap
//! enough for CI, and skips the JSON write so CI runs never clobber the
//! committed full-mode artifact.
//!
//! Two further modes drive the declarative scenario DSL (`quasaq-scenario`):
//! `--scenario <file>` executes one TOML scenario serially and
//! scenario-parallel, asserts byte-identical reports, and prints
//! harness-shaped JSON rows; `--gallery` runs every `scenarios/*.toml`
//! against its committed golden (the CI regression gate). Speedup is
//! bounded by the machine: on a single core the runner degrades to the
//! serial loop (speedup ~1.0), which the artifact records via the `cores`
//! field rather than pretending otherwise.
//!
//! Two modes drive the served control plane (`quasaq-shell`):
//! `--serve [--addr A] [--threads N] [--seed S]` runs a shell until killed;
//! `--load [--quick]` is the service-shell throughput study — it first pins
//! decision-identity against the in-process driver, then measures wall-clock
//! decisions/sec through the loopback at 1/2/4 shell threads (~10^5
//! requests per row, median and min..max over 3 interleaved samples) and
//! splices a `"service"` section into `BENCH_throughput.json` (skipped in
//! `--quick`, the CI smoke variant, which replays ~60 requests once).
//!
//! An unknown flag is an error (exit status 2), so a stale option in a
//! script fails loudly instead of running some other mode.

use std::time::Instant;

use quasaq_sim::{FaultPlan, LinkModel, LinkPlan, LinkSpec, ServerId, SimDuration, SimTime};
use quasaq_workload::{
    run_throughput, run_throughput_scenarios, worker_count, AdaptationConfig, CostKind,
    DegradationMetrics, FaultMetrics, SystemKind, Testbed, TestbedConfig, ThroughputConfig,
    ThroughputResult,
};

struct Suite {
    name: &'static str,
    scenarios: Vec<(SystemKind, ThroughputConfig)>,
}

struct Timing {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    bit_identical: bool,
    /// Robustness metrics per fault-injected scenario (label, metrics).
    robustness: Vec<(String, FaultMetrics)>,
}

fn suites(quick: bool) -> Vec<Suite> {
    let mut fig6 = ThroughputConfig::fig6();
    let mut fig7 = ThroughputConfig::fig7();
    let mut queued = ThroughputConfig::queued();
    let mut avail = ThroughputConfig::availability();
    if quick {
        fig6.horizon = SimTime::from_secs(120);
        fig7.horizon = SimTime::from_secs(120);
        queued.horizon = SimTime::from_secs(120);
        // Shrink the outage with the horizon so the crash still fires.
        avail.horizon = SimTime::from_secs(120);
        avail.faults = Some(FaultPlan::crash_restart(
            ServerId(0),
            SimTime::from_secs(40),
            SimTime::from_secs(80),
        ));
    }
    vec![
        Suite {
            name: "fig6",
            scenarios: vec![
                (SystemKind::VdbmsQosApi, fig6.clone()),
                (SystemKind::Quasaq(CostKind::Lrb), fig6.clone()),
                (SystemKind::Vdbms, fig6),
            ],
        },
        Suite {
            name: "fig7",
            scenarios: vec![
                (SystemKind::Quasaq(CostKind::Lrb), fig7.clone()),
                (SystemKind::Quasaq(CostKind::Random), fig7),
            ],
        },
        // The queued admission front end stresses a different event mix
        // (retries, ladder walks, stream deadlines) through the same
        // serial-vs-parallel bit-identity check.
        Suite {
            name: "queued",
            scenarios: vec![
                (SystemKind::Vdbms, queued.clone()),
                (SystemKind::VdbmsQosApi, queued.clone()),
                (SystemKind::Quasaq(CostKind::Lrb), queued),
            ],
        },
        // Fault injection adds crash/failover/requeue edges to the event
        // mix; the robustness metrics land in the JSON artifact.
        Suite {
            name: "availability",
            scenarios: vec![
                (SystemKind::Vdbms, avail.clone()),
                (SystemKind::VdbmsQosApi, avail.clone()),
                (SystemKind::Quasaq(CostKind::Lrb), avail),
            ],
        },
    ]
}

/// One cluster size of the scaling study: a Spread-placement testbed with
/// load proportional to the cluster.
struct ScaleTiming {
    servers: u32,
    videos: usize,
    serial_ms: f64,
}

fn scale_cases(quick: bool) -> Vec<(u32, usize)> {
    // 100 videos per server keeps the catalog proportional to the
    // cluster: the 100-server rung is the ISSUE's 10^4-video testbed.
    let sizes: &[u32] = if quick { &[3, 30] } else { &[3, 30, 100] };
    sizes.iter().map(|&s| (s, s as usize * 100)).collect()
}

/// Timing samples per run: cheap rungs get more, because their runs are
/// so short that a single scheduler hiccup shifts a ratio by several
/// percent.
fn reps_for(servers: u32) -> usize {
    if servers <= 3 {
        20
    } else if servers <= 30 {
        5
    } else {
        3
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`reps` wall time of one deterministic run, with its output.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    let mut best = ms(t);
    for _ in 1..reps {
        let t = Instant::now();
        let _ = f();
        best = best.min(ms(t));
    }
    (best, out)
}

/// Interleaved best-of-`reps` timing of two deterministic runs. A
/// single-shot timing on a shared box jitters by ~10%, which swamps the
/// few-percent deltas the paired rows exist to measure; alternating the
/// sides inside one sampling loop makes clock drift hit both equally, and
/// best-of-N converges on each side's undisturbed cost.
#[allow(clippy::type_complexity)]
fn timed_pair<R>(
    reps: usize,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> R,
) -> ((f64, R), (f64, R)) {
    let t = Instant::now();
    let a_out = a();
    let mut a_ms = ms(t);
    let t = Instant::now();
    let b_out = b();
    let mut b_ms = ms(t);
    for _ in 1..reps {
        let t = Instant::now();
        let _ = a();
        a_ms = a_ms.min(ms(t));
        let t = Instant::now();
        let _ = b();
        b_ms = b_ms.min(ms(t));
    }
    ((a_ms, a_out), (b_ms, b_out))
}

/// One rung of the plan-cache study: the same Zipf-skewed run with full
/// enumeration vs the memoized plan cache. `burst > 1` turns it into the
/// flash-crowd case, where same-instant arrivals go through the
/// bulk-admit prefetch that amortizes enumeration across the batch.
struct CachedTiming {
    servers: u32,
    videos: usize,
    burst: usize,
    uncached_ms: f64,
    cached_ms: f64,
    bit_identical: bool,
}

fn run_cached(servers: u32, videos: usize, burst: usize, quick: bool, reps: usize) -> CachedTiming {
    let horizon = SimTime::from_secs(if quick { 30 } else { 120 });
    let period_us = (3_000_000 / servers as u64).max(1);
    let uncached_cfg = ThroughputConfig {
        testbed: quasaq_workload::TestbedConfig::scale(servers, videos),
        horizon,
        arrival_period: Some(quasaq_sim::SimDuration::from_micros(period_us)),
        // Uniform access over a 10^4-video catalog with 36 uniform QoP
        // rungs would make cache hits vanishingly rare; the Zipf skew
        // plus the paper-calibrated QoP mix (~85% of requests at the top
        // rung) model the popular-title traffic the cache exists for
        // (EXPERIMENTS.md).
        video_skew: 1.1,
        qop_mix: quasaq_workload::QopMix::PaperSkewed,
        arrival_burst: burst,
        ..ThroughputConfig::fig6()
    };
    let cached_cfg = ThroughputConfig { plan_cache: true, ..uncached_cfg.clone() };
    let _ = Testbed::shared(uncached_cfg.testbed.clone());
    let ((uncached_ms, uncached), (cached_ms, cached)) = timed_pair(
        reps,
        || run_throughput(SystemKind::Quasaq(CostKind::Lrb), &uncached_cfg),
        || run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cached_cfg),
    );
    CachedTiming {
        servers,
        videos,
        burst,
        uncached_ms,
        cached_ms,
        bit_identical: uncached == cached,
    }
}

/// One rung of the stochastic-link study: the same scaled testbed run
/// three ways — steady (fixed links), degraded (a sampled Markov capacity
/// process with the QoP ladder frozen), and adaptive (same process with
/// the congestion-driven renegotiation loop and admission brownout on) —
/// with the adaptive run's degradation counters recorded.
struct StochasticTiming {
    servers: u32,
    videos: usize,
    steady_ms: f64,
    degraded_ms: f64,
    adaptive_ms: f64,
    degraded_violation_s: f64,
    adaptive_violation_s: f64,
    degradation: DegradationMetrics,
}

/// The Markov good/degraded/bad capacity process the stochastic rows
/// sample, dwell times scaled so several transitions land inside the
/// horizon. The bad state holds a third of the stationary distribution:
/// brownout arms when ≥25% of servers are congested at once, and at 100
/// servers the concurrently-bad fraction concentrates on its mean, so a
/// rarer bad state would never trip the fleet-wide threshold there even
/// though smaller rungs cross it on binomial noise.
fn stochastic_links(servers: u32, horizon: SimTime, seed: u64, quick: bool) -> LinkPlan {
    let dwell = if quick { [15, 10, 10] } else { [50, 30, 40] };
    LinkPlan::sample(
        seed,
        ServerId::first_n(servers),
        horizon,
        LinkModel::Markov { factors: [1.0, 0.45, 0.2], dwell: dwell.map(SimDuration::from_secs) },
    )
}

fn run_stochastic(servers: u32, videos: usize, quick: bool) -> StochasticTiming {
    // A longer quick horizon than the other studies: utilization has to
    // build up before a capacity dip congests, so 30 s would leave the
    // adaptation loop with nothing to do.
    let horizon = SimTime::from_secs(if quick { 60 } else { 120 });
    let period_us = (3_000_000 / servers as u64).max(1);
    let steady_cfg = ThroughputConfig {
        testbed: TestbedConfig::scale(servers, videos),
        horizon,
        arrival_period: Some(SimDuration::from_micros(period_us)),
        ..ThroughputConfig::fig6()
    };
    let degraded_cfg = ThroughputConfig {
        links: Some(stochastic_links(servers, horizon, steady_cfg.seed, quick)),
        ..steady_cfg.clone()
    };
    let adaptive_cfg =
        ThroughputConfig { adaptation: Some(AdaptationConfig::default()), ..degraded_cfg.clone() };
    let _ = Testbed::shared(steady_cfg.testbed.clone());
    let reps = reps_for(servers);
    let kind = SystemKind::Quasaq(CostKind::Lrb);
    let ((steady_ms, _steady), (degraded_ms, degraded)) = timed_pair(
        reps,
        || run_throughput(kind, &steady_cfg),
        || run_throughput(kind, &degraded_cfg),
    );
    let (adaptive_ms, adaptive) = best_of(reps, || run_throughput(kind, &adaptive_cfg));
    StochasticTiming {
        servers,
        videos,
        steady_ms,
        degraded_ms,
        adaptive_ms,
        degraded_violation_s: degraded.faults.as_ref().map_or(0.0, |f| f.qos_violation_secs),
        adaptive_violation_s: adaptive.faults.as_ref().map_or(0.0, |f| f.qos_violation_secs),
        degradation: adaptive.degradation.clone().unwrap_or_default(),
    }
}

fn run_scale(servers: u32, videos: usize, quick: bool) -> ScaleTiming {
    let horizon = SimTime::from_secs(if quick { 30 } else { 120 });
    // Scale arrival rate with the cluster so every rung runs near the same
    // per-server load (the paper's 1 q/s targets three servers).
    let period_us = (3_000_000 / servers as u64).max(1);
    let cfg = ThroughputConfig {
        testbed: quasaq_workload::TestbedConfig::scale(servers, videos),
        horizon,
        arrival_period: Some(quasaq_sim::SimDuration::from_micros(period_us)),
        ..ThroughputConfig::fig6()
    };
    // Warm the shared-testbed cache so the timed region excludes catalog
    // generation.
    let _ = Testbed::shared(cfg.testbed.clone());
    let (serial_ms, _) =
        best_of(reps_for(servers), || run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg));
    ScaleTiming { servers, videos, serial_ms }
}

fn run_suite(suite: &Suite) -> Timing {
    // Warm the shared-testbed cache so neither side pays library
    // generation inside its timed region.
    for (_, cfg) in &suite.scenarios {
        let _ = Testbed::shared(cfg.testbed.clone());
    }

    let t0 = Instant::now();
    let serial: Vec<ThroughputResult> =
        suite.scenarios.iter().map(|(s, c)| run_throughput(*s, c)).collect();
    let serial_ms = ms(t0);

    let t1 = Instant::now();
    let parallel = run_throughput_scenarios(&suite.scenarios);
    let parallel_ms = ms(t1);

    let robustness =
        serial.iter().filter_map(|r| r.faults.clone().map(|f| (r.label.clone(), f))).collect();
    Timing {
        name: suite.name,
        serial_ms,
        parallel_ms,
        bit_identical: serial == parallel,
        robustness,
    }
}

/// `--scenario <file>` mode: execute one TOML scenario serially and
/// scenario-parallel, assert the rendered reports are byte-identical, and
/// print rows in the harness JSON shape (one per run stage) so scenario
/// timings graft onto the `BENCH_throughput.json` schema.
fn run_scenario_mode(file: &str) {
    use quasaq_scenario::{run_file, ExecMode};
    let path = std::path::Path::new(file);
    let t0 = Instant::now();
    let serial = run_file(path, ExecMode::Serial).unwrap_or_else(|e| panic!("{file}: {e}"));
    let serial_ms = ms(t0);
    let t1 = Instant::now();
    let parallel = run_file(path, ExecMode::Parallel).unwrap_or_else(|e| panic!("{file}: {e}"));
    let parallel_ms = ms(t1);
    let identical = serial.render() == parallel.render();
    print!("{}", serial.render());
    println!("  \"harnesses\": [");
    let rows = serial.runs.len();
    for (i, run) in serial.runs.iter().enumerate() {
        println!(
            "    {{\"name\": \"{}/{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}{}",
            serial.name,
            run.stage,
            serial_ms,
            parallel_ms,
            serial_ms / parallel_ms.max(1e-9),
            identical,
            if i + 1 < rows { "," } else { "" }
        );
    }
    println!("  ],");
    println!("  \"fingerprint\": \"{:016x}\"", serial.fingerprint());
    assert!(identical, "{file}: parallel report diverged from serial");
}

/// `--gallery` mode: the CI smoke gate over every committed scenario.
/// Each gallery entry runs serially and scenario-parallel; both renderings
/// must be byte-identical to each other and to the committed golden.
fn run_gallery_mode() {
    use quasaq_scenario::{run_file, ExecMode};
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let dir = root.join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "gallery shrank below 6 scenarios: {}", files.len());
    for path in &files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let t0 = Instant::now();
        let serial = run_file(path, ExecMode::Serial).unwrap_or_else(|e| panic!("{name}: {e}"));
        let serial_ms = ms(t0);
        let t1 = Instant::now();
        let parallel = run_file(path, ExecMode::Parallel).unwrap_or_else(|e| panic!("{name}: {e}"));
        let parallel_ms = ms(t1);
        let rendered = serial.render();
        assert!(rendered == parallel.render(), "{name}: parallel report diverged from serial");
        let golden = dir.join("golden").join(&name).with_extension("golden");
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", golden.display()));
        assert!(
            rendered == expected,
            "{name}: report drifted from {} — rebless via QUASAQ_BLESS=1 cargo test \
             --test scenario_gallery if intentional",
            golden.display()
        );
        println!(
            "  {name}: serial {serial_ms:>8.1} ms | parallel {parallel_ms:>8.1} ms | \
             fp {:016x} | golden OK",
            serial.fingerprint()
        );
    }
    println!("gallery OK: {} scenarios bit-identical serial vs parallel", files.len());
}

/// One `--load` measurement row: the loopback replay at a given shell
/// thread count, striped over as many connections, sampled `wall_ms.len()`
/// times. The counts are the first sample's.
struct ServiceRow {
    threads: usize,
    queries: u64,
    admitted: u64,
    rejected: u64,
    queued: u64,
    wall_ms: Vec<f64>,
}

impl ServiceRow {
    /// Wall time as (median, min, max) in milliseconds.
    fn wall(&self) -> (f64, f64, f64) {
        let mut w = self.wall_ms.clone();
        w.sort_by(f64::total_cmp);
        let mid = w.len() / 2;
        let median = if w.len() % 2 == 1 { w[mid] } else { (w[mid - 1] + w[mid]) / 2.0 };
        (median, w[0], w[w.len() - 1])
    }

    /// Decisions (admitted, rejected or queued requests) per second at a
    /// given wall time.
    fn rate(&self, wall_ms: f64) -> f64 {
        self.queries as f64 / (wall_ms / 1e3).max(1e-9)
    }
}

/// `--serve` mode: run a shell until killed, for external load drivers.
fn run_serve_mode(args: &[String]) -> ! {
    let arg =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let addr = arg("--addr").unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let threads: usize = arg("--threads").map_or(4, |v| v.parse().expect("--threads N"));
    let seed: u64 = arg("--seed").map_or(7, |v| v.parse().expect("--seed N"));
    let system = SystemKind::Quasaq(CostKind::Lrb);
    let throughput = ThroughputConfig { seed, ..ThroughputConfig::fig6() };
    let shell = quasaq_shell::Shell::serve(
        &addr,
        quasaq_shell::ShellConfig { system, throughput, threads },
    )
    .unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    println!("serving {} on {} ({threads} thread(s), seed {seed})", system.label(), shell.addr());
    loop {
        std::thread::park();
    }
}

/// `--load` mode: the service-shell throughput study.
///
/// First pins the refactor's acceptance claim — a single-connection
/// loopback replay at a sub-clip horizon is decision-identical to the
/// in-process driver — then measures wall-clock decisions/sec at
/// 1/2/4 shell threads and (full mode only) splices the rows into
/// `BENCH_throughput.json` as a `"service"` section.
fn run_load_mode(quick: bool) {
    use quasaq_shell::{run_loopback, Shell, ShellConfig};
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let system = SystemKind::Quasaq(CostKind::Lrb);
    println!("load mode: service-shell throughput study ({cores} core(s))");

    // Decision-identity gate: horizon under the shortest clip (30 s), so
    // the in-process driver issues exactly one Admit per arrival — the
    // same command sequence a single-connection replay sends.
    let ident_cfg =
        ThroughputConfig { horizon: SimTime::from_secs(25), ..ThroughputConfig::fig6() };
    let shell = Shell::serve(
        "127.0.0.1:0",
        ShellConfig { system, throughput: ident_cfg.clone(), threads: 1 },
    )
    .expect("bind loopback");
    let served = run_loopback(shell.addr(), &ident_cfg, 1).expect("loopback replay");
    shell.shutdown();
    let driven = run_throughput(system, &ident_cfg);
    let identical = served.queries == driven.queries
        && served.admitted == driven.admitted
        && served.rejected == driven.rejected
        && served.access == driven.access;
    println!(
        "  decision identity vs in-process driver: {identical} \
         ({} queries, {} admitted, {} rejected)",
        served.queries, served.admitted, served.rejected
    );
    assert!(identical, "loopback decisions diverged from the in-process driver");

    // Full mode sizes each row to ~10^5 requests (a 3 ms mean
    // interarrival over 300 simulated seconds) so a row takes seconds, not
    // milliseconds, and samples every thread count 3 times, interleaved
    // so drift on a shared box hits all rows alike. Quick mode keeps the
    // CI-sized paper arrival stream and one sample.
    let (cfg, reps) = if quick {
        (ThroughputConfig { horizon: SimTime::from_secs(60), ..ThroughputConfig::fig6() }, 1)
    } else {
        let cfg = ThroughputConfig {
            horizon: SimTime::from_secs(300),
            arrival_period: Some(SimDuration::from_millis(3)),
            ..ThroughputConfig::fig6()
        };
        (cfg, 3)
    };
    let mut rows: Vec<ServiceRow> = Vec::new();
    for rep in 0..reps {
        for (slot, threads) in [1usize, 2, 4].into_iter().enumerate() {
            let shell = Shell::serve(
                "127.0.0.1:0",
                ShellConfig { system, throughput: cfg.clone(), threads },
            )
            .expect("bind loopback");
            let t0 = Instant::now();
            let report = run_loopback(shell.addr(), &cfg, threads).expect("loopback replay");
            let wall_ms = ms(t0);
            shell.shutdown();
            if rep == 0 {
                rows.push(ServiceRow {
                    threads,
                    queries: report.queries,
                    admitted: report.admitted,
                    rejected: report.rejected,
                    queued: report.queued,
                    wall_ms: vec![wall_ms],
                });
            } else {
                let row = &mut rows[slot];
                // With one connection the command order is fixed, so a
                // repeat must decide exactly as the first sample did.
                if threads == 1 {
                    assert_eq!(
                        (report.queries, report.admitted, report.rejected),
                        (row.queries, row.admitted, row.rejected),
                        "a repeated single-connection replay decided differently"
                    );
                }
                row.wall_ms.push(wall_ms);
            }
        }
    }
    for r in &rows {
        let (median, min, max) = r.wall();
        println!(
            "  {} shell thread(s) / {} connection(s): {} queries ({} admitted, {} rejected, \
             {} queued) | wall {median:.1} ms [{min:.1} .. {max:.1}] over {} rep(s) | \
             {:.0} decisions/s [{:.0} .. {:.0}]",
            r.threads,
            r.threads,
            r.queries,
            r.admitted,
            r.rejected,
            r.queued,
            r.wall_ms.len(),
            r.rate(median),
            r.rate(max),
            r.rate(min),
        );
    }

    if quick {
        println!("quick mode: skipping BENCH_throughput.json (full run owns the artifact)");
        return;
    }
    splice_service_section(&rows, identical, cores);
}

/// Replaces (or inserts) the `"service"` object in
/// `BENCH_throughput.json`, preserving the rest of the artifact so
/// `--load` composes with the main bench run in either order.
fn splice_service_section(rows: &[ServiceRow], identical: bool, cores: usize) {
    let mut section = String::from("  \"service\": {\n");
    section.push_str(&format!("    \"decision_identical\": {identical},\n"));
    section.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (median, min, max) = r.wall();
        section.push_str(&format!(
            "      {{\"shell_threads\": {}, \"connections\": {}, \"queries\": {}, \
             \"admitted\": {}, \"rejected\": {}, \"queued\": {}, \"reps\": {}, \
             \"wall_ms_median\": {:.3}, \"wall_ms_min\": {:.3}, \"wall_ms_max\": {:.3}, \
             \"decisions_per_s_median\": {:.1}, \"decisions_per_s_min\": {:.1}, \
             \"decisions_per_s_max\": {:.1}}}{}\n",
            r.threads,
            r.threads,
            r.queries,
            r.admitted,
            r.rejected,
            r.queued,
            r.wall_ms.len(),
            median,
            min,
            max,
            r.rate(median),
            r.rate(max),
            r.rate(min),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    section.push_str("    ]\n  },\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let json = match std::fs::read_to_string(path) {
        Ok(mut existing) => {
            // Drop a previous service object (fixed two-space layout).
            if let Some(start) = existing.find("  \"service\": {") {
                let tail = &existing[start..];
                let end = tail.find("\n  },\n").map(|e| start + e + "\n  },\n".len());
                if let Some(end) = end {
                    existing.replace_range(start..end, "");
                }
            }
            let anchor = existing
                .find("  \"overall_speedup\"")
                .expect("BENCH_throughput.json missing overall_speedup anchor");
            existing.insert_str(anchor, &section);
            existing
        }
        // No artifact yet: a minimal standalone one.
        Err(_) => format!(
            "{{\n  \"cores\": {cores},\n{section}  \"all_bit_identical\": {identical}\n}}\n"
        ),
    };
    std::fs::write(path, &json).expect("write BENCH_throughput.json");
    println!("wrote service section into {path}");
}

/// Flags that stand alone.
const FLAGS: &[&str] = &["--quick", "--smoke", "--serve", "--load", "--gallery"];
/// Flags that take the next argument as their value.
const VALUED: &[&str] = &["--scenario", "--addr", "--threads", "--seed"];

/// Exits with status 2 on an unknown flag or a valued flag missing its
/// value.
fn check_args(args: &[String]) {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        let known = if VALUED.contains(&arg.as_str()) {
            rest.next().is_some()
        } else {
            FLAGS.contains(&arg.as_str())
        };
        if !known {
            eprintln!(
                "bench: unknown flag or missing value: {arg}\n\
                 usage: bench [--quick] [--smoke] [--gallery] [--scenario FILE] [--load] \
                 [--serve [--addr A] [--threads N] [--seed S]]"
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if args.iter().any(|a| a == "--serve") {
        run_serve_mode(&args);
    }
    if args.iter().any(|a| a == "--load") {
        run_load_mode(quick);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        let file = args.get(i + 1).expect("--scenario takes a TOML file path");
        run_scenario_mode(file);
        return;
    }
    if args.iter().any(|a| a == "--gallery") {
        println!("gallery mode: scenario DSL golden suite ({cores} core(s))");
        run_gallery_mode();
        return;
    }

    if smoke {
        // CI smoke, seconds not minutes. Cached admission vs plain
        // admission: the 3-server quick rung with flash-crowd bursts, and
        // the 30-server rung under the Zipf/paper-skewed mix (secure
        // requests included). The cache path ranks full plan lists while
        // plain LRB admission scans without building them, so the
        // identity is a whole-run check of one against the other.
        println!(
            "smoke mode: 3- and 30-server cached-admission and brownout checks ({cores} core(s))"
        );
        for (servers, videos, burst) in [(3, 300, 4), (30, 3000, 1)] {
            let c = run_cached(servers, videos, burst, true, reps_for(servers));
            println!(
                "  {servers:>3} servers: uncached {:>9.1} ms | cached {:>9.1} ms | \
                 bit-identical: {}",
                c.uncached_ms, c.cached_ms, c.bit_identical
            );
            assert!(c.bit_identical, "cached admission diverged at {servers} servers");
        }
        // Stochastic-link brownout smoke: crush every link to 5% mid-run.
        // The plain system must detect congestion and start shedding
        // arrivals by QoP class.
        let horizon = SimTime::from_secs(30);
        let crush = LinkPlan {
            changes: ServerId::first_n(3)
                .map(|server| LinkSpec { server, at: SimTime::from_secs(5), factor: 0.05 })
                .collect(),
        };
        let cfg = ThroughputConfig {
            testbed: TestbedConfig::scale(3, 300),
            horizon,
            arrival_period: Some(SimDuration::from_secs(1)),
            links: Some(crush),
            adaptation: Some(AdaptationConfig::default()),
            ..ThroughputConfig::fig6()
        };
        let run = run_throughput(SystemKind::Vdbms, &cfg);
        let dm = run.degradation.as_ref().expect("adaptation enabled");
        println!(
            "  brownout: {} congestion event(s), {} degraded, {} rejected",
            dm.congestion_events, dm.brownout_degraded, dm.brownout_rejected
        );
        assert!(dm.congestion_events > 0, "crushed links must congest: {dm:?}");
        assert!(dm.brownout_rejected > 0, "brownout must shed arrivals: {dm:?}");
        println!("smoke OK: bit_identical: true");
        return;
    }

    println!(
        "scenario-parallel benchmark: {cores} core(s), {} worker(s) for a 3-scenario suite{}",
        worker_count(3),
        if quick { ", quick mode" } else { "" }
    );

    let mut timings = Vec::new();
    for suite in suites(quick) {
        println!(
            "running {} ({} scenarios, horizon {} s) ...",
            suite.name,
            suite.scenarios.len(),
            suite.scenarios[0].1.horizon.as_secs_f64()
        );
        let t = run_suite(&suite);
        println!(
            "  serial {:>9.1} ms | parallel {:>9.1} ms | speedup {:.2}x | bit-identical: {}",
            t.serial_ms,
            t.parallel_ms,
            t.serial_ms / t.parallel_ms.max(1e-9),
            t.bit_identical
        );
        timings.push(t);
    }

    // The scaling study: one run per cluster size, load proportional to
    // the cluster.
    let mut scale = Vec::new();
    for (servers, videos) in scale_cases(quick) {
        println!("running scale {servers}-server / {videos}-video ...");
        let s = run_scale(servers, videos, quick);
        println!("  serial {:>9.1} ms", s.serial_ms);
        scale.push(s);
    }

    // The plan-cache study: the same Zipf-skewed run with full enumeration
    // vs the memoized cache (`cached`, burst 1), plus the flash-crowd
    // bulk-admit case (`bulk`, every arrival an 8-query burst through the
    // batch prefetch).
    let mut cached = Vec::new();
    for (servers, videos) in scale_cases(quick) {
        println!("running cached {servers}-server / {videos}-video ...");
        let c = run_cached(servers, videos, 1, quick, reps_for(servers));
        println!(
            "  uncached {:>9.1} ms | cached {:>9.1} ms | speedup {:.2}x | bit-identical: {}",
            c.uncached_ms,
            c.cached_ms,
            c.uncached_ms / c.cached_ms.max(1e-9),
            c.bit_identical
        );
        cached.push(c);
    }
    let mut bulk = Vec::new();
    for (servers, videos) in scale_cases(quick) {
        // One sample at the top rung: its pair alone took about two
        // minutes of a full run at three samples.
        let reps = if servers >= 100 { 1 } else { reps_for(servers) };
        println!("running bulk {servers}-server / {videos}-video (burst 8, {reps} rep(s)) ...");
        let c = run_cached(servers, videos, 8, quick, reps);
        println!(
            "  uncached {:>9.1} ms | cached {:>9.1} ms | speedup {:.2}x | bit-identical: {}",
            c.uncached_ms,
            c.cached_ms,
            c.uncached_ms / c.cached_ms.max(1e-9),
            c.bit_identical
        );
        bulk.push(c);
    }

    // The stochastic-link study: steady vs degraded (ladder frozen) vs
    // adaptive (congestion renegotiation + brownout) under the same
    // sampled Markov capacity process.
    let mut stochastic = Vec::new();
    for (servers, videos) in scale_cases(quick) {
        println!("running stochastic {servers}-server / {videos}-video ...");
        let s = run_stochastic(servers, videos, quick);
        println!(
            "  steady {:>9.1} ms | degraded {:>9.1} ms | adaptive {:>9.1} ms | \
             violation {:>8.1} s -> {:>8.1} s | down {} up {} osc {} | \
             brownout {}/{}",
            s.steady_ms,
            s.degraded_ms,
            s.adaptive_ms,
            s.degraded_violation_s,
            s.adaptive_violation_s,
            s.degradation.downshifts,
            s.degradation.upshifts,
            s.degradation.oscillations,
            s.degradation.brownout_degraded,
            s.degradation.brownout_rejected,
        );
        stochastic.push(s);
    }

    let all_identical = timings.iter().all(|t| t.bit_identical)
        && cached.iter().chain(&bulk).all(|c| c.bit_identical);
    let total_serial: f64 = timings.iter().map(|t| t.serial_ms).sum();
    let total_parallel: f64 = timings.iter().map(|t| t.parallel_ms).sum();
    let overall = total_serial / total_parallel.max(1e-9);
    println!("overall speedup: {overall:.2}x | all outputs bit-identical: {all_identical}");

    if quick {
        println!("quick mode: skipping BENCH_throughput.json (full run owns the artifact)");
        assert!(all_identical, "parallel runner output diverged from serial");
        return;
    }

    // Hand-rolled JSON: no serde in the dependency closure, and the shape
    // is small and fixed.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str("  \"harnesses\": [\n");
    for (i, t) in timings.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
            t.name,
            t.serial_ms,
            t.parallel_ms,
            t.serial_ms / t.parallel_ms.max(1e-9),
            t.bit_identical,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Robustness metrics from the fault-injected (availability) suite.
    let robustness: Vec<_> = timings.iter().flat_map(|t| t.robustness.iter()).collect();
    json.push_str("  \"robustness\": [\n");
    for (i, (label, f)) in robustness.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"interrupted\": {}, \"failed_over\": {}, \
             \"failover_degraded\": {}, \"requeued\": {}, \"recovered\": {}, \
             \"dropped\": {}, \"mean_recovery_s\": {:.3}, \"qos_violation_s\": {:.3}}}{}\n",
            label,
            f.interrupted,
            f.failed_over,
            f.failover_degraded,
            f.requeued,
            f.recovered,
            f.dropped,
            f.recovery.mean(),
            f.qos_violation_secs,
            if i + 1 < robustness.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // The scaling section: one serial run per cluster size.
    json.push_str("  \"scale\": [\n");
    for (i, s) in scale.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"servers\": {}, \"videos\": {}, \"serial_ms\": {:.3}}}{}\n",
            s.servers,
            s.videos,
            s.serial_ms,
            if i + 1 < scale.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // The plan-cache (`cached`) and flash-crowd bulk-admit (`bulk`) rows.
    for (section, rows) in [("cached", &cached), ("bulk", &bulk)] {
        json.push_str(&format!("  \"{section}\": [\n"));
        for (i, c) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"servers\": {}, \"videos\": {}, \"burst\": {}, \
                 \"uncached_ms\": {:.3}, \"cached_ms\": {:.3}, \"speedup\": {:.3}, \
                 \"bit_identical\": {}}}{}\n",
                c.servers,
                c.videos,
                c.burst,
                c.uncached_ms,
                c.cached_ms,
                c.uncached_ms / c.cached_ms.max(1e-9),
                c.bit_identical,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
    }
    // The stochastic-link degradation rows: per cluster size, the cost of
    // the capacity process and the adaptation loop's effect on QoS
    // violation exposure, plus its counters.
    json.push_str("  \"stochastic\": [\n");
    for (i, s) in stochastic.iter().enumerate() {
        let d = &s.degradation;
        json.push_str(&format!(
            "    {{\"servers\": {}, \"videos\": {}, \"steady_ms\": {:.3}, \
             \"degraded_ms\": {:.3}, \"adaptive_ms\": {:.3}, \
             \"degraded_violation_s\": {:.3}, \"adaptive_violation_s\": {:.3}, \
             \"downshifts\": {}, \"upshifts\": {}, \"oscillations\": {}, \
             \"violation_s_avoided\": {:.3}, \"brownout_degraded\": {}, \
             \"brownout_rejected\": {}}}{}\n",
            s.servers,
            s.videos,
            s.steady_ms,
            s.degraded_ms,
            s.adaptive_ms,
            s.degraded_violation_s,
            s.adaptive_violation_s,
            d.downshifts,
            d.upshifts,
            d.oscillations,
            d.violation_secs_avoided,
            d.brownout_degraded,
            d.brownout_rejected,
            if i + 1 < stochastic.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"overall_speedup\": {overall:.3},\n"));
    json.push_str(&format!("  \"all_bit_identical\": {all_identical}\n"));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, &json).expect("write BENCH_throughput.json");
    println!("wrote {path}");

    assert!(all_identical, "parallel runner output diverged from serial");
}
