//! `turbulent30`: LRB QuaSAQ on a 30-server, 3,000-video testbed under
//! Zipf-skewed (1.1), paper-skewed-QoP arrivals in bursts of eight, with
//! the queued admission front end, a sampled Markov link-capacity process
//! feeding the adaptation loop, and one server crash and restart mid-run.
//! It crosses the admission layers `scale100` crosses, but most queries
//! are refused, retried, shed or re-rated rather than admitted on
//! arrival, and every event source of the driver fires: retry ticks,
//! patience deadlines, fault edges, link set-points and congestion polls.
//!
//! Both modes time whole `run_throughput_on` runs, one episode at a time
//! and the episodes round robin; the traced mode adds
//! allocation counts and the run's own counters, since the driver's event
//! sources are not public and cannot be timed one by one from outside.

use crate::gauge::Gauge;
use crate::timed::{self, Secs};
use crate::{alloc, derive, stats, Report};
use quasaq_sim::{FaultPlan, LinkModel, LinkPlan, Rng, ServerId, SimDuration, SimTime};
use quasaq_workload::{
    arrival_stream, run_throughput_on, AdaptationConfig, AdmissionConfig, CostKind,
    DegradationMetrics, FaultMetrics, QopMix, QueueMetrics, SystemKind, Testbed, TestbedConfig,
    ThroughputConfig, ThroughputResult,
};
use std::time::Duration;

const SYSTEM: SystemKind = SystemKind::Quasaq(CostKind::Lrb);
const SERVERS: u32 = 30;
const HORIZON_S: u64 = 400;

/// Independent deployments per run, each with its own seed. The brownout
/// feedback makes one episode's outcome mix swing with its seed (the shed
/// share ranged 0.34-0.67 over ten seeds), so a run averages several; with
/// four, the admission ratio still spread 0.10-0.11 over ten seeds.
const EPISODES: u64 = 8;

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 5;

/// One episode's configuration for `seed`: the seed reaches the traffic
/// and tie-breaking, the testbed, the link process and the crash. The
/// load (bursts of eight every 1.5 s on average), the link process (a
/// fast-mixing good/degraded/bad Markov chain) and the brownout threshold
/// are tuned so that no outcome covers most queries: over ten seeds of
/// four episodes each, 43-50% admitted, 9-24% shed by brownout and 26-40%
/// abandoned in the queue, with 1.7-2.4 retries per query.
pub fn config(seed: u64) -> ThroughputConfig {
    let testbed = TestbedConfig { seed: derive(seed, 1), ..TestbedConfig::scale(SERVERS, 3_000) };
    let horizon = SimTime::from_secs(HORIZON_S);
    let mut rng = Rng::new(derive(seed, 3));
    let crashed = ServerId(rng.below(u64::from(SERVERS)) as u32);
    let crash_at = SimTime::from_secs(rng.range_u64(HORIZON_S / 4, HORIZON_S / 2));
    let restart_at = crash_at + SimDuration::from_secs(HORIZON_S / 4);
    let links = LinkPlan::sample(
        derive(seed, 2),
        ServerId::first_n(SERVERS),
        horizon,
        LinkModel::Markov {
            factors: [1.0, 0.6, 0.3],
            dwell: [
                SimDuration::from_secs(12),
                SimDuration::from_secs(6),
                SimDuration::from_secs(3),
            ],
        },
    );
    ThroughputConfig {
        testbed,
        horizon,
        seed: derive(seed, 0),
        video_skew: 1.1,
        qop_mix: QopMix::PaperSkewed,
        admission: Some(AdmissionConfig::default()),
        faults: Some(FaultPlan::crash_restart(crashed, crash_at, restart_at)),
        arrival_period: Some(SimDuration::from_millis(1_500)),
        arrival_burst: 8,
        links: Some(links),
        adaptation: Some(AdaptationConfig { brownout_ratio: 0.35, ..AdaptationConfig::default() }),
        ..ThroughputConfig::fig6()
    }
}

/// One episode: its configuration and testbed.
struct Episode {
    cfg: ThroughputConfig,
    testbed: Testbed,
}

/// Samples every episode's configuration, builds its testbed and
/// generates its arrival stream, `SETUPS` times, sampling the gauge after
/// each; returns the last set of episodes and the median set-up time.
fn setup(seed: u64, gauge: &mut Gauge) -> (Vec<Episode>, f64) {
    let mut times = Vec::new();
    let mut last = Vec::new();
    for _ in 0..SETUPS {
        // Hold one set of episodes at a time, so peak memory is one set-up's.
        last.clear();
        let t0 = timed::Stamp::now();
        last = (0..EPISODES)
            .map(|e| {
                let cfg = config(derive(seed, 100 + e));
                let testbed = Testbed::build(cfg.testbed.clone());
                std::hint::black_box(arrival_stream(&testbed, &cfg));
                Episode { cfg, testbed }
            })
            .collect();
        times.push(t0.elapsed().cpu);
        gauge.sample();
    }
    (last, stats::median(&times))
}

/// Runs the episodes round robin for `budget`, at least `passes` times
/// over all of them; returns each run's episode, result and time.
fn episode_runs<T>(
    episodes: &[Episode],
    budget: Duration,
    passes: usize,
    gauge: Option<&mut Gauge>,
    mut run: impl FnMut(&Episode) -> T,
) -> Vec<(usize, T, Secs)> {
    let mut k = 0;
    let runs = timed::repeat(budget, passes * episodes.len(), gauge, || {
        let i = k % episodes.len();
        k += 1;
        (i, run(&episodes[i]))
    });
    runs.into_iter().map(|((i, r), secs)| (i, r, secs)).collect()
}

/// Each episode's mean time over its runs.
fn mean_times<T>(episodes: usize, runs: &[(usize, T, Secs)]) -> Vec<Secs> {
    let mut acc = vec![(Secs::default(), 0.0); episodes];
    for (i, _, secs) in runs {
        acc[*i].0.wall += secs.wall;
        acc[*i].0.cpu += secs.cpu;
        acc[*i].1 += 1.0;
    }
    acc.into_iter().map(|(t, n)| Secs { wall: t.wall / n, cpu: t.cpu / n }).collect()
}

fn untraced(e: &Episode) -> ThroughputResult {
    run_throughput_on(&e.testbed, SYSTEM, &e.cfg)
}

/// The conservation laws every run must keep.
fn conserves(r: &ThroughputResult) -> bool {
    let f = r.faults.as_ref().expect("faults are on");
    r.queries == r.admitted + r.rejected
        && f.interrupted == f.failed_over + f.recovered + f.dropped
        && r.queue.is_some()
        && r.degradation.is_some()
}

fn sum<'a>(
    results: impl IntoIterator<Item = &'a ThroughputResult>,
    f: impl Fn(&ThroughputResult) -> f64,
) -> f64 {
    results.into_iter().map(f).sum()
}

/// Runs the workload for `budget`.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let mut gauge = Gauge::default();
    let (episodes, setup_s) = setup(seed, &mut gauge);
    let mut report = Report::default();
    let window = if trace { budget / 2 } else { budget };
    let runs = episode_runs(&episodes, window, 2, (!trace).then_some(&mut gauge), untraced);
    let first: Vec<&ThroughputResult> = runs[..episodes.len()].iter().map(|(_, r, _)| r).collect();
    for r in &first {
        report.check(r.queries, conserves(r), "turbulent30 breaks a conservation law");
    }
    for (i, r, _) in &runs[episodes.len()..] {
        report.check(r.queries, r == first[*i], "turbulent30 reruns with one seed differ");
    }
    let admitted = sum(first.iter().copied(), |r| r.admitted as f64);
    let queries = sum(first.iter().copied(), |r| r.queries as f64);
    // One pass's queries over the sum of each episode's mean time: one
    // episode takes about a second, so this averages the whole budget,
    // and a pass cut short by the budget weighs no episode twice.
    let mean = mean_times(episodes.len(), &runs);
    if !trace {
        let cpu: f64 = mean.iter().map(|t| t.cpu).sum();
        report.put("decisions_per_s", queries / cpu * gauge.slowdown());
        report.put("admit_ratio", admitted / queries);
        let utility =
            sum(first.iter().copied(), |r| r.mean_utility.unwrap_or(0.0) * r.admitted as f64);
        report.put("mean_utility", utility / admitted.max(1.0));
        report.put("setup_s", setup_s / gauge.slowdown());
        return report;
    }

    let counted = episode_runs(&episodes, budget / 2, 1, None, |e| alloc::count(|| untraced(e)));
    let (mut allocs, mut counted_q, mut counted_wall, mut untraced_wall) = (0.0, 0.0, 0.0, 0.0);
    for (i, (r, n), secs) in &counted {
        report.check(r.queries, r == first[*i], "turbulent30 counted run differs");
        allocs += *n as f64;
        counted_q += r.queries as f64;
        counted_wall += secs.wall;
        untraced_wall += mean[*i].wall;
    }
    let run_s = mean.iter().map(|t| t.wall).sum::<f64>() / episodes.len() as f64;
    let first = || first.iter().copied();
    let queue = |f: fn(&QueueMetrics) -> u64| {
        sum(first(), |r| f(r.queue.as_ref().expect("queue is on")) as f64)
    };
    let fault = |f: fn(&FaultMetrics) -> f64| {
        sum(first(), |r| f(r.faults.as_ref().expect("faults are on")))
    };
    let adapt = |f: fn(&DegradationMetrics) -> u64| {
        sum(first(), |r| f(r.degradation.as_ref().expect("adaptation is on")) as f64)
    };
    let waits: Vec<f64> = first().filter_map(ThroughputResult::queue_wait_p95).collect();
    report.put("workload.run_throughput_s", run_s);
    report.put("service.admission.retries", queue(|q| q.retries));
    report.put("service.admission.abandoned", queue(QueueMetrics::abandoned));
    report.put("service.admission.wait_p95_s", stats::median(&waits));
    report.put("adapt.downshifts", adapt(|d| d.downshifts));
    report.put("adapt.upshifts", adapt(|d| d.upshifts));
    report.put("adapt.brownout_shed", adapt(|d| d.brownout_rejected));
    report.put("stream.fluid.congestion_events", adapt(|d| d.congestion_events));
    report.put("fault.failed_over", fault(|f| f.failed_over as f64));
    report.put("fault.requeued", fault(|f| f.requeued as f64));
    report.put("fault.dropped", fault(|f| f.dropped as f64));
    report.put("violation_s", fault(|f| f.qos_violation_secs));
    report.put("alloc.per_query", allocs / counted_q.max(1.0));
    report.put("trace.overhead_ratio", counted_wall / untraced_wall);
    report
}
