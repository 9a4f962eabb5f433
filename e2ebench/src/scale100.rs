//! `scale100`: LRB QuaSAQ on a 100-server, 10,000-video testbed with
//! 30 ms uniform-QoP arrivals over a 120 s horizon. The admission-heavy
//! case: each query materializes over a thousand plans, so plan
//! generation, LRB ranking and the fluid engine's event selection carry
//! the run.
//!
//! Untraced, it times whole `run_throughput_on` runs. Traced, it drives
//! the same event loop from here (arrivals, the fluid engine's
//! `next_event`/`advance_to`/`drain_completions`/`add_session`, and
//! `ControlPlane` Admit/Teardown) with a timed cost model, and checks
//! that the decisions equal `run_throughput_on`'s.

use crate::gauge::Gauge;
use crate::timed;
use crate::{alloc, derive, stats, Report};
use quasaq_core::{PlanRequest, QopSecurity};
use quasaq_service::{Command, ControlPlane, Effect, SessionId};
use quasaq_sim::link::SharePolicy;
use quasaq_sim::{SimDuration, SimTime};
use quasaq_store::AccessStats;
use quasaq_stream::FluidEngine;
use quasaq_vdbms::QueuedQuery;
use quasaq_workload::{
    arrival_stream, qop_class, run_throughput_on, CostKind, GeneratedQuery, SystemKind, Testbed,
    TestbedConfig, ThroughputConfig, ThroughputResult,
};
use std::time::{Duration, Instant};

const SYSTEM: SystemKind = SystemKind::Quasaq(CostKind::Lrb);

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 5;

/// The workload's configuration for `seed`. Every switch not named here
/// keeps its `fig6` default (plan cache off, serial domain stepping).
pub fn config(seed: u64) -> ThroughputConfig {
    let testbed = TestbedConfig { seed: derive(seed, 1), ..TestbedConfig::scale(100, 10_000) };
    ThroughputConfig {
        testbed,
        horizon: SimTime::from_secs(120),
        seed: derive(seed, 0),
        arrival_period: Some(SimDuration::from_millis(30)),
        ..ThroughputConfig::fig6()
    }
}

/// Builds the testbed and the arrival stream `SETUPS` times, sampling the
/// gauge after each, and returns the last testbed and the median set-up
/// time.
pub fn setup(cfg: &ThroughputConfig, gauge: &mut Gauge) -> (Testbed, f64) {
    let mut times = Vec::new();
    let mut testbed = None;
    for _ in 0..SETUPS {
        // Hold one testbed at a time, so peak memory is one set-up's.
        drop(testbed.take());
        let t0 = timed::Stamp::now();
        let tb = Testbed::build(cfg.testbed.clone());
        std::hint::black_box(arrival_stream(&tb, cfg));
        times.push(t0.elapsed().cpu);
        testbed = Some(tb);
        gauge.sample();
    }
    (testbed.expect("at least one set-up"), stats::median(&times))
}

/// The decisions a run made, compared between the traced driver and
/// `run_throughput_on`.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub queries: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub access: AccessStats,
    pub mean_utility: Option<f64>,
}

impl From<&ThroughputResult> for Outcome {
    fn from(r: &ThroughputResult) -> Self {
        Outcome {
            queries: r.queries,
            admitted: r.admitted,
            rejected: r.rejected,
            completed: r.completed,
            access: r.access.clone(),
            mean_utility: r.mean_utility,
        }
    }
}

/// Wall time per layer of one traced run, in seconds, plus call counts.
#[derive(Default)]
pub struct Spans {
    pub wall: f64,
    pub next_event: f64,
    pub advance: f64,
    pub add: f64,
    pub admit: f64,
    pub teardown: f64,
    pub admits: u64,
    pub teardowns: u64,
    pub instants: u64,
}

/// One traced run: what it decided, where its time went, and what the
/// cost model saw.
pub struct Traced {
    pub outcome: Outcome,
    pub spans: Spans,
    pub rank_secs: f64,
    pub plans_ranked: u64,
    /// Effects no Admit or Teardown should produce.
    pub unexpected: u64,
}

fn lap(acc: &mut f64, since: Instant) {
    *acc += since.elapsed().as_secs_f64();
}

/// The state of one traced run.
struct Driver<'a> {
    testbed: &'a Testbed,
    plane: ControlPlane,
    fluid: FluidEngine,
    effects: Vec<Effect>,
    /// Fluid session id → control-plane session.
    session_of: Vec<Option<SessionId>>,
    spans: Spans,
    out: Outcome,
    utility: (f64, u64),
    unexpected: u64,
}

impl Driver<'_> {
    /// Advances the fluid engine to `t` and tears down every session that
    /// completed on the way.
    fn settle(&mut self, t: SimTime) {
        let t0 = Instant::now();
        self.fluid.advance_to(t);
        let done = self.fluid.drain_completions();
        lap(&mut self.spans.advance, t0);
        for d in done {
            self.out.completed += 1;
            let session = self.session_of[d.id.0].take().expect("completed sessions are bound");
            self.effects.clear();
            let t0 = Instant::now();
            self.plane.handle_into(
                &self.testbed.engine,
                Command::Teardown { session, abandoned: false, now: d.at },
                &mut self.effects,
            );
            lap(&mut self.spans.teardown, t0);
            self.spans.teardowns += 1;
        }
    }

    /// Admits one arrival and starts its stream if it was admitted.
    fn admit(&mut self, q: &GeneratedQuery, t: SimTime) {
        let query = QueuedQuery { video: q.video, qos: q.qos.clone() };
        self.effects.clear();
        let t0 = Instant::now();
        self.plane.handle_into(
            &self.testbed.engine,
            Command::Admit { query, class: qop_class(&q.qop), brownout: false, now: t },
            &mut self.effects,
        );
        lap(&mut self.spans.admit, t0);
        self.spans.admits += 1;
        for e in std::mem::take(&mut self.effects) {
            match e {
                Effect::Admitted(adm) => {
                    self.out.admitted += 1;
                    self.out.access.record(adm.video, adm.server);
                    if let Some(u) = adm.utility {
                        self.utility.0 += u;
                        self.utility.1 += 1;
                    }
                    let t0 = Instant::now();
                    let sid = self
                        .fluid
                        .add_session(t, adm.server, adm.bytes, adm.rate_bps)
                        .expect("fair-share admits");
                    lap(&mut self.spans.add, t0);
                    if sid.0 >= self.session_of.len() {
                        self.session_of.resize(sid.0 + 1, None);
                    }
                    self.session_of[sid.0] = Some(adm.session);
                }
                Effect::Rejected { .. } => self.out.rejected += 1,
                _ => self.unexpected += 1,
            }
        }
    }
}

/// The loop `run_throughput_on` runs for this workload's configuration
/// (no admission queue, faults, link dynamics or adaptation), with a span
/// around every call into the fluid engine and the control plane.
pub fn run_traced(testbed: &Testbed, cfg: &ThroughputConfig) -> Traced {
    let start = Instant::now();
    let queries = arrival_stream(testbed, cfg);
    let (core, tally) = timed::lrb_core(testbed, cfg);
    let mut d = Driver {
        testbed,
        plane: ControlPlane::new(core, timed::plane_config(cfg, false)),
        fluid: FluidEngine::new(
            testbed.servers(),
            SharePolicy::FairShare,
            cfg.testbed.link_capacity_bps,
        ),
        effects: Vec::new(),
        session_of: Vec::new(),
        spans: Spans::default(),
        out: Outcome {
            queries: queries.len() as u64,
            admitted: 0,
            rejected: 0,
            completed: 0,
            access: AccessStats::new(),
            mean_utility: None,
        },
        utility: (0.0, 0),
        unexpected: 0,
    };
    let mut qi = 0usize;
    loop {
        let tq = queries.get(qi).map(|q| q.at);
        let t0 = Instant::now();
        let tf = d.fluid.next_event().filter(|&t| t <= cfg.horizon);
        lap(&mut d.spans.next_event, t0);
        let Some(t) = [tq, tf].into_iter().flatten().min() else { break };
        if t > cfg.horizon {
            break;
        }
        d.spans.instants += 1;
        d.settle(t);
        while tq == Some(t) && queries.get(qi).is_some_and(|q| q.at == t) {
            d.admit(&queries[qi], t);
            qi += 1;
        }
    }
    d.settle(cfg.horizon);
    let (sum, n) = d.utility;
    d.out.mean_utility = (n > 0).then(|| sum / n as f64);
    d.spans.wall = start.elapsed().as_secs_f64();
    Traced {
        outcome: d.out,
        spans: d.spans,
        rank_secs: tally.secs(),
        plans_ranked: tally.plans(),
        unexpected: d.unexpected,
    }
}

/// Times a standalone `generate_into` for every query of the run (kept
/// out of the traced wall), returning (seconds, plans generated).
fn generate_pass(testbed: &Testbed, cfg: &ThroughputConfig) -> (f64, u64) {
    let generator = timed::generator(cfg);
    let mut buf = Vec::new();
    let (mut secs, mut plans) = (0.0, 0u64);
    for q in arrival_stream(testbed, cfg) {
        let request = PlanRequest { video: q.video, qos: q.qos, security: QopSecurity::Open };
        let t0 = Instant::now();
        generator.generate_into(&testbed.engine, &request, &mut buf);
        lap(&mut secs, t0);
        plans += buf.len() as u64;
    }
    (secs, plans)
}

/// Runs the workload for `budget`.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let cfg = config(seed);
    let mut gauge = Gauge::default();
    let (testbed, setup_s) = setup(&cfg, &mut gauge);
    let mut report = Report::default();
    if !trace {
        // The first run warms caches and the allocator; it is checked but
        // not timed.
        let runs = timed::repeat(budget, 1 + 3, Some(&mut gauge), || {
            run_throughput_on(&testbed, SYSTEM, &cfg)
        });
        let first = &runs[0].0;
        check_conservation(&mut report, first);
        for (r, _) in &runs[1..] {
            report.check(r.queries, r == first, "scale100 reruns with one seed differ");
        }
        let rates: Vec<f64> =
            runs[1..].iter().map(|(r, secs)| r.queries as f64 / secs.cpu).collect();
        report.put("decisions_per_s", stats::median(&rates) * gauge.slowdown());
        report.put("admit_ratio", first.admitted as f64 / first.queries as f64);
        report.put("mean_utility", first.mean_utility.unwrap_or(0.0));
        report.put("setup_s", setup_s / gauge.slowdown());
        return report;
    }

    // Untraced reference runs for half the budget, traced runs for the
    // other half; the allocator counts only during traced runs.
    let reference =
        timed::repeat(budget / 2, 2, None, || run_throughput_on(&testbed, SYSTEM, &cfg));
    let expected = Outcome::from(&reference[0].0);
    check_conservation(&mut report, &reference[0].0);
    let untraced_s = stats::median(&reference.iter().map(|(_, s)| s.wall).collect::<Vec<_>>());
    let traced = timed::repeat(budget / 2, 2, None, || alloc::count(|| run_traced(&testbed, &cfg)));
    let (gen_secs, plans_generated) = generate_pass(&testbed, &cfg);

    let mut per_run: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for ((t, allocs), _) in &traced {
        report.check(
            t.outcome.queries,
            t.outcome == expected && t.unexpected == 0,
            "scale100 traced driver differs from run_throughput_on",
        );
        let sp = &t.spans;
        let q = t.outcome.queries.max(1) as f64;
        let admits = sp.admits.max(1) as f64;
        let admit_us = sp.admit * 1e6 / admits;
        let rank_us = t.rank_secs * 1e6 / admits;
        let generate_us = gen_secs * 1e6 / q;
        let spanned = sp.next_event + sp.advance + sp.add + sp.admit + sp.teardown;
        per_run.push(vec![
            ("service.plane.admit_us", admit_us),
            ("service.plane.teardown_us", sp.teardown * 1e6 / sp.teardowns.max(1) as f64),
            ("core.cost.rank_us", rank_us),
            ("core.cost.plans_ranked", t.plans_ranked as f64 / admits),
            ("core.generator.generate_us", generate_us),
            ("core.generator.plans_generated", plans_generated as f64 / q),
            ("core.plane_self_us", admit_us - generate_us - rank_us),
            ("core.useful_plan_ratio", t.outcome.admitted as f64 / plans_generated.max(1) as f64),
            ("stream.fluid.advance_s", sp.advance),
            ("stream.fluid.next_event_s", sp.next_event),
            ("stream.fluid.add_s", sp.add),
            ("stream.fluid.instants", sp.instants as f64),
            ("workload.driver_self_s", sp.wall - spanned),
            ("alloc.per_query", *allocs as f64 / q),
            ("trace.overhead_ratio", sp.wall / untraced_s),
        ]);
    }
    for (k, (name, _)) in per_run[0].iter().enumerate() {
        report.put(name, stats::median(&per_run.iter().map(|m| m[k].1).collect::<Vec<_>>()));
    }
    report.put("workload.run_throughput_s", untraced_s);
    report
}

fn check_conservation(report: &mut Report, r: &ThroughputResult) {
    report.check(
        r.queries,
        r.queries == r.admitted + r.rejected && r.admitted > 0,
        "scale100 breaks queries = admitted + rejected",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced driver makes `run_throughput_on`'s decisions, and its
    /// spans plus the driver's self time make up its wall time.
    #[test]
    fn traced_driver_equals_run_throughput_on_short_horizon() {
        let mut cfg = config(11);
        cfg.testbed = TestbedConfig { seed: derive(11, 1), ..TestbedConfig::scale(20, 500) };
        cfg.horizon = SimTime::from_secs(120);
        cfg.arrival_period = Some(SimDuration::from_millis(200));
        let testbed = Testbed::build(cfg.testbed.clone());
        let reference = run_throughput_on(&testbed, SYSTEM, &cfg);
        assert!(reference.admitted > 0 && reference.completed > 0, "the horizon exercises both");
        let traced = run_traced(&testbed, &cfg);
        assert_eq!(traced.outcome, Outcome::from(&reference));
        assert_eq!(traced.unexpected, 0);
        let sp = &traced.spans;
        assert_eq!(sp.admits, reference.queries);
        assert_eq!(sp.teardowns, reference.completed);
        assert!(traced.plans_ranked > 0);
        let spanned = sp.next_event + sp.advance + sp.add + sp.admit + sp.teardown;
        assert!(spanned > 0.0 && spanned <= sp.wall);
    }
}
