//! The throughput experiment driver (Fig 6 and Fig 7).
//!
//! Feeds the same Poisson query stream into one of the three systems —
//! plain VDBMS, VDBMS + QoS API, or VDBMS + QuaSAQ (with a selectable
//! cost model) — over the fluid session engine, and records what the
//! paper plots: outstanding sessions over time (Figs 6a, 7a),
//! accomplished jobs per minute (Fig 6b), and cumulative rejects
//! (Fig 7b).
//!
//! Since the control-plane split, this driver owns only the *data plane*
//! and the experiment accounting: the fluid engine, the fault/link
//! injectors, the patience deadlines, and the metrics. Every QoS
//! *decision* — admission, retry, brownout, failover, renegotiation —
//! comes from a [`ControlPlane`] driven through the same
//! [`Command`]/[`Effect`] vocabulary the TCP shell speaks, so an
//! in-process run and a served run make bit-identical decisions for the
//! same command sequence. The differential proptests in
//! `tests/differential.rs` hold this loop to the pre-split oracle, draw
//! for draw.

use crate::admission::{AdmissionConfig, QueueMetrics};
use crate::testbed::{CostKind, Testbed, TestbedConfig};
use crate::traffic::{generate_queries, qop_class, GeneratedQuery, QopMix, TrafficConfig};
use quasaq_core::{PlanExecutor, PlanRequest, QopSecurity};
use quasaq_service::{
    AdaptPolicy, Admission, AdmitOrigin, Candidate, Command, ControlPlane, Degraded, Effect,
    PlaneConfig, Renegotiation, SessionId, SystemCore,
};
use quasaq_sim::link::SharePolicy;
use quasaq_sim::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, LevelTracker, LinkInjector, LinkPlan,
    OnlineStats, RateCounter, Series, ServerId, SimDuration, SimTime,
};
use quasaq_store::{AccessStats, MetadataEngine};
use quasaq_stream::{CongestionConfig, CongestionEdge, FluidEngine, FluidSessionId};
use quasaq_vdbms::{BaselineKind, BaselinePlanner, QueuedQuery};
use std::collections::{BTreeSet, HashMap};

/// Which system services the query stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Plain VDBMS: admit everything, stream the original best-effort.
    Vdbms,
    /// VDBMS with the QoS API: reserve the full-quality stream, reject on
    /// saturation.
    VdbmsQosApi,
    /// Full QuaSAQ with the given cost model.
    Quasaq(CostKind),
}

impl SystemKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> String {
        match self {
            SystemKind::Vdbms => "VDBMS".to_string(),
            SystemKind::VdbmsQosApi => "VDBMS+QoS API".to_string(),
            SystemKind::Quasaq(c) => format!("VDBMS+QuaSAQ({})", c.label()),
        }
    }
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Deployment.
    pub testbed: TestbedConfig,
    /// Run length (Fig 6: 1000 s; Fig 7: 7000 s).
    pub horizon: SimTime,
    /// Sampling step for the outstanding-sessions series.
    pub sample_step: SimDuration,
    /// Master seed (traffic and tie-breaking).
    pub seed: u64,
    /// Zipf skew over videos (0 = the paper's uniform access).
    pub video_skew: f64,
    /// Distribution of requested QoP parameters. `QopMix::Uniform` is the
    /// paper's stated generator (and the legacy RNG-identical path);
    /// `QopMix::PaperSkewed` is calibrated to the published Fig 6 factor.
    pub qop_mix: QopMix,
    /// Restrict QuaSAQ plans to the replica's own site (placement
    /// studies; the paper's default allows cross-site delivery).
    pub local_plans_only: bool,
    /// Queued admission front end: rejected queries wait, back off,
    /// degrade, and eventually give up, and admitted best-effort sessions
    /// are abandoned once they overrun their nominal duration by more
    /// than the patience window. `None` keeps the legacy fire-and-forget
    /// client (bit-identical to runs before the queue existed).
    pub admission: Option<AdmissionConfig>,
    /// Fault schedule: server crashes, link degradations, and disk
    /// slowdowns injected mid-run. `None` disables the injector entirely
    /// (bit-identical to runs before fault injection existed).
    pub faults: Option<FaultPlan>,
    /// Mean query inter-arrival time. `None` keeps the paper's 1 s
    /// Poisson stream; scaling studies shrink it so a hundred-server
    /// cluster actually sees load.
    pub arrival_period: Option<SimDuration>,
    /// Queries per arrival instant (flash crowds). `1` keeps the paper's
    /// one-query-per-arrival Poisson stream, bit-identical to runs before
    /// bursts existed.
    pub arrival_burst: usize,
    /// Memoize plan enumeration in the Quality Manager (QuaSAQ systems
    /// only). Admission decisions are bit-identical either way — the cache
    /// holds only the pure enumeration output, and ranking/reservation run
    /// live — so this is purely a constant-factor switch; the differential
    /// proptests hold it to that.
    pub plan_cache: bool,
    /// Stochastic link dynamics: a per-server capacity set-point timeline
    /// (sampled Markov/fading/diurnal trajectories or explicit
    /// set-points). Unlike `faults`, set-points also re-rate the
    /// admission view, so reservation-based systems plan against the
    /// capacity the network actually has. `None` disables the injector
    /// entirely (bit-identical to runs before link dynamics existed).
    pub links: Option<LinkPlan>,
    /// Congestion-driven graceful degradation: watch per-server offered
    /// load, renegotiate QuaSAQ sessions down the QoP ladder on sustained
    /// congestion (and back up on recovery, rate-bounded), and shed
    /// arrivals by service class while the cluster is browned out. `None`
    /// keeps every session at its admitted quality (legacy behaviour).
    pub adaptation: Option<AdaptationConfig>,
}

/// Parameters of the congestion-adaptation loop.
#[derive(Debug, Clone)]
pub struct AdaptationConfig {
    /// Congestion watermarks and dwell (hysteresis in level and time).
    pub congestion: CongestionConfig,
    /// Minimum spacing between upshifts on one server. Downshifts are
    /// never delayed; this one-sided bound is what keeps the loop from
    /// oscillating (a session upgraded at `t` cannot be re-upgraded
    /// before `t + upgrade_period`, and a downshift inside that window is
    /// counted as an oscillation).
    pub upgrade_period: SimDuration,
    /// Cap on sessions renegotiated per congestion-onset event.
    pub max_downshifts_per_event: usize,
    /// Brownout threshold: admission starts shedding by service class
    /// once at least this fraction of servers is congested.
    pub brownout_ratio: f64,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        AdaptationConfig {
            congestion: CongestionConfig::default(),
            upgrade_period: SimDuration::from_secs(30),
            max_downshifts_per_event: 4,
            brownout_ratio: 0.25,
        }
    }
}

/// What the adaptation loop did over one run. `PartialEq` compares floats
/// bit-for-bit for the serial-vs-parallel determinism checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationMetrics {
    /// Congestion-onset events (a server crossing the high watermark and
    /// dwelling there).
    pub congestion_events: u64,
    /// Server-seconds spent in the congested state.
    pub congested_secs: f64,
    /// Sessions renegotiated down the QoP ladder by the adaptation loop.
    pub downshifts: u64,
    /// Sessions renegotiated back toward their original request after a
    /// server cleared.
    pub upshifts: u64,
    /// Downshifts that undid an upshift within one `upgrade_period` —
    /// the loop hunting instead of settling.
    pub oscillations: u64,
    /// Estimated QoS-violation exposure avoided by downshifts: the bytes
    /// each renegotiation took off the wire, over the victim server's
    /// effective capacity at that instant.
    pub violation_secs_avoided: f64,
    /// Brownout admissions served one ladder step below their request.
    pub brownout_degraded: u64,
    /// Arrivals turned away by brownout shedding (Economy class, plus
    /// degrade-then-reject failures).
    pub brownout_rejected: u64,
}

impl ThroughputConfig {
    /// The Fig 6 configuration (1000 s horizon).
    pub fn fig6() -> Self {
        ThroughputConfig {
            testbed: TestbedConfig::default(),
            horizon: SimTime::from_secs(1000),
            sample_step: SimDuration::from_secs(10),
            seed: 7,
            video_skew: 0.0,
            qop_mix: QopMix::Uniform,
            local_plans_only: false,
            admission: None,
            faults: None,
            arrival_period: None,
            arrival_burst: 1,
            plan_cache: false,
            links: None,
            adaptation: None,
        }
    }

    /// The Fig 7 configuration (7000 s horizon).
    pub fn fig7() -> Self {
        ThroughputConfig { horizon: SimTime::from_secs(7000), ..Self::fig6() }
    }

    /// The Fig 6 configuration behind the queued admission front end with
    /// default backoff and patience.
    pub fn queued() -> Self {
        ThroughputConfig { admission: Some(AdmissionConfig::default()), ..Self::fig6() }
    }

    /// The availability-under-faults configuration: Fig 6 load with the
    /// queued front end, one server crashing at t = 1000 s and restarting
    /// at t = 2000 s inside a 3000 s horizon.
    pub fn availability() -> Self {
        ThroughputConfig {
            horizon: SimTime::from_secs(3000),
            faults: Some(FaultPlan::crash_restart(
                ServerId(0),
                SimTime::from_secs(1000),
                SimTime::from_secs(2000),
            )),
            ..Self::queued()
        }
    }

    /// The degradation-under-congestion configuration: Fig 6 load while
    /// every server's link follows a sampled Markov good/degraded/bad
    /// trajectory, with the adaptation loop renegotiating sessions and
    /// browning out admission under sustained overload.
    pub fn stochastic() -> Self {
        let base = Self::fig6();
        let servers = ServerId::first_n(base.testbed.servers);
        ThroughputConfig {
            links: Some(LinkPlan::sample(
                base.seed,
                servers,
                base.horizon,
                quasaq_sim::LinkModel::Markov {
                    factors: [1.0, 0.5, 0.2],
                    dwell: [
                        SimDuration::from_secs(120),
                        SimDuration::from_secs(60),
                        SimDuration::from_secs(30),
                    ],
                },
            )),
            adaptation: Some(AdaptationConfig::default()),
            ..base
        }
    }
}

/// Robustness accounting for a fault-injected run. `PartialEq` compares
/// floats bit-for-bit for the serial-vs-parallel determinism checks.
///
/// Every interrupted session reaches exactly one fate, so
/// `interrupted == failed_over + recovered + dropped` at the end of a
/// run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultMetrics {
    /// Sessions cut mid-stream by a server crash.
    pub interrupted: u64,
    /// Interrupted sessions immediately re-admitted on a surviving
    /// replica site, resuming their remaining bytes.
    pub failed_over: u64,
    /// Failovers that renegotiated down the QoP ladder because no
    /// survivor could carry the original quality.
    pub failover_degraded: u64,
    /// Interrupted sessions that re-entered the admission queue after
    /// failover found no feasible replica.
    pub requeued: u64,
    /// Requeued sessions eventually re-serviced (restarting from the
    /// beginning — a queue re-entry is a restart, not a resume).
    pub recovered: u64,
    /// Interrupted sessions lost for good: no survivor, no queue (or
    /// dropped by it), or still waiting at the horizon.
    pub dropped: u64,
    /// Seconds from interruption to re-service, over every session that
    /// was re-serviced (0 for an instant failover).
    pub recovery: OnlineStats,
    /// Session-seconds streamed on servers whose effective capacity was
    /// degraded below nominal (QoS-violation exposure).
    pub qos_violation_secs: f64,
}

/// Everything the paper plots for one run. `PartialEq` compares every
/// field (floats bit-for-bit via their numeric equality), which is what
/// the parallel-runner determinism checks rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputResult {
    /// System label.
    pub label: String,
    /// Outstanding sessions sampled over time (Figs 6a, 7a).
    pub outstanding: Series,
    /// Completed jobs per minute (Fig 6b).
    pub completions_per_min: RateCounter,
    /// Cumulative rejects over time (Fig 7b).
    pub rejects: Series,
    /// Total queries issued.
    pub queries: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Queries rejected.
    pub rejected: u64,
    /// Sessions completed within the horizon.
    pub completed: u64,
    /// Which video was served from which server, per admitted session
    /// (drives the online-migration extension).
    pub access: AccessStats,
    /// Mean perceptual utility of admitted plans (QuaSAQ systems only).
    pub mean_utility: Option<f64>,
    /// Queue metrics when the admission front end was enabled.
    pub queue: Option<QueueMetrics>,
    /// Robustness metrics when fault injection or link dynamics were
    /// enabled.
    pub faults: Option<FaultMetrics>,
    /// Adaptation metrics when the congestion loop was enabled.
    pub degradation: Option<DegradationMetrics>,
}

impl ThroughputResult {
    /// Mean outstanding sessions over the stable stage (second half of the
    /// run).
    pub fn stable_outstanding(&self, horizon: SimTime) -> f64 {
        self.outstanding
            .window_mean(horizon.halved(), horizon + SimDuration::from_secs(1))
            .unwrap_or(0.0)
    }

    /// p95 admission wait in seconds (from the queue's quantile sketch;
    /// `None` without the front end or when nothing was admitted).
    pub fn queue_wait_p95(&self) -> Option<f64> {
        self.queue.as_ref().and_then(|q| q.wait.p95())
    }

    /// p99 admission wait in seconds (see [`Self::queue_wait_p95`]).
    pub fn queue_wait_p99(&self) -> Option<f64> {
        self.queue.as_ref().and_then(|q| q.wait.p99())
    }
}

/// Dense per-session side table indexed by [`FluidSessionId`] (the fluid
/// engine allocates ids contiguously from 0, so a `Vec` replaces the old
/// session-keyed hash maps on the admission/completion hot path).
struct PerSession<T>(Vec<Option<T>>);

impl<T> PerSession<T> {
    fn new() -> Self {
        PerSession(Vec::new())
    }

    fn insert(&mut self, id: FluidSessionId, value: T) {
        if id.0 >= self.0.len() {
            self.0.resize_with(id.0 + 1, || None);
        }
        self.0[id.0] = Some(value);
    }

    fn remove(&mut self, id: FluidSessionId) -> Option<T> {
        self.0.get_mut(id.0).and_then(Option::take)
    }
}

/// Two-way binding between the fluid engine's session ids (the data
/// plane) and the control plane's session handles. Renegotiations retire
/// the fluid id but keep the control-plane handle, so neither side can be
/// the other's key.
struct SessionMap {
    /// Fluid id → control-plane session.
    session_of: PerSession<SessionId>,
    /// Control-plane session → current fluid id (dense: plane ids
    /// allocate from 0).
    fluid_of: Vec<Option<FluidSessionId>>,
}

impl SessionMap {
    fn new() -> Self {
        SessionMap { session_of: PerSession::new(), fluid_of: Vec::new() }
    }

    fn bind(&mut self, fluid: FluidSessionId, session: SessionId) {
        self.session_of.insert(fluid, session);
        let i = session.0 as usize;
        if i >= self.fluid_of.len() {
            self.fluid_of.resize(i + 1, None);
        }
        self.fluid_of[i] = Some(fluid);
    }

    /// Drops the binding by fluid id (completion, patience cancel,
    /// crash), returning the control-plane session to tear down.
    fn unbind(&mut self, fluid: FluidSessionId) -> Option<SessionId> {
        let session = self.session_of.remove(fluid)?;
        self.fluid_of[session.0 as usize] = None;
        Some(session)
    }

    /// Drops the binding by control-plane session (renegotiation),
    /// returning the fluid id to cancel.
    fn take_fluid(&mut self, session: SessionId) -> Option<FluidSessionId> {
        let fluid = self.fluid_of.get_mut(session.0 as usize)?.take()?;
        self.session_of.remove(fluid);
        Some(fluid)
    }

    fn get(&self, fluid: FluidSessionId) -> Option<SessionId> {
        self.session_of.0.get(fluid.0).and_then(|s| *s)
    }
}

/// Runs one system against the shared query stream on the (process-wide,
/// immutably shared) testbed for `cfg.testbed`. Runs never mutate the
/// testbed, so N system-variants over one deployment pay for catalog
/// generation once; callers that *do* mutate the replica layout build
/// their own testbed and use [`run_throughput_on`].
pub fn run_throughput(system: SystemKind, cfg: &ThroughputConfig) -> ThroughputResult {
    let testbed = Testbed::shared(cfg.testbed.clone());
    run_throughput_on(&testbed, system, cfg)
}

/// Runs one system against the query stream on an existing testbed (so
/// callers can mutate the replica layout between runs, e.g. for the
/// online-migration extension).
pub fn run_throughput_on(
    testbed: &Testbed,
    system: SystemKind,
    cfg: &ThroughputConfig,
) -> ThroughputResult {
    let queries = arrival_stream(testbed, cfg);
    let core = build_core(testbed, system, cfg);

    let adapt = cfg.adaptation.clone();
    let adapt_on = adapt.is_some();
    let faults_on = cfg.faults.is_some();
    // Per-session request context is needed by both the crash-failover
    // path and the adaptation loop.
    let track_ctx = faults_on || adapt_on;
    let queue_on = cfg.admission.is_some();

    // The control plane makes every decision this driver used to make
    // inline, consuming the identical RNG stream in the identical order.
    let mut plane = ControlPlane::new(
        core,
        PlaneConfig {
            seed: cfg.seed ^ 0x9e37_79b9,
            admission: cfg.admission.clone(),
            adaptation: adapt.as_ref().map(|a| AdaptPolicy {
                upgrade_period: a.upgrade_period,
                max_downshifts_per_event: a.max_downshifts_per_event,
            }),
            track_ctx,
        },
    );
    let engine = &testbed.engine;
    // One scratch vector for every command's effects.
    let mut effects: Vec<Effect> = Vec::new();

    // All systems pace sessions at their stream rate on fair-share links;
    // reservation-based systems enforce admission in the QoS API, so the
    // link never oversubscribes for them.
    let mut fluid =
        FluidEngine::new(testbed.servers(), SharePolicy::FairShare, cfg.testbed.link_capacity_bps);

    let patience = cfg.admission.as_ref().map(|a| a.patience);
    // Mid-stream give-up deadlines, ordered for the event loop plus a
    // reverse index for completion-time removal. Both stay empty when the
    // front end is disabled, so the legacy event sequence is untouched.
    let mut deadlines: BTreeSet<(SimTime, FluidSessionId)> = BTreeSet::new();
    let mut deadline_of: PerSession<SimTime> = PerSession::new();

    // Fault injection. The timeline is empty when `cfg.faults` is `None`,
    // so the legacy event sequence — and every RNG draw — is untouched.
    // The testbed itself is immutable and shared across runs; all fault
    // state (who is down, which reservations died, the degraded
    // capacities inside this run's own fluid engine) lives here or in the
    // plane.
    let fault_plan = cfg.faults.clone().unwrap_or_default();
    let mut injector = FaultInjector::new(&fault_plan);
    let mut fm = FaultMetrics::default();
    // Overlapping windows compose: crashes nest by depth, capacity
    // factors multiply (in stable order, so the float product is a pure
    // function of the plan).
    let mut crash_depth: HashMap<ServerId, u32> = HashMap::new();
    let mut link_factors: HashMap<ServerId, Vec<f64>> = HashMap::new();
    let mut disk_factors: HashMap<ServerId, Vec<f64>> = HashMap::new();
    let mut impaired: BTreeSet<ServerId> = BTreeSet::new();
    let mut violation_t = SimTime::ZERO;

    // Stochastic link dynamics: a (time, seq)-ordered set-point timeline,
    // one dynamic factor per server composed into the same effective
    // capacity the fault windows feed. Empty when `cfg.links` is `None`,
    // so the legacy event sequence is untouched.
    let link_plan = cfg.links.clone().unwrap_or_default();
    let mut link_injector = LinkInjector::new(&link_plan);
    let links_on = cfg.links.is_some();
    let mut dyn_factors: HashMap<ServerId, f64> = HashMap::new();
    // QoS-violation exposure is accounted whenever anything can degrade
    // capacity mid-run.
    let watch_capacity = faults_on || links_on;

    // The congestion-adaptation loop.
    if let Some(a) = &adapt {
        fluid.enable_congestion(a.congestion);
    }
    let mut dm = DegradationMetrics::default();
    let mut congested_t = SimTime::ZERO;
    let num_servers = cfg.testbed.servers as usize;

    let mut map = SessionMap::new();
    let mut outstanding = LevelTracker::new();
    let mut completions = RateCounter::new(SimDuration::from_secs(60));
    let mut rejects = Series::new();
    let mut rejected = 0u64;
    let mut admitted = 0u64;
    let mut completed = 0u64;
    let mut access = AccessStats::new();
    let mut utility_sum = 0.0f64;
    let mut utility_n = 0u64;

    let mut qi = 0usize;
    loop {
        let tq = queries.get(qi).map(|q| q.at);
        let tf = fluid.next_event().filter(|&t| t <= cfg.horizon);
        let tr = plane.next_ready().filter(|&t| t <= cfg.horizon);
        let ta = deadlines.iter().next().map(|&(t, _)| t).filter(|&t| t <= cfg.horizon);
        let tx = injector.next_at().filter(|&t| t <= cfg.horizon);
        let tl = link_injector.next_at().filter(|&t| t <= cfg.horizon);
        let tc = fluid.congestion_next_at().filter(|&t| t <= cfg.horizon);
        let Some(t) = [tq, tf, tr, ta, tx, tl, tc].into_iter().flatten().min() else { break };
        if t > cfg.horizon {
            break;
        }
        // The active set only changes at processed instants, so the
        // violation exposure over [violation_t, t] is exact.
        if watch_capacity && t > violation_t {
            for &s in &impaired {
                fm.qos_violation_secs +=
                    fluid.active_on(s) as f64 * (t - violation_t).as_secs_f64();
            }
            violation_t = t;
        }
        // Same argument for congestion exposure: the congested set only
        // flips inside `poll_congestion`, which runs at processed
        // instants.
        if adapt_on && t > congested_t {
            dm.congested_secs += fluid.congested_servers() as f64 * (t - congested_t).as_secs_f64();
            congested_t = t;
        }
        fluid.advance_to(t);
        handle_done(
            fluid.drain_completions(),
            engine,
            &mut plane,
            &mut map,
            &mut effects,
            &mut outstanding,
            &mut completions,
            &mut completed,
            &mut deadlines,
            &mut deadline_of,
        );
        // Mid-stream patience: cancel sessions that overran their nominal
        // duration by more than the patience window. Completions at the
        // same instant were drained first, so finishing exactly on the
        // deadline counts as done.
        while let Some(&(dt, sid)) = deadlines.iter().next() {
            if dt > t {
                break;
            }
            deadlines.remove(&(dt, sid));
            deadline_of.remove(sid);
            fluid.cancel_session(t, sid);
            outstanding.adjust(t, -1);
            let session = map.unbind(sid).expect("deadline sessions are bound");
            effects.clear();
            plane.handle_into(
                engine,
                Command::Teardown { session, abandoned: true, now: t },
                &mut effects,
            );
        }
        // Fault edges due now fire after completions and patience (a
        // session finishing at the crash instant made it) and before
        // retries and the new arrival (which must see the post-crash
        // world).
        while let Some(ev) = injector.pop_due(t) {
            match ev {
                FaultEvent::Begin(spec) => match spec.kind {
                    FaultKind::ServerCrash => {
                        let depth = crash_depth.entry(spec.server).or_insert(0);
                        *depth += 1;
                        if *depth > 1 {
                            continue;
                        }
                        // Bar the dead server from admission and
                        // bulk-release its reservations so new admissions
                        // route around it...
                        plane.handle_into(
                            engine,
                            Command::ServerDown { server: spec.server },
                            &mut effects,
                        );
                        // ...then displace its in-flight sessions and let
                        // the plane try to fail each one over.
                        for (sid, remaining) in fluid.fail_server(t, spec.server) {
                            outstanding.adjust(t, -1);
                            fm.interrupted += 1;
                            if let Some(dl) = deadline_of.remove(sid) {
                                deadlines.remove(&(dl, sid));
                            }
                            let session = map.unbind(sid).expect("live sessions are bound");
                            effects.clear();
                            plane.handle_into(
                                engine,
                                Command::Displace { session, remaining, now: t },
                                &mut effects,
                            );
                            for e in effects.drain(..) {
                                match e {
                                    Effect::Admitted(adm) => {
                                        fm.failed_over += 1;
                                        if let Degraded::Failover { steps } = adm.degraded {
                                            if steps > 0 {
                                                fm.failover_degraded += 1;
                                            }
                                        }
                                        fm.recovery.push(0.0);
                                        outstanding.adjust(t, 1);
                                        access.record(adm.video, adm.server);
                                        if let Some(u) = adm.utility {
                                            utility_sum += u;
                                            utility_n += 1;
                                        }
                                        start_stream(
                                            &mut fluid,
                                            &mut map,
                                            &mut deadlines,
                                            &mut deadline_of,
                                            patience,
                                            t,
                                            &adm,
                                        );
                                    }
                                    Effect::Requeued => fm.requeued += 1,
                                    Effect::Dropped => fm.dropped += 1,
                                    other => unreachable!("displace produced {other:?}"),
                                }
                            }
                        }
                    }
                    FaultKind::LinkDegradation { factor } => {
                        link_factors.entry(spec.server).or_default().push(factor);
                        apply_capacity(
                            &mut fluid,
                            &mut impaired,
                            &link_factors,
                            &disk_factors,
                            &dyn_factors,
                            &cfg.testbed,
                            t,
                            spec.server,
                        );
                    }
                    FaultKind::DiskSlowdown { factor } => {
                        disk_factors.entry(spec.server).or_default().push(factor);
                        apply_capacity(
                            &mut fluid,
                            &mut impaired,
                            &link_factors,
                            &disk_factors,
                            &dyn_factors,
                            &cfg.testbed,
                            t,
                            spec.server,
                        );
                    }
                },
                FaultEvent::End(spec) => match spec.kind {
                    FaultKind::ServerCrash => {
                        let depth = crash_depth.get_mut(&spec.server).expect("crash began");
                        *depth -= 1;
                        if *depth == 0 {
                            plane.handle_into(
                                engine,
                                Command::ServerUp { server: spec.server },
                                &mut effects,
                            );
                        }
                    }
                    FaultKind::LinkDegradation { factor } => {
                        remove_factor(&mut link_factors, spec.server, factor);
                        apply_capacity(
                            &mut fluid,
                            &mut impaired,
                            &link_factors,
                            &disk_factors,
                            &dyn_factors,
                            &cfg.testbed,
                            t,
                            spec.server,
                        );
                    }
                    FaultKind::DiskSlowdown { factor } => {
                        remove_factor(&mut disk_factors, spec.server, factor);
                        apply_capacity(
                            &mut fluid,
                            &mut impaired,
                            &link_factors,
                            &disk_factors,
                            &dyn_factors,
                            &cfg.testbed,
                            t,
                            spec.server,
                        );
                    }
                },
            }
        }
        // Link set-points due now land after fault edges (a set-point and
        // a fault window at one instant compose in plan order) and before
        // retries and arrivals, which must see the re-rated world. Unlike
        // fault windows, set-points also move the admission view: the
        // reservation systems should plan against the capacity the
        // network actually has.
        while let Some(spec) = link_injector.pop_due(t) {
            dyn_factors.insert(spec.server, spec.factor);
            let net = apply_capacity(
                &mut fluid,
                &mut impaired,
                &link_factors,
                &disk_factors,
                &dyn_factors,
                &cfg.testbed,
                t,
                spec.server,
            );
            plane.handle_into(
                engine,
                Command::SetNetCapacity { server: spec.server, bps: net },
                &mut effects,
            );
        }
        // Retries due now run before the new arrival: they have waited
        // longer.
        if queue_on {
            effects.clear();
            plane.handle_into(engine, Command::Tick { now: t }, &mut effects);
            for e in effects.drain(..) {
                match e {
                    Effect::Admitted(adm) => {
                        match adm.origin {
                            AdmitOrigin::Recovery { interrupted_at } => {
                                // A displaced session re-serviced from the
                                // queue was admitted once already: count
                                // its recovery, not a second admission.
                                fm.recovered += 1;
                                fm.recovery.push((t - interrupted_at).as_secs_f64());
                            }
                            _ => admitted += 1,
                        }
                        outstanding.adjust(t, 1);
                        access.record(adm.video, adm.server);
                        if let Some(u) = adm.utility {
                            utility_sum += u;
                            utility_n += 1;
                        }
                        start_stream(
                            &mut fluid,
                            &mut map,
                            &mut deadlines,
                            &mut deadline_of,
                            patience,
                            t,
                            &adm,
                        );
                    }
                    Effect::Rejected { .. } => {
                        rejected += 1;
                        rejects.push(t, rejected as f64);
                    }
                    Effect::Dropped => fm.dropped += 1,
                    other => unreachable!("tick produced {other:?}"),
                }
            }
        }
        if tq == Some(t) {
            // Every query arriving at this exact instant forms one batch (a
            // flash-crowd burst under `arrival_burst > 1`; always a single
            // query for Poisson arrivals). With the plan cache on, the
            // bulk-admit path warms the cache for the whole batch first —
            // requests sorted by cache key, each distinct enumeration done
            // once — before the queries admit sequentially in arrival
            // order. Prefetching consumes no RNG and reserves nothing, so
            // the decisions are bit-identical to cold processing.
            let batch_end = qi + queries[qi..].iter().take_while(|q| q.at == t).count();
            if batch_end - qi > 1 && plane.wants_prefetch() {
                let requests: Vec<PlanRequest> = queries[qi..batch_end]
                    .iter()
                    .map(|q| PlanRequest {
                        video: q.video,
                        qos: q.qos.clone(),
                        security: QopSecurity::Open,
                    })
                    .collect();
                plane.handle_into(engine, Command::Prefetch { requests }, &mut effects);
            }
            // Brownout: once enough of the cluster sits congested, the
            // front door sheds by service class — Economy requests are
            // refused outright, richer requests are admitted one ladder
            // step down or refused, and nothing queues (a browned-out
            // system must shed load now, not promise it later). The
            // congested set is frozen for the whole instant (it only
            // moves in the end-of-instant poll), so every query in a
            // burst sees the same policy.
            let brownout_now = adapt.as_ref().is_some_and(|a| {
                let congested = fluid.congested_servers();
                congested > 0 && congested as f64 >= a.brownout_ratio * num_servers as f64
            });
            while qi < batch_end {
                let q = &queries[qi];
                qi += 1;
                let query = QueuedQuery { video: q.video, qos: q.qos.clone() };
                effects.clear();
                plane.handle_into(
                    engine,
                    Command::Admit {
                        query,
                        class: qop_class(&q.qop),
                        brownout: brownout_now,
                        now: t,
                    },
                    &mut effects,
                );
                for e in effects.drain(..) {
                    match e {
                        Effect::Admitted(adm) => {
                            if adm.degraded == Degraded::Brownout {
                                dm.brownout_degraded += 1;
                            }
                            admitted += 1;
                            outstanding.adjust(t, 1);
                            access.record(adm.video, adm.server);
                            if let Some(u) = adm.utility {
                                utility_sum += u;
                                utility_n += 1;
                            }
                            start_stream(
                                &mut fluid,
                                &mut map,
                                &mut deadlines,
                                &mut deadline_of,
                                patience,
                                t,
                                &adm,
                            );
                        }
                        Effect::Rejected { reason, .. } => {
                            if reason.is_brownout() {
                                dm.brownout_rejected += 1;
                            }
                            rejected += 1;
                            rejects.push(t, rejected as f64);
                        }
                        Effect::Queued => {}
                        other => unreachable!("admit produced {other:?}"),
                    }
                }
            }
        }
        // End-of-instant congestion poll: demand ratios only move at
        // processed instants (session adds, completions, cancellations,
        // re-rates all happen above), so polling here sees every edge
        // exactly when it happens; the `tc` time source wakes the loop
        // for pure dwell expiries. Runs after the arrivals so a burst
        // that congests a server starts its dwell clock at this instant.
        // Adaptation itself moves demand, so the poll loops until a quiet
        // round — bounded, because upshifts are rate-limited and
        // downshifts stop at the ladder floor.
        if adapt_on {
            for _ in 0..4 {
                let events = fluid.poll_congestion(t);
                if events.is_empty() {
                    break;
                }
                for ev in events {
                    // The plane decides who to renegotiate and to what;
                    // this driver reports the candidates (with their
                    // data-plane backlogs) and mirrors the outcomes into
                    // the fluid engine.
                    let candidates: Vec<Candidate> = fluid
                        .sessions_on(ev.server)
                        .into_iter()
                        .filter_map(|sid| {
                            map.get(sid).map(|session| Candidate {
                                session,
                                backlog: fluid.session_backlog(sid),
                            })
                        })
                        .collect();
                    match ev.edge {
                        CongestionEdge::Onset => {
                            dm.congestion_events += 1;
                            let (_, effective) = effective_capacity(
                                &link_factors,
                                &disk_factors,
                                &dyn_factors,
                                &cfg.testbed,
                                ev.server,
                            );
                            effects.clear();
                            plane.handle_into(
                                engine,
                                Command::CongestionOnset { server: ev.server, candidates, now: t },
                                &mut effects,
                            );
                            for e in effects.drain(..) {
                                let Effect::Renegotiated(r) = e else {
                                    unreachable!("onset produced a non-renegotiation")
                                };
                                dm.downshifts += 1;
                                if r.hunting {
                                    dm.oscillations += 1;
                                }
                                dm.violation_secs_avoided +=
                                    r.bytes_saved.max(0.0) / effective.max(1) as f64;
                                apply_renegotiation(
                                    &mut fluid,
                                    &mut map,
                                    &mut deadlines,
                                    &mut deadline_of,
                                    patience,
                                    &mut access,
                                    t,
                                    &r,
                                );
                            }
                        }
                        CongestionEdge::Cleared => {
                            effects.clear();
                            plane.handle_into(
                                engine,
                                Command::CongestionCleared {
                                    server: ev.server,
                                    candidates,
                                    now: t,
                                },
                                &mut effects,
                            );
                            for e in effects.drain(..) {
                                let Effect::Renegotiated(r) = e else {
                                    unreachable!("cleared produced a non-renegotiation")
                                };
                                dm.upshifts += 1;
                                apply_renegotiation(
                                    &mut fluid,
                                    &mut map,
                                    &mut deadlines,
                                    &mut deadline_of,
                                    patience,
                                    &mut access,
                                    t,
                                    &r,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    if watch_capacity && cfg.horizon > violation_t {
        for &s in &impaired {
            fm.qos_violation_secs +=
                fluid.active_on(s) as f64 * (cfg.horizon - violation_t).as_secs_f64();
        }
    }
    if adapt_on && cfg.horizon > congested_t {
        dm.congested_secs +=
            fluid.congested_servers() as f64 * (cfg.horizon - congested_t).as_secs_f64();
    }
    fluid.advance_to(cfg.horizon);
    handle_done(
        fluid.drain_completions(),
        engine,
        &mut plane,
        &mut map,
        &mut effects,
        &mut outstanding,
        &mut completions,
        &mut completed,
        &mut deadlines,
        &mut deadline_of,
    );
    // Whoever is still waiting never got served: fresh queries fold into
    // the rejected count so `admitted + rejected == queries` holds;
    // displaced sessions still waiting are lost to the fault accounting.
    if queue_on {
        effects.clear();
        plane.handle_into(engine, Command::Finish, &mut effects);
        for e in effects.drain(..) {
            let Effect::Finished { pending, displaced_pending } = e else { continue };
            if pending > 0 {
                rejected += pending;
                rejects.push(cfg.horizon, rejected as f64);
            }
            fm.dropped += displaced_pending;
        }
    }

    let (_, queue_metrics) = plane.into_parts();
    ThroughputResult {
        label: system.label(),
        outstanding: outstanding.sample(cfg.sample_step, cfg.horizon),
        completions_per_min: completions,
        rejects,
        queries: queries.len() as u64,
        admitted,
        rejected,
        completed,
        access,
        mean_utility: (utility_n > 0).then(|| utility_sum / utility_n as f64),
        queue: queue_metrics,
        faults: watch_capacity.then_some(fm),
        degradation: adapt_on.then_some(dm),
    }
}

/// The exact query stream a config drives: the paper's Poisson process
/// over the testbed's catalog, seeded from the run seed. Public so the
/// runtime shell's load generator can replay the same arrivals a driver
/// run would see.
pub fn arrival_stream(testbed: &Testbed, cfg: &ThroughputConfig) -> Vec<GeneratedQuery> {
    let mut traffic = TrafficConfig::paper(testbed.library.len(), cfg.horizon);
    traffic.video_skew = cfg.video_skew;
    traffic.qop_mix = cfg.qop_mix;
    if let Some(period) = cfg.arrival_period {
        traffic.mean_interarrival = period;
    }
    traffic.burst = cfg.arrival_burst.max(1);
    generate_queries(cfg.seed ^ 0x51ab_17e5, &traffic)
}

/// The system under test as a control-plane core, built exactly the way
/// the in-process driver builds it. Public so the TCP shell serves the
/// same planners and cost models the experiments measure.
pub fn build_core(testbed: &Testbed, system: SystemKind, cfg: &ThroughputConfig) -> SystemCore {
    match system {
        SystemKind::Vdbms => {
            SystemCore::Plain { planner: BaselinePlanner::new(BaselineKind::Plain) }
        }
        SystemKind::VdbmsQosApi => SystemCore::QosApi {
            planner: BaselinePlanner::new(BaselineKind::WithQosApi),
            api: testbed.qos_api(),
            headroom: cfg.testbed.cost.reservation_headroom,
        },
        SystemKind::Quasaq(kind) => {
            let mut manager = testbed.quality_manager_with(
                kind,
                quasaq_core::GeneratorConfig {
                    cost: cfg.testbed.cost,
                    allow_remote: !cfg.local_plans_only,
                    ..quasaq_core::GeneratorConfig::default()
                },
            );
            manager.set_plan_caching(cfg.plan_cache);
            SystemCore::Quasaq {
                manager,
                executor: PlanExecutor { cost: cfg.testbed.cost, ..PlanExecutor::default() },
            }
        }
    }
}

/// A server's composed capacity right now: the fault windows' factors
/// multiplied with the link plan's dynamic set-point. Returns
/// `(net, effective)` — the network side alone (what the admission view
/// tracks on the links path) and `min(net, disk)` (what the fluid link
/// carries; a slow disk starves the link). Both floored at 1 byte/s so
/// in-flight transfers keep draining. The dynamic factor multiplies last
/// (and defaults to exactly 1.0), so fault-only runs compute the same
/// float product they always did.
fn effective_capacity(
    link_factors: &HashMap<ServerId, Vec<f64>>,
    disk_factors: &HashMap<ServerId, Vec<f64>>,
    dyn_factors: &HashMap<ServerId, f64>,
    testbed: &TestbedConfig,
    server: ServerId,
) -> (f64, u64) {
    let product =
        |m: &HashMap<ServerId, Vec<f64>>| m.get(&server).map_or(1.0, |v| v.iter().product::<f64>());
    let net = testbed.link_capacity_bps as f64
        * product(link_factors)
        * dyn_factors.get(&server).copied().unwrap_or(1.0);
    let disk = testbed.disk_bps * product(disk_factors);
    (net.max(1.0), (net.min(disk).max(1.0)) as u64)
}

/// Re-applies a server's effective capacity after its fault factors or
/// dynamic set-point changed, and tracks QoS-violation exposure via the
/// impaired set. Returns the network-side capacity for the admission
/// view.
#[allow(clippy::too_many_arguments)]
fn apply_capacity(
    fluid: &mut FluidEngine,
    impaired: &mut BTreeSet<ServerId>,
    link_factors: &HashMap<ServerId, Vec<f64>>,
    disk_factors: &HashMap<ServerId, Vec<f64>>,
    dyn_factors: &HashMap<ServerId, f64>,
    testbed: &TestbedConfig,
    now: SimTime,
    server: ServerId,
) -> f64 {
    let (net, effective) =
        effective_capacity(link_factors, disk_factors, dyn_factors, testbed, server);
    fluid.set_link_capacity(now, server, effective);
    if effective < testbed.link_capacity_bps {
        impaired.insert(server);
    } else {
        impaired.remove(&server);
    }
    net
}

/// Drops one ended fault window's factor (the first matching entry, so
/// overlapping identical windows compose and unwind deterministically).
fn remove_factor(factors: &mut HashMap<ServerId, Vec<f64>>, server: ServerId, factor: f64) {
    let v = factors.get_mut(&server).expect("fault window began");
    let i = v.iter().position(|&f| f == factor).expect("factor recorded at begin");
    v.remove(i);
}

/// Mirrors an admission into the data plane: starts the fluid stream,
/// binds the ids, and arms the patience deadline. Under the fair-share
/// policy the link always accepts a new session (it stretches instead of
/// refusing), so this cannot fail.
fn start_stream(
    fluid: &mut FluidEngine,
    map: &mut SessionMap,
    deadlines: &mut BTreeSet<(SimTime, FluidSessionId)>,
    deadline_of: &mut PerSession<SimTime>,
    patience: Option<SimDuration>,
    now: SimTime,
    adm: &Admission,
) {
    let sid =
        fluid.add_session(now, adm.server, adm.bytes, adm.rate_bps).expect("fair-share admits");
    map.bind(sid, adm.session);
    if let Some(p) = patience {
        let dl = now + adm.nominal + p;
        deadlines.insert((dl, sid));
        deadline_of.insert(sid, dl);
    }
}

/// Mirrors a renegotiation into the data plane: replaces the fluid
/// session with the remaining bytes at the new rate and rebinds every
/// per-session table to the new id (cancel + re-add allocates fresh).
#[allow(clippy::too_many_arguments)]
fn apply_renegotiation(
    fluid: &mut FluidEngine,
    map: &mut SessionMap,
    deadlines: &mut BTreeSet<(SimTime, FluidSessionId)>,
    deadline_of: &mut PerSession<SimTime>,
    patience: Option<SimDuration>,
    access: &mut AccessStats,
    now: SimTime,
    r: &Renegotiation,
) {
    let old = map.take_fluid(r.session).expect("renegotiated sessions are live");
    fluid.cancel_session(now, old);
    fluid.forget_session(old);
    let new_sid = fluid.add_session(now, r.server, r.bytes, r.rate_bps).expect("fair-share admits");
    map.bind(new_sid, r.session);
    if let Some(dl) = deadline_of.remove(old) {
        deadlines.remove(&(dl, old));
    }
    if let Some(p) = patience {
        let dl = now + r.nominal + p;
        deadlines.insert((dl, new_sid));
        deadline_of.insert(new_sid, dl);
    }
    access.record(r.video, r.server);
}

/// Completion sweep: retire each finished stream from the side tables and
/// tear its control-plane session down (releasing the reservation).
#[allow(clippy::too_many_arguments)]
fn handle_done(
    done: Vec<quasaq_stream::FluidDone>,
    engine: &MetadataEngine,
    plane: &mut ControlPlane,
    map: &mut SessionMap,
    effects: &mut Vec<Effect>,
    outstanding: &mut LevelTracker,
    completions: &mut RateCounter,
    completed: &mut u64,
    deadlines: &mut BTreeSet<(SimTime, FluidSessionId)>,
    deadline_of: &mut PerSession<SimTime>,
) {
    for d in done {
        outstanding.adjust(d.at, -1);
        completions.record(d.at);
        *completed += 1;
        if let Some(dl) = deadline_of.remove(d.id) {
            deadlines.remove(&(dl, d.id));
        }
        let session = map.unbind(d.id).expect("completed sessions are bound");
        effects.clear();
        plane.handle_into(
            engine,
            Command::Teardown { session, abandoned: false, now: d.at },
            effects,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_cfg() -> ThroughputConfig {
        ThroughputConfig {
            testbed: TestbedConfig::default(),
            horizon: SimTime::from_secs(300),
            sample_step: SimDuration::from_secs(10),
            seed: 11,
            video_skew: 0.0,
            qop_mix: QopMix::Uniform,
            local_plans_only: false,
            admission: None,
            faults: None,
            arrival_period: None,
            arrival_burst: 1,
            plan_cache: false,
            links: None,
            adaptation: None,
        }
    }

    #[test]
    fn plain_vdbms_admits_everything() {
        let r = run_throughput(SystemKind::Vdbms, &short_cfg());
        assert_eq!(r.rejected, 0);
        assert_eq!(r.admitted, r.queries);
        assert!(r.stable_outstanding(SimTime::from_secs(300)) > 0.0);
    }

    #[test]
    fn qos_api_rejects_under_load() {
        let r = run_throughput(SystemKind::VdbmsQosApi, &short_cfg());
        assert!(r.rejected > 0, "expected rejects under 1 q/s of full-quality demand");
        assert_eq!(r.admitted + r.rejected, r.queries);
    }

    #[test]
    fn quasaq_outserves_qos_api() {
        let cfg = short_cfg();
        let quasaq = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        let qosapi = run_throughput(SystemKind::VdbmsQosApi, &cfg);
        let h = SimTime::from_secs(300);
        assert!(
            quasaq.stable_outstanding(h) > qosapi.stable_outstanding(h),
            "QuaSAQ {} vs QoS-API {}",
            quasaq.stable_outstanding(h),
            qosapi.stable_outstanding(h)
        );
    }

    #[test]
    fn lrb_beats_random() {
        let cfg = short_cfg();
        let lrb = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        let random = run_throughput(SystemKind::Quasaq(CostKind::Random), &cfg);
        let h = SimTime::from_secs(300);
        assert!(
            lrb.stable_outstanding(h) > random.stable_outstanding(h),
            "LRB {} vs Random {}",
            lrb.stable_outstanding(h),
            random.stable_outstanding(h)
        );
        assert!(lrb.rejected <= random.rejected);
    }

    #[test]
    fn vdbms_has_most_outstanding_sessions() {
        // Fig 6a's signature: the system with no admission control piles
        // up the most concurrent sessions.
        let cfg = short_cfg();
        let plain = run_throughput(SystemKind::Vdbms, &cfg);
        let quasaq = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        let h = SimTime::from_secs(300);
        assert!(plain.stable_outstanding(h) > quasaq.stable_outstanding(h));
    }

    #[test]
    fn stable_outstanding_truncates_odd_micros_horizon() {
        // Window start must be horizon/2 in integer microseconds (3 us for a
        // 7 us horizon), not a float reconstruction.
        let mut outstanding = Series::new();
        outstanding.push(SimTime::from_micros(2), 100.0); // before the window
        outstanding.push(SimTime::from_micros(3), 4.0); // exactly at the half
        outstanding.push(SimTime::from_micros(6), 8.0);
        let r = ThroughputResult {
            label: "synthetic".to_string(),
            outstanding,
            completions_per_min: RateCounter::new(SimDuration::from_secs(60)),
            rejects: Series::new(),
            queries: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            access: AccessStats::new(),
            mean_utility: None,
            queue: None,
            faults: None,
            degradation: None,
        };
        let horizon = SimTime::from_micros(7);
        assert_eq!(horizon.halved(), SimTime::from_micros(3));
        assert!((r.stable_outstanding(horizon) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn accounting_balances() {
        let r = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &short_cfg());
        assert_eq!(r.admitted + r.rejected, r.queries);
        assert!(r.completed <= r.admitted);
        assert_eq!(r.completions_per_min.total(), r.completed);
    }

    #[test]
    fn queued_accounting_balances() {
        let cfg = ThroughputConfig { admission: Some(AdmissionConfig::default()), ..short_cfg() };
        for system in
            [SystemKind::Vdbms, SystemKind::VdbmsQosApi, SystemKind::Quasaq(CostKind::Lrb)]
        {
            let r = run_throughput(system, &cfg);
            // Every query reaches exactly one terminal outcome.
            assert_eq!(r.admitted + r.rejected, r.queries, "{}", r.label);
            assert!(r.completed <= r.admitted);
            let q = r.queue.as_ref().expect("front end enabled");
            // The rejected count decomposes exactly into the queue's drop
            // reasons; mid-stream abandonments were admitted, not rejected.
            assert_eq!(
                r.rejected,
                q.overflow + q.hopeless + q.abandoned_waiting + q.pending_at_horizon,
                "{}",
                r.label
            );
            assert_eq!(q.wait.count(), r.admitted, "{}", r.label);
            assert!(r.completed + q.abandoned_streaming <= r.admitted);
        }
    }

    #[test]
    fn queue_admits_more_than_fire_and_forget() {
        // Waiting out transient overload (and degrading while waiting)
        // must serve strictly more queries than rejecting on first touch.
        let base = short_cfg();
        let queued =
            ThroughputConfig { admission: Some(AdmissionConfig::default()), ..base.clone() };
        let fire_and_forget = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &base);
        let with_queue = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &queued);
        assert!(
            with_queue.admitted > fire_and_forget.admitted,
            "queued {} vs direct {}",
            with_queue.admitted,
            fire_and_forget.admitted
        );
        let q = with_queue.queue.as_ref().unwrap();
        assert!(q.retries > 0, "overloaded run must exercise retries");
        assert!(q.wait.mean() > 0.0, "some admissions waited");
        // The quantile sketch rides along: with waits recorded, p95 is
        // reportable and at least the mean's order of magnitude.
        let p95 = with_queue.queue_wait_p95().expect("waits recorded");
        assert!(p95 > 0.0, "p95 of a waiting run must be positive");
        assert!(p95 >= q.wait.mean() * 0.5, "p95 {} vs mean {}", p95, q.wait.mean());
    }

    /// The acceptance scenario: server 0 crashes at t = 1000 s and
    /// restarts at t = 2000 s. Sessions on it fail over (possibly at a
    /// renegotiated QoP) or re-enter the admission queue, and the whole
    /// run replays deterministically.
    #[test]
    fn crash_restart_fails_over_deterministically() {
        let cfg = ThroughputConfig { seed: 11, ..ThroughputConfig::availability() };
        for system in
            [SystemKind::Vdbms, SystemKind::VdbmsQosApi, SystemKind::Quasaq(CostKind::Lrb)]
        {
            let r = run_throughput(system, &cfg);
            let f = r.faults.as_ref().expect("fault injection enabled");
            assert!(f.interrupted > 0, "{}: the crash must cut live sessions", r.label);
            // Every interrupted session reaches exactly one fate.
            assert_eq!(
                f.interrupted,
                f.failed_over + f.recovered + f.dropped,
                "{}: {f:?}",
                r.label
            );
            if system == SystemKind::Vdbms {
                // No admission control: every displaced session lands on a
                // surviving replica at once.
                assert_eq!(f.failed_over, f.interrupted, "{}: {f:?}", r.label);
            } else {
                // Admission-controlled systems requeue or shed what the
                // saturated survivors cannot carry.
                assert!(
                    f.failed_over + f.requeued + f.dropped > 0,
                    "{}: displaced sessions must be dispatched somewhere: {f:?}",
                    r.label
                );
            }
            assert_eq!(f.recovery.count(), f.failed_over + f.recovered, "{}", r.label);
            // Displaced sessions never double-count in the admission
            // accounting.
            assert_eq!(r.admitted + r.rejected, r.queries, "{}", r.label);
            // Deterministic replay, bit for bit.
            assert_eq!(r, run_throughput(system, &cfg), "{}", r.label);
        }
    }

    #[test]
    fn failover_renegotiates_down_the_ladder_under_pressure() {
        // Without the queue, displaced sessions either fail over at once
        // or are dropped; with two of three servers gone, the lone
        // survivor is tight enough that QuaSAQ renegotiates.
        let crash = SimTime::from_secs(150);
        let restart = SimTime::from_secs(280);
        let mut plan = FaultPlan::crash_restart(ServerId(0), crash, restart);
        plan.faults.extend(FaultPlan::crash_restart(ServerId(1), crash, restart).faults);
        let cfg = ThroughputConfig {
            horizon: SimTime::from_secs(300),
            faults: Some(plan),
            ..ThroughputConfig::fig6()
        };
        let r = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        let f = r.faults.as_ref().expect("fault injection enabled");
        assert!(f.interrupted > 0);
        assert_eq!(f.interrupted, f.failed_over + f.recovered + f.dropped);
        assert_eq!(f.recovered, 0, "no queue: nothing re-enters");
        assert_eq!(f.requeued, 0, "no queue: nothing re-enters");
        assert!(
            f.failover_degraded > 0 || f.dropped > 0,
            "two dead servers must force renegotiation or losses: {f:?}"
        );
    }

    #[test]
    fn degraded_links_accumulate_violation_seconds() {
        // Halve server 0's link for 100 s mid-run: sessions keep flowing
        // (nothing is interrupted) but their exposure is accounted.
        let plan = FaultPlan {
            faults: vec![quasaq_sim::FaultSpec {
                server: ServerId(0),
                at: SimTime::from_secs(100),
                duration: SimDuration::from_secs(100),
                kind: FaultKind::LinkDegradation { factor: 0.5 },
            }],
        };
        let cfg = ThroughputConfig {
            horizon: SimTime::from_secs(300),
            faults: Some(plan),
            ..ThroughputConfig::fig6()
        };
        let r = run_throughput(SystemKind::Vdbms, &cfg);
        let f = r.faults.as_ref().expect("fault injection enabled");
        assert_eq!(f.interrupted, 0, "degradation is not a crash");
        assert!(
            f.qos_violation_secs > 0.0,
            "plain VDBMS keeps streaming through the degraded window"
        );
        // The exposure is bounded by window length x sessions ever live.
        assert!(f.qos_violation_secs <= 100.0 * r.admitted as f64);
    }

    #[test]
    fn fault_free_runs_carry_no_fault_metrics_and_match_legacy() {
        // `faults: None` must be bit-identical to a run with the field
        // absent entirely — which is what every pre-fault test asserts —
        // and an explicit empty plan reports all-zero metrics.
        let none = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &short_cfg());
        assert!(none.faults.is_none());
        let empty = ThroughputConfig { faults: Some(FaultPlan::none()), ..short_cfg() };
        let r = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &empty);
        let f = r.faults.as_ref().expect("explicit empty plan still reports");
        assert_eq!(*f, FaultMetrics::default());
        // Identical everywhere else.
        assert_eq!(none.outstanding, r.outstanding);
        assert_eq!(none.admitted, r.admitted);
        assert_eq!(none.rejected, r.rejected);
        assert_eq!(none.completed, r.completed);
    }

    /// The honesty fix for EXPERIMENTS.md Fig 6: with a patience window,
    /// plain VDBMS's outstanding sessions stop growing monotonically and
    /// plateau near arrival_rate * (nominal + patience), because clients
    /// cancel sessions the oversubscribed links stretched too far.
    #[test]
    fn plain_vdbms_plateaus_with_patience() {
        // Short clips so the run reaches steady state inside the horizon.
        let mut testbed = TestbedConfig::default();
        testbed.library.min_duration = SimDuration::from_secs(30);
        testbed.library.max_duration = SimDuration::from_secs(120);
        let horizon = SimTime::from_secs(600);
        let base = ThroughputConfig {
            testbed,
            horizon,
            sample_step: SimDuration::from_secs(10),
            seed: 11,
            video_skew: 0.0,
            qop_mix: QopMix::Uniform,
            local_plans_only: false,
            admission: None,
            faults: None,
            arrival_period: None,
            arrival_burst: 1,
            plan_cache: false,
            links: None,
            adaptation: None,
        };
        let queued = ThroughputConfig {
            admission: Some(AdmissionConfig {
                patience: SimDuration::from_secs(60),
                ..AdmissionConfig::default()
            }),
            ..base.clone()
        };
        let without = run_throughput(SystemKind::Vdbms, &base);
        let with = run_throughput(SystemKind::Vdbms, &queued);
        let window = |r: &ThroughputResult, from, to| {
            r.outstanding
                .window_mean(SimTime::from_secs(from), SimTime::from_secs(to))
                .expect("sampled window")
        };
        // Without patience the pile-up keeps growing through the horizon...
        let w1 = window(&without, 300, 450);
        let w2 = window(&without, 450, 601);
        assert!(w2 > w1 * 1.10, "expected monotonic growth, got {w1} -> {w2}");
        // ...with patience it levels off once the oldest stretched
        // sessions start getting cancelled.
        let p1 = window(&with, 300, 450);
        let p2 = window(&with, 450, 601);
        assert!((p2 - p1).abs() < p1 * 0.10, "expected a plateau, got {p1} -> {p2}");
        assert!(p2 < w2, "patience must cap the pile-up ({p2} vs {w2})");
        let q = with.queue.as_ref().expect("front end enabled");
        assert!(q.abandoned_streaming > 0, "stretched sessions must be abandoned");
    }

    /// The flash-crowd case the bulk-admit path exists for: bursty
    /// arrivals over a skewed catalog, cache on vs off. The cached run
    /// must be bit-identical — same admissions, same series, same floats —
    /// while the batch prefetch amortizes enumeration across the burst.
    #[test]
    fn flash_crowd_with_plan_cache_is_bit_identical() {
        let base = ThroughputConfig {
            video_skew: 1.1,
            arrival_burst: 8,
            admission: Some(AdmissionConfig::default()),
            ..short_cfg()
        };
        let cached = ThroughputConfig { plan_cache: true, ..base.clone() };
        for kind in [CostKind::Lrb, CostKind::Random] {
            let cold = run_throughput(SystemKind::Quasaq(kind), &base);
            let warm = run_throughput(SystemKind::Quasaq(kind), &cached);
            assert_eq!(cold, warm, "cache changed a {kind:?} decision");
            assert_eq!(cold.admitted + cold.rejected, cold.queries);
        }
        // Bursts actually multiply load: ~8x the queries of the lone stream.
        let lone = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &short_cfg());
        let burst = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &base);
        assert!(burst.queries > lone.queries * 6, "{} vs {}", burst.queries, lone.queries);
    }

    use quasaq_sim::LinkSpec;

    /// A window where one server's link collapses and later recovers.
    fn crush_server(server: ServerId, factor: f64) -> LinkPlan {
        LinkPlan {
            changes: vec![
                LinkSpec { server, at: SimTime::from_secs(60), factor },
                LinkSpec { server, at: SimTime::from_secs(180), factor: 1.0 },
            ],
        }
    }

    /// An empty link plan plus an idle adaptation loop must be inert:
    /// identical decisions, identical series, zeroed metrics. This pins
    /// the baseline before the degradation tests trust the machinery.
    #[test]
    fn idle_link_plan_and_adaptation_are_inert() {
        let legacy = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &short_cfg());
        let cfg = ThroughputConfig {
            links: Some(LinkPlan::none()),
            adaptation: Some(AdaptationConfig::default()),
            ..short_cfg()
        };
        let mut idle = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        assert_eq!(idle.faults.take(), Some(FaultMetrics::default()));
        assert_eq!(idle.degradation.take(), Some(DegradationMetrics::default()));
        assert_eq!(idle, legacy);
    }

    /// Link set-points actually move capacity: a crushed server stretches
    /// its fair-share sessions into QoS violation, and the recovery
    /// set-point ends the exposure. Replays agree bit for bit on the
    /// stochastic timeline.
    #[test]
    fn link_set_points_degrade_and_recover_capacity() {
        let cfg = ThroughputConfig { links: Some(crush_server(ServerId(0), 0.3)), ..short_cfg() };
        let r = run_throughput(SystemKind::Vdbms, &cfg);
        let f = r.faults.as_ref().expect("link dynamics enable violation tracking");
        assert_eq!(f.interrupted, 0, "set-points are not crashes");
        assert!(f.qos_violation_secs > 0.0, "a 70% collapse must stretch sessions");
        assert_eq!(r, run_throughput(SystemKind::Vdbms, &cfg), "replay");
    }

    /// The tentpole end-to-end claim: under a congesting link window the
    /// adaptation loop renegotiates sessions down the ladder, sheds load
    /// off the hot server, and ends the run with strictly less violation
    /// exposure than the frozen system — without oscillating.
    #[test]
    fn adaptation_sheds_load_and_reduces_violation_exposure() {
        let frozen_cfg =
            ThroughputConfig { links: Some(crush_server(ServerId(0), 0.3)), ..short_cfg() };
        let adaptive_cfg = ThroughputConfig {
            adaptation: Some(AdaptationConfig::default()),
            ..frozen_cfg.clone()
        };
        let frozen = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &frozen_cfg);
        let adapted = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &adaptive_cfg);
        let dm = adapted.degradation.as_ref().expect("adaptation enabled");
        assert!(dm.congestion_events > 0, "the crush must trip the watermark: {dm:?}");
        assert!(dm.downshifts > 0, "sustained congestion must renegotiate: {dm:?}");
        assert!(dm.congested_secs > 0.0, "{dm:?}");
        assert!(dm.violation_secs_avoided > 0.0, "{dm:?}");
        // One crush window, 30 s upgrade period: recovery must not hunt.
        assert_eq!(dm.oscillations, 0, "{dm:?}");
        assert!(dm.upshifts <= dm.downshifts, "{dm:?}");
        let fv = frozen.faults.as_ref().unwrap().qos_violation_secs;
        let av = adapted.faults.as_ref().unwrap().qos_violation_secs;
        assert!(av < fv, "adaptation must shrink exposure: {av} vs frozen {fv}");
        assert_eq!(adapted.admitted + adapted.rejected, adapted.queries);
    }

    /// Brownout at the front door: once enough servers congest, Economy
    /// arrivals are turned away outright and Standard/Premium arrivals
    /// are degraded one step before admission. The plain VDBMS overloads
    /// naturally, so its congestion is organic rather than injected.
    #[test]
    fn brownout_sheds_arrivals_by_service_class() {
        let cfg = ThroughputConfig {
            links: Some(LinkPlan::none()),
            adaptation: Some(AdaptationConfig::default()),
            ..short_cfg()
        };
        let r = run_throughput(SystemKind::Vdbms, &cfg);
        let dm = r.degradation.as_ref().expect("adaptation enabled");
        assert!(dm.congestion_events > 0, "1 q/s of full-rate demand must congest: {dm:?}");
        assert!(dm.brownout_rejected > 0, "Economy arrivals must be shed: {dm:?}");
        assert!(dm.brownout_degraded > 0, "Standard/Premium must degrade: {dm:?}");
        assert!(r.rejected >= dm.brownout_rejected);
        assert_eq!(r.admitted + r.rejected, r.queries);
        // The plain system admits everything brownout lets through.
        assert_eq!(r.rejected, dm.brownout_rejected);
    }

    /// The full stochastic stack — sampled Markov link process, adaptation,
    /// brownout, admission queue — replays bit-identically, which is what
    /// makes every degradation number in the bench suite trustworthy.
    #[test]
    fn stochastic_runs_replay_bit_identically() {
        let sampled = LinkPlan::sample(
            17,
            ServerId::first_n(3),
            SimTime::from_secs(300),
            quasaq_sim::LinkModel::Markov {
                factors: [1.0, 0.45, 0.2],
                dwell: [
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(40),
                    SimDuration::from_secs(20),
                ],
            },
        );
        assert!(!sampled.is_empty(), "a 300 s horizon must sample transitions");
        let cfg = ThroughputConfig {
            links: Some(sampled),
            adaptation: Some(AdaptationConfig::default()),
            admission: Some(AdmissionConfig::default()),
            ..short_cfg()
        };
        for system in [SystemKind::Vdbms, SystemKind::Quasaq(CostKind::Lrb)] {
            let a = run_throughput(system, &cfg);
            assert_eq!(a, run_throughput(system, &cfg), "{} replay", system.label());
        }
    }
}
