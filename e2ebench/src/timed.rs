//! Timing taken from outside the program: the LRB control-plane core
//! built exactly as `quasaq_workload::build_core` builds it, except that
//! its cost model is wrapped in a forwarder that times `rank` and
//! `rank_subset`; a clock that reads wall and process CPU time together;
//! and a helper that repeats a measured job until its time budget is
//! spent.

use crate::gauge::Gauge;
use quasaq_core::{
    CostModel, GeneratorConfig, LrbModel, Plan, PlanExecutor, PlanGenerator, QualityManager,
};
use quasaq_qosapi::CompositeQosApi;
use quasaq_service::{PlaneConfig, SystemCore};
use quasaq_sim::Rng;
use quasaq_workload::{Testbed, ThroughputConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the cost-model wrapper saw.
#[derive(Default)]
pub struct RankTally {
    nanos: AtomicU64,
    plans: AtomicU64,
}

impl RankTally {
    /// Wall time spent ranking, in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Plans handed to the cost model.
    pub fn plans(&self) -> u64 {
        self.plans.load(Ordering::Relaxed)
    }
}

/// Forwards every call to the wrapped model and adds its wall time and
/// plan count to the tally.
struct TimedCost {
    inner: LrbModel,
    tally: Arc<RankTally>,
}

impl TimedCost {
    fn note(&self, start: Instant, plans: usize) {
        let nanos = start.elapsed().as_nanos() as u64;
        self.tally.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.tally.plans.fetch_add(plans as u64, Ordering::Relaxed);
    }
}

impl CostModel for TimedCost {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rank(&self, plans: &[Plan], api: &CompositeQosApi, rng: &mut Rng) -> Vec<usize> {
        let start = Instant::now();
        let order = self.inner.rank(plans, api, rng);
        self.note(start, plans.len());
        order
    }

    fn rank_subset(
        &self,
        plans: &[Plan],
        subset: &[usize],
        api: &CompositeQosApi,
        rng: &mut Rng,
    ) -> Vec<usize> {
        let start = Instant::now();
        let order = self.inner.rank_subset(plans, subset, api, rng);
        self.note(start, subset.len());
        order
    }
}

/// The plan generator `build_core` gives a QuaSAQ manager for `cfg`.
pub fn generator(cfg: &ThroughputConfig) -> PlanGenerator {
    PlanGenerator::new(GeneratorConfig {
        cost: cfg.testbed.cost,
        allow_remote: !cfg.local_plans_only,
        ..GeneratorConfig::default()
    })
}

/// `build_core(testbed, SystemKind::Quasaq(CostKind::Lrb), cfg)` with the
/// cost model timed.
pub fn lrb_core(testbed: &Testbed, cfg: &ThroughputConfig) -> (SystemCore, Arc<RankTally>) {
    let tally = Arc::new(RankTally::default());
    let cost = TimedCost { inner: LrbModel, tally: Arc::clone(&tally) };
    let mut manager = QualityManager::new(testbed.qos_api(), generator(cfg), Box::new(cost));
    manager.set_plan_caching(cfg.plan_cache);
    let executor = PlanExecutor { cost: cfg.testbed.cost, ..PlanExecutor::default() };
    (SystemCore::Quasaq { manager, executor }, tally)
}

/// The plane configuration the in-process driver and the shell derive from
/// `cfg` when neither the admission queue nor adaptation is on. The seed
/// mix mirrors theirs; a drift shows up as a failed output check.
pub fn plane_config(cfg: &ThroughputConfig, track_ctx: bool) -> PlaneConfig {
    PlaneConfig { seed: cfg.seed ^ 0x9e37_79b9, admission: None, adaptation: None, track_ctx }
}

/// Seconds of wall-clock time and of this process's CPU time (all its
/// threads). The end-to-end rates and set-up times divide by CPU time:
/// unlike wall time it leaves out time the CPU gave to another process or
/// lost to the hypervisor. With a CPU hog pinned beside the benchmark,
/// wall-clock rates of identical work halved while CPU-time rates moved
/// by 3-5%. Neither clock leaves out contention for a shared host's cores
/// and caches.
#[derive(Clone, Copy, Default)]
pub struct Secs {
    pub wall: f64,
    pub cpu: f64,
}

/// A point in wall-clock and process CPU time.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: Duration,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp { wall: Instant::now(), cpu: cpu_time() }
    }

    /// Time since this stamp.
    pub fn elapsed(&self) -> Secs {
        let cpu = cpu_time().saturating_sub(self.cpu);
        Secs { wall: self.wall.elapsed().as_secs_f64(), cpu: cpu.as_secs_f64() }
    }

    /// Moves this stamp later by `by`, so spans measured from it leave
    /// that time out.
    pub fn skip(&mut self, by: Secs) {
        self.wall += Duration::from_secs_f64(by.wall);
        self.cpu += Duration::from_secs_f64(by.cpu);
    }
}

/// Runs `job` at least `min` times, then again while another run is
/// expected to end within `budget` (wall-clock), returning each result
/// with its time. With a gauge, samples it after every run, outside the
/// run's time but inside the budget.
pub fn repeat<T>(
    budget: Duration,
    min: usize,
    mut gauge: Option<&mut Gauge>,
    mut job: impl FnMut() -> T,
) -> Vec<(T, Secs)> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    while out.len() < min || start.elapsed() + last <= budget {
        let t0 = Stamp::now();
        let r = job();
        let secs = t0.elapsed();
        out.push((r, secs));
        if let Some(g) = gauge.as_deref_mut() {
            g.sample();
        }
        last = t0.wall.elapsed();
    }
    out
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, on all its threads. The kernel
/// leaves steal time out of it when it accounts paravirtual steal.
fn cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`, the only memory
    // the call writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// CPU it is running on. Returns that CPU, or `None` if the platform
/// refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads scheduler
    // state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A 1024-bit mask, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly
    // `size_of_val(&mask)` bytes, which the kernel only reads; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
