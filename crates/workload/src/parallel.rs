//! Deterministic scenario-parallel experiment execution.
//!
//! The paper's headline figures sweep many *independent* simulation runs —
//! 3 systems × 5 cost models × replication/skew ablations — and every run
//! owns its seeded RNG and mutable state, sharing only the immutable
//! [`Testbed`](crate::Testbed). That makes scenario fan-out embarrassingly
//! parallel: [`parallel_map`] runs one closure per scenario on scoped
//! threads and collects results **by scenario index**, so the output is
//! bit-identical to a serial loop regardless of scheduling, core count, or
//! which thread finishes first.
//!
//! [`run_throughput_scenarios`] is the ready-made fan-out for
//! [`run_throughput`] scenario lists; fig5 and ad-hoc sweeps use
//! [`parallel_map`] directly.

use crate::throughput::{run_throughput, SystemKind, ThroughputConfig, ThroughputResult};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a fan-out over `items` scenarios will use:
/// `min(available cores, items)`, at least 1.
pub fn worker_count(items: usize) -> usize {
    let cores = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    cores.min(items).max(1)
}

/// Applies `f` to every item on scoped worker threads and returns the
/// results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so long scenarios —
/// a 7000 s horizon next to a 300 s one — don't leave workers idle behind
/// a static partition. Determinism contract: `f` receives only the item
/// (plus its index) and must not depend on shared mutable state, which is
/// exactly how the experiment drivers are built (per-run seeded RNGs); the
/// result vector is then a pure function of `items` alone.
///
/// Panics in `f` propagate with their original payload: every worker is
/// joined and the first failed join's payload is re-raised, so a failing
/// scenario fails the whole sweep rather than vanishing. A panic also
/// stops the sweep early: the panicking worker raises a shared flag as it
/// unwinds, and every worker checks it before claiming another item, so
/// only items already running finish.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _raise_on_unwind = FailFlag(&failed);
                    while !failed.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let result = f(i, item);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                })
            })
            .collect();
        // Join by hand: the scope's implicit join would replace a worker's
        // panic payload with a generic "a scoped thread panicked".
        let mut panicked = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("every index was visited")
        })
        .collect()
}

/// Raises its flag when dropped during a panic: the worker's signal to the
/// others that the sweep has failed.
struct FailFlag<'a>(&'a AtomicBool);

impl Drop for FailFlag<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs every `(system, config)` scenario concurrently via
/// [`run_throughput`], returning results in scenario order — bit-identical
/// to calling `run_throughput` in a serial loop over the same list.
pub fn run_throughput_scenarios(
    scenarios: &[(SystemKind, ThroughputConfig)],
) -> Vec<ThroughputResult> {
    parallel_map(scenarios, |_, (system, cfg)| run_throughput(*system, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{CostKind, TestbedConfig};
    use quasaq_sim::{SimDuration, SimTime};

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |i, &x| {
            // Stagger finish order so late indices often complete first.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[41u8], |i, &x| x as usize + 1 + i), vec![42]);
    }

    #[test]
    #[should_panic(expected = "scenario 3 failed")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        parallel_map(&items, |i, _| {
            if i == 3 {
                panic!("scenario 3 failed");
            }
            i
        });
    }

    /// After one item panics, no worker claims another: a failing long
    /// sweep reports at once instead of after every remaining scenario.
    #[test]
    fn a_panic_stops_further_claims() {
        let items: Vec<usize> = (0..16).collect();
        let started = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, |i, _| {
                started.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    panic!("item 0 failed");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                i
            })
        }));
        let payload = outcome.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 0 failed"));
        let started = started.load(Ordering::Relaxed);
        assert!(started < items.len(), "{started} of {} items started", items.len());
    }

    /// The tentpole determinism regression: the parallel runner's output is
    /// bit-identical (full `ThroughputResult` equality, floats included) to
    /// a serial loop over the same scenario list.
    #[test]
    fn parallel_scenarios_bit_identical_to_serial() {
        let cfg = ThroughputConfig {
            testbed: TestbedConfig::default(),
            horizon: SimTime::from_secs(120),
            sample_step: SimDuration::from_secs(10),
            seed: 23,
            video_skew: 0.0,
            qop_mix: crate::traffic::QopMix::Uniform,
            local_plans_only: false,
            admission: None,
            faults: None,
            arrival_period: None,
            arrival_burst: 1,
            plan_cache: false,
            links: None,
            adaptation: None,
        };
        let scenarios: Vec<(SystemKind, ThroughputConfig)> = vec![
            (SystemKind::Vdbms, cfg.clone()),
            (SystemKind::VdbmsQosApi, cfg.clone()),
            (SystemKind::Quasaq(CostKind::Lrb), cfg.clone()),
            (SystemKind::Quasaq(CostKind::Random), cfg),
        ];
        let serial: Vec<ThroughputResult> =
            scenarios.iter().map(|(s, c)| run_throughput(*s, c)).collect();
        let parallel = run_throughput_scenarios(&scenarios);
        assert_eq!(serial, parallel);
    }

    /// Same contract with the queued admission front end enabled: queue
    /// state (retries, ladder walks, abandonments, deadlines) is driven by
    /// the same simulated-time event loop, so parallel scheduling must not
    /// perturb a single bit of it — queue metrics included.
    #[test]
    fn queued_scenarios_bit_identical_to_serial() {
        let cfg = ThroughputConfig {
            testbed: TestbedConfig::default(),
            horizon: SimTime::from_secs(120),
            sample_step: SimDuration::from_secs(10),
            seed: 29,
            video_skew: 0.0,
            qop_mix: crate::traffic::QopMix::Uniform,
            local_plans_only: false,
            admission: Some(crate::admission::AdmissionConfig::default()),
            faults: None,
            arrival_period: None,
            arrival_burst: 1,
            plan_cache: false,
            links: None,
            adaptation: None,
        };
        let scenarios: Vec<(SystemKind, ThroughputConfig)> = vec![
            (SystemKind::Vdbms, cfg.clone()),
            (SystemKind::VdbmsQosApi, cfg.clone()),
            (SystemKind::Quasaq(CostKind::Lrb), cfg),
        ];
        let serial: Vec<ThroughputResult> =
            scenarios.iter().map(|(s, c)| run_throughput(*s, c)).collect();
        let parallel = run_throughput_scenarios(&scenarios);
        assert_eq!(serial, parallel);
        for r in &parallel {
            let queue = r.queue.as_ref().expect("front end was enabled");
            assert_eq!(queue.wait.count(), r.admitted);
        }
    }
}
