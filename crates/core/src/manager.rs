//! The Quality Manager — "the focal point of the entire system".
//!
//! For each QoS-aware query (after VDBMS resolves the content component
//! to a logical OID) the manager: generates candidate plans, lets the
//! Runtime Cost Evaluator sort them "in ascending cost order", and walks
//! that order through admission control — "the first plan in this order
//! that satisfies the QoS requirements is used to service the query" —
//! reserving its resource vector through the Composite QoS API. When
//! nothing is admittable, degraded alternatives from the User Profile are
//! offered as the "second chance"; during playback, reservations can be
//! renegotiated.

use crate::cost::CostModel;
use crate::generator::{Chain, PlanGenerator, PlanRequest};
use crate::plan::Plan;
use crate::plancache::{PlanCache, PlanCacheKey, PlanCacheStats};
use crate::qop::UserProfile;
use quasaq_media::CipherAlgo;
use quasaq_qosapi::{BucketLevel, CompositeQosApi, ReservationId, ResourceKey};
use quasaq_sim::{Rng, ServerId};
use quasaq_store::MetadataEngine;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A plan that passed admission and holds its reservation.
#[derive(Debug, Clone)]
pub struct AdmittedPlan {
    /// The chosen plan.
    pub plan: Plan,
    /// The composite reservation backing it.
    pub reservation: ReservationId,
}

/// Why a query could not be serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The plan space is empty: no replica can satisfy the QoS range at
    /// all (static infeasibility).
    NoFeasiblePlan,
    /// Plans exist but none passed admission under the current load.
    AdmissionFailed,
}

impl Rejection {
    /// Whether waiting and retrying could help: admission failures are
    /// load-dependent and clear when sessions finish, while an empty plan
    /// space is static — no amount of queueing produces a replica.
    pub fn is_transient(&self) -> bool {
        matches!(self, Rejection::AdmissionFailed)
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::NoFeasiblePlan => write!(f, "no plan can satisfy the requested QoS"),
            Rejection::AdmissionFailed => {
                write!(f, "all candidate plans were rejected by admission control")
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// Statistics of one planning pass (for the overhead analysis of §5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanningStats {
    /// Plans generated after static pruning.
    pub generated: usize,
    /// Plans surviving the instant feasibility drop.
    pub feasible: usize,
    /// Admission attempts before success (0 when rejected).
    pub attempts: usize,
}

/// Outcome of the second-chance path.
#[derive(Debug)]
pub enum SecondChance {
    /// Admitted at the originally requested quality.
    AsRequested(AdmittedPlan),
    /// Admitted at a degraded quality (the index into the profile's
    /// degrade options is recorded).
    Degraded {
        /// The admitted plan.
        admitted: AdmittedPlan,
        /// Which degradation step was accepted (0 = first alternative).
        option: usize,
    },
    /// Nothing admittable even after degradation.
    Rejected(Rejection),
}

/// The Quality Manager.
pub struct QualityManager {
    api: CompositeQosApi,
    generator: PlanGenerator,
    cost_model: Box<dyn CostModel>,
    last_stats: PlanningStats,
    /// Recycled plan buffer: `process` is called once per query in the
    /// throughput sims, and regrowing the plan space from a cold `Vec`
    /// every time showed up in profiles. Holds no state between calls
    /// beyond its allocation.
    plan_buf: Vec<Plan>,
    /// Recycled scratch of the LRB admission kernel: the per-query bucket
    /// snapshot and the scores of the capacity-feasible candidates.
    levels: Vec<Option<BucketLevel>>,
    scores: Vec<f64>,
    /// Memoized enumeration results (`None` = caching off, the default).
    /// Cached and uncached admission are bit-identical — the cache holds
    /// only the pure enumeration output plus a feasibility snapshot, and
    /// ranking/reservation always run live.
    plan_cache: Option<PlanCache>,
    /// Manager-side cache epoch: part of every [`PlanCacheKey`], bumped by
    /// renegotiation and [`invalidate_plan_cache`](Self::invalidate_plan_cache).
    cache_epoch: u64,
}

impl QualityManager {
    /// Creates a manager over the given resource state, generator and
    /// cost model.
    pub fn new(
        api: CompositeQosApi,
        generator: PlanGenerator,
        cost_model: Box<dyn CostModel>,
    ) -> Self {
        QualityManager {
            api,
            generator,
            cost_model,
            last_stats: PlanningStats::default(),
            plan_buf: Vec::new(),
            levels: Vec::new(),
            scores: Vec::new(),
            plan_cache: None,
            cache_epoch: 0,
        }
    }

    /// Turns plan-enumeration memoization on (with default bounds) or
    /// off. Toggling clears any cached state, so a manager with caching
    /// enabled mid-run behaves exactly like a fresh one.
    pub fn set_plan_caching(&mut self, enabled: bool) {
        self.plan_cache = enabled.then(PlanCache::new);
    }

    /// Whether plan caching is enabled.
    pub fn plan_caching(&self) -> bool {
        self.plan_cache.is_some()
    }

    /// Cache behaviour counters (`None` when caching is off).
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(PlanCache::stats)
    }

    /// Explicit invalidation hook: drops every cached entry and bumps the
    /// manager-side epoch so in-flight keys stop matching. Call after
    /// mutating planning inputs behind the manager's back (e.g. editing
    /// the metadata engine without a server failure/restore hook).
    pub fn invalidate_plan_cache(&mut self) {
        self.cache_epoch += 1;
        if let Some(cache) = &mut self.plan_cache {
            cache.invalidate_all();
        }
    }

    fn cache_key(&self, request: &PlanRequest) -> PlanCacheKey {
        PlanCacheKey {
            video: request.video,
            qos: request.qos.clone(),
            security: request.security,
            api_epoch: self.api.state_epoch(),
            mgr_epoch: self.cache_epoch,
        }
    }

    /// Read access to the resource state (for monitoring and the LRB
    /// picture).
    pub fn api(&self) -> &CompositeQosApi {
        &self.api
    }

    /// The cost model's name.
    pub fn cost_model_name(&self) -> &'static str {
        self.cost_model.name()
    }

    /// Statistics of the most recent planning pass.
    pub fn last_stats(&self) -> PlanningStats {
        self.last_stats
    }

    /// Generates, ranks, and admits a plan for `request`.
    pub fn process(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        rng: &mut Rng,
    ) -> Result<AdmittedPlan, Rejection> {
        if self.plan_cache.is_some() {
            return self.process_cached(engine, request, rng);
        }
        if self.cost_model.ranks_by_lrb_cost() {
            return self.process_lrb(engine, request);
        }
        self.process_full(engine, request, rng)
    }

    /// The full admission pipeline: generate every plan, drop the
    /// capacity-infeasible ones, rank the rest, and reserve the first that
    /// fits. Also serves as the doorkeeper's bypass lane when caching is
    /// on: a first-touch miss runs here so one-hit-wonder keys cost
    /// exactly what caching-off costs — no entry allocation, no eviction
    /// pressure.
    fn process_full(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        rng: &mut Rng,
    ) -> Result<AdmittedPlan, Rejection> {
        // Reuse the plan buffer across queries (field-disjoint borrows keep
        // the generator, buffer, and API usable together).
        self.generator.generate_into(engine, request, &mut self.plan_buf);
        self.last_stats.generated = self.plan_buf.len();
        if self.plan_buf.is_empty() {
            self.last_stats.feasible = 0;
            self.last_stats.attempts = 0;
            return Err(Rejection::NoFeasiblePlan);
        }
        self.generator.retain_feasible(&mut self.plan_buf, &self.api);
        self.last_stats.feasible = self.plan_buf.len();
        if self.plan_buf.is_empty() {
            self.last_stats.attempts = 0;
            return Err(Rejection::NoFeasiblePlan);
        }
        let order = self.cost_model.rank(&self.plan_buf, &self.api, rng);
        for (attempt, &i) in order.iter().enumerate() {
            if let Ok(reservation) = self.api.reserve(&self.plan_buf[i].resources) {
                self.last_stats.attempts = attempt + 1;
                return Ok(AdmittedPlan { plan: self.plan_buf[i].clone(), reservation });
            }
        }
        self.last_stats.attempts = order.len();
        Err(Rejection::AdmissionFailed)
    }

    /// The LRB admission kernel: the decision and [`PlanningStats`] of
    /// [`process_full`](Self::process_full) under an LRB-ranked model, in
    /// one scan that builds only the winning [`Plan`].
    ///
    /// The full path reserves the first plan in `(score, index)` order
    /// whose every bucket admits its share; failed reservations change
    /// nothing, so that plan is the *reservable* candidate with the least
    /// `(score, index)`. The scan scores each `(chain, target, cipher)`
    /// candidate from one snapshot of the buckets and keeps the best
    /// reservable one under strict `total_cmp` less-than, so ties go to
    /// the lower index. The attempt count is one plus the feasible
    /// candidates ranked before the winner, counted from the kept scores.
    fn process_lrb(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
    ) -> Result<AdmittedPlan, Rejection> {
        struct Best<'e> {
            score: f64,
            rank: usize,
            chain: Chain<'e>,
            target: ServerId,
            cipher: CipherAlgo,
            cpu_share: f64,
        }
        self.api.levels_into(&mut self.levels);
        self.scores.clear();
        let (levels, scores) = (&self.levels, &mut self.scores);
        let mut generated = 0;
        let mut best: Option<Best> = None;
        self.generator.for_each_chain(engine, request, |chain, targets, ciphers| {
            generated += targets.len() * ciphers.len();
            for &target in targets {
                for &(cipher, cpu_share) in ciphers {
                    let demand = chain.demand_entries(target, cpu_share);
                    let Some((score, reservable)) = lrb_score(levels, &demand) else { continue };
                    if reservable && best.as_ref().is_none_or(|b| score.total_cmp(&b.score).is_lt())
                    {
                        let rank = scores.len();
                        best = Some(Best { score, rank, chain: *chain, target, cipher, cpu_share });
                    }
                    scores.push(score);
                }
            }
        });
        self.last_stats.generated = generated;
        self.last_stats.feasible = self.scores.len();
        if self.scores.is_empty() {
            self.last_stats.attempts = 0;
            return Err(Rejection::NoFeasiblePlan);
        }
        let Some(best) = best else {
            self.last_stats.attempts = self.scores.len();
            return Err(Rejection::AdmissionFailed);
        };
        let ahead = self
            .scores
            .iter()
            .enumerate()
            .filter(|&(j, s)| s.total_cmp(&best.score).then(j.cmp(&best.rank)).is_lt())
            .count();
        self.last_stats.attempts = ahead + 1;
        let plan = best.chain.plan(best.target, best.cipher, best.cpu_share);
        let reservation =
            self.api.reserve(&plan.resources).expect("the scan found every bucket reservable");
        Ok(AdmittedPlan { plan, reservation })
    }

    /// The cached admission path. Memoizes only the *pure* enumeration
    /// (plus a capacity-feasibility snapshot); feasibility, ranking, and
    /// reservation run live every time, so the decision — plan, order,
    /// RNG draws, stats — is bit-identical to the uncached
    /// [`process`](Self::process).
    fn process_cached(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        rng: &mut Rng,
    ) -> Result<AdmittedPlan, Rejection> {
        let key = self.cache_key(request);
        let cached = self.plan_cache.as_mut().expect("caching on").lookup(&key);
        let (plans, live) = match cached {
            Some((plans, snapshot, fingerprint)) => {
                // Cheap revalidation: O(buckets), not O(plans). Every
                // supported capacity mutation bumps the epoch in the key,
                // so a matching fingerprint proves the snapshot equals
                // what `retain_feasible` would compute right now.
                if fingerprint == self.api.capacity_fingerprint() {
                    (plans, snapshot)
                } else {
                    // A capacity change slipped past the epoch hooks
                    // (e.g. an un-hooked engine edit). Never trust the
                    // entry — drop it and re-enumerate.
                    self.plan_cache.as_mut().expect("caching on").note_revalidation_failure(&key);
                    self.enumerate_and_insert(engine, request, key)
                }
            }
            None => {
                // Doorkeeper: only a key's second miss earns a slot. The
                // Zipf tail is full of keys seen exactly once — storing
                // them just evicts warm entries and pays an
                // allocate-then-free cycle of ~10³ plans for nothing.
                // First touches take the plain pipeline instead (same
                // decisions, cost identical to caching-off).
                if !self.plan_cache.as_mut().expect("caching on").should_store(&key) {
                    return self.process_full(engine, request, rng);
                }
                self.enumerate_and_insert(engine, request, key)
            }
        };
        self.last_stats.generated = plans.len();
        if plans.is_empty() {
            self.last_stats.feasible = 0;
            self.last_stats.attempts = 0;
            return Err(Rejection::NoFeasiblePlan);
        }
        self.last_stats.feasible = live.len();
        if live.is_empty() {
            self.last_stats.attempts = 0;
            return Err(Rejection::NoFeasiblePlan);
        }
        let order = self.cost_model.rank_subset(&plans, &live, &self.api, rng);
        for (attempt, &i) in order.iter().enumerate() {
            if let Ok(reservation) = self.api.reserve(&plans[i].resources) {
                self.last_stats.attempts = attempt + 1;
                return Ok(AdmittedPlan { plan: plans[i].clone(), reservation });
            }
        }
        self.last_stats.attempts = order.len();
        Err(Rejection::AdmissionFailed)
    }

    /// Indices of `plans` passing the capacity-feasibility cut right now —
    /// the subset [`PlanGenerator::retain_feasible`] would keep, by index.
    fn live_feasible(plans: &[Plan], api: &CompositeQosApi) -> Vec<usize> {
        plans
            .iter()
            .enumerate()
            .filter(|(_, p)| PlanGenerator::is_feasible(p, api))
            .map(|(i, _)| i)
            .collect()
    }

    /// Full enumeration for `request`, stored under `key` with its live
    /// feasibility snapshot. Pure: consumes no RNG, touches no
    /// reservations.
    fn enumerate_and_insert(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        key: PlanCacheKey,
    ) -> (Arc<Vec<Plan>>, Arc<Vec<usize>>) {
        // Pre-size from the previous enumeration: plan counts are nearly
        // constant across requests on one testbed, and growth reallocs of
        // a few hundred `Plan`s showed up in the miss-path profile.
        let mut out = Vec::with_capacity(self.last_stats.generated.max(32));
        self.generator.generate_into(engine, request, &mut out);
        let plans = Arc::new(out);
        let live = Arc::new(Self::live_feasible(&plans, &self.api));
        self.plan_cache.as_mut().expect("caching on").insert(
            key,
            Arc::clone(&plans),
            Arc::clone(&live),
            self.api.capacity_fingerprint(),
        );
        (plans, live)
    }

    /// The bulk-admit enumeration pass: warms the plan cache for a batch
    /// of arrivals (the flash-crowd case). Requests are sorted by video —
    /// metadata-engine locality — and deduplicated by cache key; each
    /// absent key that repeats within the batch is enumerated exactly
    /// once (batch singletons defer to the per-request doorkeeper).
    /// Consumes no RNG and makes no reservations, so `prefetch_plans`
    /// followed by sequential
    /// [`process`](Self::process) calls in arrival order is bit-identical
    /// to processing the batch cold. No-op when caching is off.
    pub fn prefetch_plans(&mut self, engine: &MetadataEngine, requests: &[PlanRequest]) {
        if self.plan_cache.is_none() {
            return;
        }
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| requests[i].video);
        // Batch multiplicity decides storage: a key appearing twice in
        // the batch pays for its entry within the batch itself. Batch
        // singletons are left to the per-request doorkeeper (see
        // `process_cached`), so a flash crowd of one-hit wonders cannot
        // flush the warm set.
        let mut count: HashMap<PlanCacheKey, u32> = HashMap::new();
        for req in requests {
            *count.entry(self.cache_key(req)).or_insert(0) += 1;
        }
        let mut done: HashSet<PlanCacheKey> = HashSet::new();
        for i in order {
            let key = self.cache_key(&requests[i]);
            if count[&key] < 2
                || self.plan_cache.as_ref().expect("caching on").contains(&key)
                || !done.insert(key.clone())
            {
                continue;
            }
            let _ = self.enumerate_and_insert(engine, &requests[i], key);
        }
    }

    /// The full user-facing path: try the requested quality, then walk the
    /// profile's degraded alternatives ("a number of admittable
    /// alternative plans will be presented as a 'second chance'").
    pub fn process_with_second_chance(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        profile: &UserProfile,
        rng: &mut Rng,
    ) -> SecondChance {
        match self.process(engine, request, rng) {
            Ok(admitted) => SecondChance::AsRequested(admitted),
            Err(first_err) => {
                // The reported reason must reflect the *whole* walk: if any
                // attempt — original or degraded — had feasible plans that
                // admission turned away, the rejection is transient
                // overload, not static infeasibility. Reporting the
                // original request's error here made retry policies treat
                // recoverable congestion as hopeless.
                let mut any_admission_failure = first_err == Rejection::AdmissionFailed;
                for (i, alt) in profile.degrade_options(&request.qos).into_iter().enumerate() {
                    let alt_request =
                        PlanRequest { video: request.video, qos: alt, security: request.security };
                    match self.process(engine, &alt_request, rng) {
                        Ok(admitted) => return SecondChance::Degraded { admitted, option: i },
                        Err(err) => any_admission_failure |= err == Rejection::AdmissionFailed,
                    }
                }
                SecondChance::Rejected(if any_admission_failure {
                    Rejection::AdmissionFailed
                } else {
                    Rejection::NoFeasiblePlan
                })
            }
        }
    }

    /// Releases an admitted plan's resources (session completion).
    pub fn release(&mut self, admitted: &AdmittedPlan) {
        self.api.release(admitted.reservation);
    }

    /// Releases by reservation id (for drivers that only track ids).
    pub fn release_reservation(&mut self, reservation: ReservationId) {
        self.api.release(reservation);
    }

    /// Handles the loss of a server: its resource buckets disappear and
    /// every reservation touching it is cancelled. The caller should also
    /// drop the server from the metadata engine
    /// ([`MetadataEngine::fail_site`]) and then re-`process` the affected
    /// sessions — the User Profile's statistics exist "enabling better
    /// renegotiation decisions in case of resource failure".
    pub fn handle_server_failure(&mut self, server: quasaq_sim::ServerId) -> Vec<ReservationId> {
        let cancelled = self.api.fail_server(server);
        // Cache invalidation: the API epoch already moved, and the caller
        // is about to drop the server from the metadata engine too (which
        // the epoch cannot see) — clear everything.
        self.invalidate_plan_cache();
        cancelled
    }

    /// Handles a failed server coming back: its buckets re-register empty
    /// at their pre-failure capacities, so subsequent `process` calls plan
    /// against it again. Returns `false` when the server was not down.
    pub fn handle_server_restart(&mut self, server: quasaq_sim::ServerId) -> bool {
        let restored = self.api.restore_server(server);
        if restored {
            // Mirror of the failure hook: the engine regains the site.
            self.invalidate_plan_cache();
        }
        restored
    }

    /// Re-rates one resource bucket (link degradation / recovery faults),
    /// routing through the composite API's epoch bump and invalidating
    /// cached plans. Returns `false` for unmanaged buckets.
    pub fn set_capacity(&mut self, key: quasaq_qosapi::ResourceKey, capacity: f64) -> bool {
        let changed = self.api.set_capacity(key, capacity);
        if changed {
            self.invalidate_plan_cache();
        }
        changed
    }

    /// Renegotiates a running session to a new QoS range (user action
    /// during playback). On success the old reservation is replaced; on
    /// failure it is kept untouched.
    pub fn renegotiate(
        &mut self,
        engine: &MetadataEngine,
        admitted: &AdmittedPlan,
        new_request: &PlanRequest,
        rng: &mut Rng,
    ) -> Result<AdmittedPlan, Rejection> {
        // Same recycled buffer as `process` — renegotiation is on the
        // playback path and should not regrow the plan space cold.
        self.generator.generate_into(engine, new_request, &mut self.plan_buf);
        if self.plan_buf.is_empty() {
            return Err(Rejection::NoFeasiblePlan);
        }
        self.generator.retain_feasible(&mut self.plan_buf, &self.api);
        if self.plan_buf.is_empty() {
            return Err(Rejection::NoFeasiblePlan);
        }
        let order = self.cost_model.rank(&self.plan_buf, &self.api, rng);
        for &i in &order {
            if let Ok(new_id) =
                self.api.renegotiate(admitted.reservation, &self.plan_buf[i].resources)
            {
                let plan = self.plan_buf[i].clone();
                // Conservative invalidation on successful renegotiation
                // (the ISSUE's explicit-hook contract). Strictly the swap
                // only moves *usage*, which cached feasibility cannot see
                // — but renegotiations are rare (failover, user action)
                // and clearing keeps the staleness argument trivial.
                self.invalidate_plan_cache();
                return Ok(AdmittedPlan { plan, reservation: new_id });
            }
        }
        Err(Rejection::AdmissionFailed)
    }
}

/// One candidate's LRB score from a bucket snapshot, mirroring what the
/// full path computes from its [`Plan`]: `None` when the capacity cut of
/// [`PlanGenerator::is_feasible`] drops it, else its
/// [`max_fill_with`](CompositeQosApi::max_fill_with) and whether
/// [`admits`](CompositeQosApi::admits) would pass right now. Entries run
/// in `ResourceKey` order and every one is checked, so a malformed amount
/// panics here just as building the plan's vector would.
fn lrb_score(
    levels: &[Option<BucketLevel>],
    demand: &[Option<(ResourceKey, f64)>; 5],
) -> Option<(f64, bool)> {
    let (mut max, mut feasible, mut reservable) = (0.0f64, true, true);
    for &(key, amount) in demand.iter().flatten() {
        // `ResourceVector::add`: refuse malformed amounts, drop zeros.
        assert!(amount >= 0.0 && amount.is_finite(), "resource amounts must be non-negative");
        if amount == 0.0 {
            continue;
        }
        match levels.get(key.slot()).copied().flatten() {
            Some(level) => {
                feasible &= amount <= level.capacity + 1e-9;
                reservable &= level.can_reserve(amount);
                max = max.max(level.fill_with(amount));
            }
            None => feasible = false,
        }
    }
    feasible.then_some((max, reservable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LrbModel, RandomModel};
    use crate::generator::GeneratorConfig;
    use crate::qop::{QopRequest, QopSecurity};
    use quasaq_media::{Library, LibraryConfig, VideoId};
    use quasaq_qosapi::{ResourceKey, ResourceKind};
    use quasaq_sim::ServerId;
    use quasaq_store::{ObjectStore, Placement, QosSampler, ReplicationPlanner};
    use std::collections::BTreeMap;

    fn engine() -> MetadataEngine {
        let lib = Library::generate(42, &LibraryConfig::default());
        let mut stores = BTreeMap::new();
        for s in ServerId::first_n(3) {
            stores.insert(s, ObjectStore::new(s, 1 << 40));
        }
        let mut engine = MetadataEngine::new(ServerId::first_n(3), 16);
        ReplicationPlanner::new(QosSampler::default(), Placement::Full)
            .replicate(&lib, &mut stores, &mut engine)
            .unwrap();
        engine
    }

    fn manager() -> QualityManager {
        QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                3_200_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(LrbModel),
        )
    }

    fn request(video: u32) -> PlanRequest {
        let profile = UserProfile::new("u");
        PlanRequest {
            video: VideoId(video),
            qos: profile.translate(&QopRequest::organizational()),
            security: QopSecurity::Open,
        }
    }

    #[test]
    fn processes_and_reserves() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(1);
        let admitted = m.process(&e, &request(0), &mut rng).unwrap();
        assert!(m.api().reservation_count() == 1);
        let stats = m.last_stats();
        assert!(stats.generated > 0);
        assert_eq!(stats.attempts, 1);
        // The delivered quality satisfies the request.
        assert!(
            request(0).qos.accepts(&admitted.plan.delivered)
                || admitted.plan.delivered.frame_rate <= request(0).qos.max_frame_rate
        );
        m.release(&admitted);
        assert_eq!(m.api().reservation_count(), 0);
    }

    #[test]
    fn lrb_spreads_sessions_across_servers() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(2);
        let mut admitted = Vec::new();
        for i in 0..9 {
            admitted.push(m.process(&e, &request(i % 15), &mut rng).unwrap());
        }
        let mut by_server = BTreeMap::new();
        for a in &admitted {
            *by_server.entry(a.plan.target_server).or_insert(0) += 1;
        }
        assert_eq!(by_server.len(), 3, "sessions should spread: {by_server:?}");
    }

    #[test]
    fn saturation_leads_to_admission_failure() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(3);
        let mut count = 0;
        loop {
            match m.process(&e, &request(count as u32 % 15), &mut rng) {
                Ok(_) => count += 1,
                Err(rej) => {
                    assert_eq!(rej, Rejection::AdmissionFailed);
                    break;
                }
            }
            assert!(count < 10_000, "admission never saturated");
        }
        assert!(count > 10, "only {count} sessions admitted");
    }

    #[test]
    fn second_chance_degrades_when_full() {
        let e = engine();
        // A tiny cluster that can serve DSL-class but not the requested
        // floor's bandwidth after a few sessions.
        let mut m = QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                120_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(LrbModel),
        );
        let profile = UserProfile::new("u");
        let mut rng = Rng::new(4);
        // High-quality request: t1 tier (193 kB/s) exceeds every link, so
        // direct admission of the floor fails but a degraded option (lower
        // resolution floor -> dsl tier at 48 kB/s) fits.
        let req = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest::diagnostic()),
            security: QopSecurity::Open,
        };
        match m.process_with_second_chance(&e, &req, &profile, &mut rng) {
            SecondChance::Degraded { admitted, .. } => {
                assert!(admitted.plan.delivered_bps <= 120_000.0);
            }
            other => panic!("expected degraded outcome, got {other:?}"),
        }
    }

    #[test]
    fn second_chance_reports_transient_overload() {
        let e = engine();
        // Same tiny cluster as the degradation test, but saturated first.
        let mut m = QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                120_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(LrbModel),
        );
        let profile = UserProfile::new("u");
        let mut rng = Rng::new(9);
        let mut guard = 0u32;
        loop {
            let req = PlanRequest {
                video: VideoId(guard % 15),
                qos: profile.translate(&QopRequest::organizational()),
                security: QopSecurity::Open,
            };
            let outcome = m.process_with_second_chance(&e, &req, &profile, &mut rng);
            if matches!(outcome, SecondChance::Rejected(_)) {
                break;
            }
            guard += 1;
            assert!(guard < 10_000, "cluster never saturated");
        }
        // Diagnostic floor (VGA+) exceeds every link's capacity, so the
        // original attempt is statically infeasible — but its degraded
        // alternatives have capacity-feasible plans that only fail
        // admission on the saturated cluster. The walk must surface that
        // as transient overload, not NoFeasiblePlan.
        let req = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest::diagnostic()),
            security: QopSecurity::Open,
        };
        match m.process_with_second_chance(&e, &req, &profile, &mut rng) {
            SecondChance::Rejected(rej) => {
                assert_eq!(rej, Rejection::AdmissionFailed);
                assert!(rej.is_transient());
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn second_chance_keeps_hopeless_requests_hopeless() {
        let e = engine();
        let mut m = manager();
        let profile = UserProfile::new("u");
        let mut rng = Rng::new(10);
        // A floor far above any stored replica: one degradation step
        // (halving) still lands above FULL, so every alternative stays
        // statically infeasible and the reason must remain NoFeasiblePlan.
        let mut req = request(0);
        req.qos.min_resolution = quasaq_media::Resolution::new(4000, 3000);
        req.qos.max_resolution = quasaq_media::Resolution::new(8000, 6000);
        match m.process_with_second_chance(&e, &req, &profile, &mut rng) {
            SecondChance::Rejected(rej) => {
                assert_eq!(rej, Rejection::NoFeasiblePlan);
                assert!(!rej.is_transient());
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn renegotiation_swaps_reservation() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(5);
        let profile = UserProfile::new("u");
        let admitted = m.process(&e, &request(0), &mut rng).unwrap();
        let before = m.api().reservation_count();
        // Renegotiate up to diagnostic quality mid-playback.
        let up = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest::diagnostic()),
            security: QopSecurity::Open,
        };
        let renewed = m.renegotiate(&e, &admitted, &up, &mut rng).unwrap();
        assert_eq!(m.api().reservation_count(), before);
        assert!(renewed.plan.delivered_bps >= admitted.plan.delivered_bps);
        m.release(&renewed);
        assert_eq!(m.api().reservation_count(), 0);
    }

    #[test]
    fn infeasible_qos_is_distinguished_from_overload() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(6);
        // Ask for an impossible floor (above any stored replica).
        let mut req = request(0);
        req.qos.min_resolution = quasaq_media::Resolution::new(4000, 3000);
        req.qos.max_resolution = quasaq_media::Resolution::new(8000, 6000);
        assert_eq!(m.process(&e, &req, &mut rng).unwrap_err(), Rejection::NoFeasiblePlan);
    }

    #[test]
    fn server_failure_triggers_replanning_on_survivors() {
        let mut e = engine();
        let mut m = manager();
        let mut rng = Rng::new(8);
        // Admit a handful of sessions across the cluster.
        let mut sessions = Vec::new();
        for i in 0..6 {
            sessions.push(m.process(&e, &request(i), &mut rng).unwrap());
        }
        let failed = ServerId(0);
        let cancelled = m.handle_server_failure(failed);
        e.fail_site(failed);
        // Every cancelled session can be re-planned, and the new plans
        // avoid the dead server entirely (full replication).
        for old in &sessions {
            if !cancelled.contains(&old.reservation) {
                continue;
            }
            let video = old.plan.object.object.video;
            let req = request(video.0);
            let renewed = m.process(&e, &req, &mut rng).expect("survivors have capacity");
            assert_ne!(renewed.plan.target_server, failed);
            assert_ne!(renewed.plan.source_server(), failed);
        }
        // No bucket on the failed server remains managed.
        assert!(m.api().buckets().all(|k| k.server != failed));
    }

    /// Drives a cache-on and a cache-off manager through the same
    /// admission/release/fault/renegotiation sequence and asserts every
    /// observable — outcomes, stats, RNG stream — stays bit-identical.
    fn assert_cached_matches_uncached(make_model: fn() -> Box<dyn CostModel>, seed: u64) {
        let mut e_cold = engine();
        let mut e_warm = engine();
        let api = || {
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                3_200_000.0,
                20_000_000.0,
                512e6,
            )
        };
        let mut cold = QualityManager::new(
            api(),
            PlanGenerator::new(GeneratorConfig::default()),
            make_model(),
        );
        let mut warm = QualityManager::new(
            api(),
            PlanGenerator::new(GeneratorConfig::default()),
            make_model(),
        );
        warm.set_plan_caching(true);
        let mut rng_c = Rng::new(seed);
        let mut rng_w = Rng::new(seed);
        let profile = UserProfile::new("u");
        let mut live: Vec<(AdmittedPlan, AdmittedPlan)> = Vec::new();
        for round in 0..120u32 {
            match round {
                // Mid-sequence structural events, mirrored on both sides.
                40 => {
                    let down = ServerId(1);
                    assert_eq!(cold.handle_server_failure(down), warm.handle_server_failure(down));
                    e_cold.fail_site(down);
                    e_warm.fail_site(down);
                }
                55 => {
                    // Renegotiate the most recent surviving pair upward.
                    if let Some((a, b)) = live.pop() {
                        let up = PlanRequest {
                            video: a.plan.object.object.video,
                            qos: profile.translate(&QopRequest::diagnostic()),
                            security: QopSecurity::Open,
                        };
                        let ra = cold.renegotiate(&e_cold, &a, &up, &mut rng_c);
                        let rb = warm.renegotiate(&e_warm, &b, &up, &mut rng_w);
                        assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "renegotiation diverged");
                        if let (Ok(na), Ok(nb)) = (ra, rb) {
                            live.push((na, nb));
                        } else {
                            live.push((a, b));
                        }
                    }
                }
                70 => {
                    assert_eq!(
                        cold.handle_server_restart(ServerId(1)),
                        warm.handle_server_restart(ServerId(1))
                    );
                }
                90 => {
                    let key = ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth);
                    assert_eq!(
                        cold.set_capacity(key, 2_500_000.0),
                        warm.set_capacity(key, 2_500_000.0)
                    );
                }
                _ => {}
            }
            // Load rises and falls: periodically complete the oldest pair
            // (releasing a fault-cancelled reservation is a no-op on both
            // sides, so no special-casing after round 40).
            if round % 7 == 6 && !live.is_empty() {
                let (a, b) = live.remove(0);
                cold.release(&a);
                warm.release(&b);
            }
            let req = request(round % 5);
            let rc = cold.process(&e_cold, &req, &mut rng_c);
            let rw = warm.process(&e_warm, &req, &mut rng_w);
            assert_eq!(format!("{rc:?}"), format!("{rw:?}"), "round {round}: outcome diverged");
            assert_eq!(cold.last_stats(), warm.last_stats(), "round {round}: stats diverged");
            assert_eq!(
                rng_c.below(1 << 30),
                rng_w.below(1 << 30),
                "round {round}: RNG streams diverged"
            );
            if let (Ok(a), Ok(b)) = (rc, rw) {
                live.push((a, b));
            }
        }
        let stats = warm.plan_cache_stats().expect("caching on");
        assert!(stats.hits > 0, "the repetitive request mix must hit: {stats:?}");
    }

    #[test]
    fn cached_admission_is_bit_identical_to_uncached_lrb() {
        assert_cached_matches_uncached(|| Box::new(LrbModel), 11);
    }

    #[test]
    fn cached_admission_is_bit_identical_to_uncached_random() {
        // RandomModel consumes RNG during ranking, so this additionally
        // proves rank_subset draws exactly what rank would.
        assert_cached_matches_uncached(|| Box::new(RandomModel), 12);
    }

    #[test]
    fn corrupted_fingerprint_falls_back_to_full_enumeration() {
        let e = engine();
        let mut cold = manager();
        let mut warm = manager();
        warm.set_plan_caching(true);
        let mut rng_c = Rng::new(13);
        let mut rng_w = Rng::new(13);
        let req = request(3);
        // Two rounds: the doorkeeper stores only on the second miss.
        for _ in 0..2 {
            let a = cold.process(&e, &req, &mut rng_c).unwrap();
            let b = warm.process(&e, &req, &mut rng_w).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        // Sabotage the fingerprint (simulates a capacity change that bypassed
        // every epoch hook): the next hit must detect the mismatch, drop
        // the entry, and fall back to full enumeration — still
        // bit-identical to the uncached manager.
        let key = warm.cache_key(&req);
        assert!(warm.plan_cache.as_mut().unwrap().corrupt_fingerprint(&key));
        let a2 = cold.process(&e, &req, &mut rng_c);
        let b2 = warm.process(&e, &req, &mut rng_w);
        assert_eq!(format!("{a2:?}"), format!("{b2:?}"));
        assert_eq!(cold.last_stats(), warm.last_stats());
        let stats = warm.plan_cache_stats().unwrap();
        assert_eq!(stats.revalidation_failures, 1);
        // The re-enumerated entry is trustworthy again.
        let a3 = cold.process(&e, &req, &mut rng_c);
        let b3 = warm.process(&e, &req, &mut rng_w);
        assert_eq!(format!("{a3:?}"), format!("{b3:?}"));
        assert_eq!(warm.plan_cache_stats().unwrap().revalidation_failures, 1);
    }

    #[test]
    fn fault_and_capacity_hooks_invalidate_the_cache() {
        let e = engine();
        let mut m = manager();
        m.set_plan_caching(true);
        let mut rng = Rng::new(14);
        // Each warm-up processes twice: the doorkeeper stores on the
        // second miss of a key.
        let _ = m.process(&e, &request(0), &mut rng);
        let _ = m.process(&e, &request(0), &mut rng);
        assert!(!m.plan_cache.as_ref().unwrap().is_empty());
        let epoch0 = m.cache_epoch;
        m.handle_server_failure(ServerId(2));
        assert!(m.plan_cache.as_ref().unwrap().is_empty(), "failure must clear the cache");
        assert_eq!(m.plan_cache_stats().unwrap().invalidations, 1);
        assert!(m.cache_epoch > epoch0);
        let _ = m.process(&e, &request(0), &mut rng);
        let _ = m.process(&e, &request(0), &mut rng);
        assert!(m.handle_server_restart(ServerId(2)), "restart of a down server restores");
        assert!(m.plan_cache.as_ref().unwrap().is_empty(), "restore must clear the cache");
        // Restarting a live server is a no-op and must NOT invalidate.
        let _ = m.process(&e, &request(0), &mut rng);
        let _ = m.process(&e, &request(0), &mut rng);
        assert!(!m.handle_server_restart(ServerId(2)));
        assert!(!m.plan_cache.as_ref().unwrap().is_empty());
        // Re-rating a managed bucket invalidates; an unknown bucket doesn't.
        assert!(m.set_capacity(ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth), 1e6));
        assert!(m.plan_cache.as_ref().unwrap().is_empty());
        let _ = m.process(&e, &request(0), &mut rng);
        let _ = m.process(&e, &request(0), &mut rng);
        assert!(!m.set_capacity(ResourceKey::new(ServerId(9), ResourceKind::NetBandwidth), 1e6));
        assert!(!m.plan_cache.as_ref().unwrap().is_empty());
    }

    #[test]
    fn prefetch_amortizes_enumeration_without_changing_decisions() {
        let e = engine();
        let reqs: Vec<PlanRequest> = (0..10u32).map(|i| request(i % 4)).collect();
        let mut plain = manager();
        let mut bulk = manager();
        bulk.set_plan_caching(true);
        let mut rng_p = Rng::new(15);
        let mut rng_b = Rng::new(15);
        bulk.prefetch_plans(&e, &reqs);
        // Four distinct keys enumerated once each; prefetch itself touches
        // no counters, no RNG, no reservations, no stats.
        let s = bulk.plan_cache_stats().unwrap();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(bulk.plan_cache.as_ref().unwrap().len(), 4);
        assert_eq!(bulk.api().reservation_count(), 0);
        assert_eq!(bulk.last_stats(), PlanningStats::default());
        for req in &reqs {
            let rp = plain.process(&e, req, &mut rng_p);
            let rb = bulk.process(&e, req, &mut rng_b);
            assert_eq!(format!("{rp:?}"), format!("{rb:?}"));
            assert_eq!(plain.last_stats(), bulk.last_stats());
        }
        let s = bulk.plan_cache_stats().unwrap();
        assert_eq!(s.misses, 0, "prefetch should have warmed every key: {s:?}");
        assert_eq!(s.hits, reqs.len() as u64);
        // Prefetching is idempotent: already-cached keys are skipped.
        bulk.prefetch_plans(&e, &reqs);
        assert_eq!(bulk.plan_cache.as_ref().unwrap().len(), 4);
    }

    #[test]
    fn random_model_admits_too() {
        let e = engine();
        let mut m = QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                3_200_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(RandomModel),
        );
        let mut rng = Rng::new(7);
        assert_eq!(m.cost_model_name(), "random");
        let admitted = m.process(&e, &request(1), &mut rng).unwrap();
        let key = ResourceKey::new(admitted.plan.target_server, ResourceKind::NetBandwidth);
        assert!(m.api().used(key).unwrap() > 0.0);
    }
}
