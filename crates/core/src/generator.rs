//! The Plan Generator: enumerating and pruning the QoS-aware plan space.
//!
//! For one resolved logical object, the generator expands the ordered
//! disjoint activity sets of Fig 2 — object replica (A1) × target site
//! (A2) × frame-dropping strategy (A3) × transcoding target (A4) ×
//! encryption (A5) — and applies the paper's two pruning layers:
//!
//! * **Static QoS rules** — "we cannot retrieve a video with resolution
//!   lower than that required by the user. Similarly, it makes no sense
//!   to transcode from low resolution to high resolution": replicas must
//!   dominate the range floor, transcodes only go down, and frame
//!   dropping may not push the delivered frame rate below the floor.
//! * **Performance pitfalls** — plans that are pure waste are dropped
//!   instantly (e.g. encrypting when no security was requested; the
//!   encrypt-after-drop ordering is structural in the executor).
//!
//! With the activity order fixed the space is `O(d^n)`; the generator
//! also exposes the unpruned combinatorial bound so the pruning ablation
//! can report how much the rules save.

use crate::plan::Plan;
use crate::qop::QopSecurity;
use quasaq_media::{
    CipherAlgo, DeliveryCostModel, DropStrategy, FrameRate, QosRange, QualitySpec, Transcode,
    VideoFormat, VideoId,
};
use quasaq_qosapi::{CompositeQosApi, ResourceKey};
use quasaq_sim::ServerId;
use quasaq_store::{MetadataEngine, ObjectRecord};

/// What the Quality Manager plans for: a resolved logical object plus the
/// query's QoS component.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The logical object identified by the content query.
    pub video: VideoId,
    /// Acceptable application QoS.
    pub qos: QosRange,
    /// Security requirement (chooses the A5 set).
    pub security: QopSecurity,
}

/// Generator policy switches (ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Enumerate cross-server plans (retrieve at one site, serve from
    /// another).
    pub allow_remote: bool,
    /// Enumerate online-transcode plans.
    pub allow_transcode: bool,
    /// Enumerate frame-dropping plans.
    pub allow_drop: bool,
    /// Apply the static pruning rules. Disabling this (for the ablation)
    /// keeps QoS-*violating* plans out — they would be incorrect — but
    /// stops dropping merely *wasteful* ones.
    pub prune_wasteful: bool,
    /// Delivery cost model used for resource vectors.
    pub cost: DeliveryCostModel,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            allow_remote: true,
            allow_transcode: true,
            allow_drop: true,
            prune_wasteful: true,
            cost: DeliveryCostModel::default(),
        }
    }
}

/// One activity chain of the plan space: a replica (A1) with its
/// delivery (A4) and frame-dropping strategy (A3) fixed, plus the figures
/// that depend on nothing else. The chain's plans differ only in target
/// site (A2) and cipher (A5); see [`PlanGenerator::for_each_chain`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain<'e> {
    /// A1: the replica to retrieve.
    object: &'e ObjectRecord,
    /// A4: optional online transcode.
    transcode: Option<Transcode>,
    /// A3: runtime frame-dropping strategy.
    drop: DropStrategy,
    /// The application QoS delivered to the client.
    delivered: QualitySpec,
    /// Mean delivered bandwidth in bytes/second.
    delivered_bps: f64,
    /// Stream buffer memory in bytes.
    buffer_bytes: f64,
}

impl Chain<'_> {
    /// The demand entries of this chain served from `target_server` with a
    /// cipher costing `cpu_share` (see [`Plan::demand_entries`]).
    pub(crate) fn demand_entries(
        &self,
        target_server: ServerId,
        cpu_share: f64,
    ) -> [Option<(ResourceKey, f64)>; 5] {
        Plan::demand_entries(
            self.object,
            target_server,
            self.delivered_bps,
            cpu_share,
            self.buffer_bytes,
        )
    }

    /// The full plan for one `(target, cipher)` of this chain.
    pub(crate) fn plan(&self, target_server: ServerId, cipher: CipherAlgo, cpu_share: f64) -> Plan {
        Plan {
            object: self.object.clone(),
            target_server,
            drop: self.drop,
            transcode: self.transcode,
            cipher,
            delivered: self.delivered,
            delivered_bps: self.delivered_bps,
            resources: Plan::assemble_resources(
                self.object,
                target_server,
                self.delivered_bps,
                cpu_share,
                self.buffer_bytes,
            ),
        }
    }
}

/// The Plan Generator.
#[derive(Debug, Clone)]
pub struct PlanGenerator {
    cfg: GeneratorConfig,
}

impl PlanGenerator {
    /// Creates a generator.
    pub fn new(cfg: GeneratorConfig) -> Self {
        PlanGenerator { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.cfg
    }

    /// Enumerates all valid plans for `request`, in deterministic order.
    pub fn generate(&self, engine: &MetadataEngine, request: &PlanRequest) -> Vec<Plan> {
        let mut plans = Vec::new();
        self.generate_into(engine, request, &mut plans);
        plans
    }

    /// Enumerates all valid plans for `request` into `out` (cleared first).
    ///
    /// The buffer-reuse entry point for per-query hot paths: a caller that
    /// plans many queries hands the same `Vec` back in each time and pays
    /// for plan-space allocation only until the high-water mark is reached.
    pub fn generate_into(
        &self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        out: &mut Vec<Plan>,
    ) {
        out.clear();
        self.for_each_chain(engine, request, |chain, targets, ciphers| {
            for &target_server in targets {
                for &(cipher, cpu_share) in ciphers {
                    out.push(chain.plan(target_server, cipher, cpu_share));
                }
            }
        });
    }

    /// Walks the plan space one activity chain at a time, in plan order.
    ///
    /// Each call of `visit` gets a [`Chain`] (replica × delivery × drop),
    /// the target sites it fans out to (A2), and the accepted ciphers (A5)
    /// each paired with its CPU share. The chain's plans are
    /// `chain.plan(target, cipher, cpu_share)` for every target, and for
    /// each target every cipher — target outer, cipher inner — which is
    /// exactly the order [`generate_into`](Self::generate_into) lists them
    /// in. Allocation-free: admission kernels score candidates from these
    /// figures without building a [`Plan`] each.
    pub(crate) fn for_each_chain<'e>(
        &self,
        engine: &'e MetadataEngine,
        request: &PlanRequest,
        mut visit: impl FnMut(&Chain<'e>, &[ServerId], &[(CipherAlgo, f64)]),
    ) {
        let Some(meta) = engine.video(request.video) else { return };
        let gop = &meta.gop;

        // A5: encryption — depends only on the request, so choose it once
        // for all replicas.
        let mut ciphers = [CipherAlgo::None; CipherAlgo::ALL.len()];
        let mut n_ciphers = 0;
        for cipher in CipherAlgo::ALL {
            // Performance pitfall: encrypting an open stream is pure waste.
            let wasteful = self.cfg.prune_wasteful
                && request.security == QopSecurity::Open
                && cipher.is_encrypting();
            if request.security.accepts(cipher) && !wasteful {
                ciphers[n_ciphers] = cipher;
                n_ciphers += 1;
            }
        }
        let ciphers = &ciphers[..n_ciphers];
        // Per-cipher CPU shares, hoisted out of the target-site fan-out.
        let mut shares = [(CipherAlgo::None, 0.0); CipherAlgo::ALL.len()];

        for record in engine.replica_records(request.video) {
            let spec = record.object.spec;
            let stored_rate = record.object.rate_bps as f64;
            let stored_fps = spec.frame_rate.fps();
            // Static QoS rule: quality only degrades, so the replica must
            // dominate the range floor.
            if !request.qos.reachable_from(&spec) {
                continue;
            }

            // A4: transcoding targets — deliver as-is when in range, or
            // transcode down to the cheapest in-range quality.
            let direct = request.qos.accepts(&spec).then_some(None);
            let transcoded = if self.cfg.allow_transcode {
                // Prefer the MPEG-1 streaming format when acceptable.
                let fmt = if request.qos.accepts_format(VideoFormat::Mpeg1) {
                    VideoFormat::Mpeg1
                } else {
                    spec.format
                };
                request
                    .qos
                    .cheapest_target(&spec, fmt)
                    .filter(|target| *target != spec)
                    .and_then(|target| Transcode::plan(spec, target).ok())
                    .map(Some)
            } else {
                None
            };

            // A2: target sites.
            let local = [record.object.server];
            let targets: &[ServerId] =
                if self.cfg.allow_remote { engine.site_ids() } else { &local };

            // A3: frame dropping.
            let drops: &[DropStrategy] =
                if self.cfg.allow_drop { &DropStrategy::ALL } else { &[DropStrategy::None] };

            for transcode in [direct, transcoded].into_iter().flatten() {
                let base = match transcode {
                    Some(t) => *t.target(),
                    None => spec,
                };
                for &drop in drops {
                    // Static QoS rule: dropping must keep the delivered
                    // frame rate within range.
                    let effective_fps = drop.effective_fps(base.frame_rate.fps(), gop);
                    if FrameRate::from_fps(effective_fps.max(0.001)) < request.qos.min_frame_rate {
                        continue;
                    }
                    // The delivered rate, buffer need, and per-cipher CPU
                    // shares are properties of the activity chain alone —
                    // compute them once here instead of once per target
                    // site (the A2 fan-out multiplies by the cluster size).
                    let (delivered_bps, _fps) = self.cfg.cost.delivered_rate(
                        stored_rate,
                        stored_fps,
                        gop,
                        transcode.as_ref(),
                        drop,
                    );
                    for (slot, &cipher) in shares.iter_mut().zip(ciphers) {
                        let share = self.cfg.cost.session_cpu_share(
                            stored_rate,
                            stored_fps,
                            gop,
                            transcode.as_ref(),
                            drop,
                            cipher,
                        ) * self.cfg.cost.reservation_headroom;
                        *slot = (cipher, share);
                    }
                    let mut delivered = base;
                    delivered.frame_rate = FrameRate::from_fps(effective_fps);
                    let chain = Chain {
                        object: record,
                        transcode,
                        drop,
                        delivered,
                        delivered_bps,
                        buffer_bytes: self.cfg.cost.buffer_bytes(delivered_bps),
                    };
                    visit(&chain, targets, &shares[..n_ciphers]);
                }
            }
        }
    }

    /// Instantly drops plans whose resource demand exceeds some bucket's
    /// *total* capacity — "some of the plans can be immediately dropped
    /// by the Plan Generator if their costs are intolerably high". In
    /// place, so the plan buffer's allocation stays alive for reuse
    /// across queries. The cut depends only on bucket *capacities* (never
    /// current usage), which is what lets plan caches snapshot its result
    /// per structural [state epoch](CompositeQosApi::state_epoch).
    pub fn retain_feasible(&self, plans: &mut Vec<Plan>, api: &CompositeQosApi) {
        plans.retain(|p| Self::is_feasible(p, api));
    }

    /// The single-plan predicate behind [`retain_feasible`](Self::retain_feasible).
    pub fn is_feasible(plan: &Plan, api: &CompositeQosApi) -> bool {
        plan.resources
            .iter()
            .all(|(key, demand)| api.capacity(key).is_some_and(|c| demand <= c + 1e-9))
    }

    /// The unpruned combinatorial bound `O(d^n)` for a request: replicas ×
    /// sites × drop strategies × transcode options × ciphers. Used by the
    /// pruning ablation.
    pub fn combinatorial_bound(&self, engine: &MetadataEngine, video: VideoId) -> usize {
        let replicas = engine.replicas(video).len();
        let sites = engine.sites().count();
        replicas * sites * DropStrategy::ALL.len() * 2 * CipherAlgo::ALL.len()
    }
}

/// Checks the formal plan-space conditions of §3.4: each plan draws at
/// most one element from each activity set, all components come from the
/// defined sets, and the activity order is fixed (retrieval first —
/// structural in [`Plan`]). Used by tests and the paper-fidelity checks.
pub fn satisfies_ordered_disjoint_sets(plan: &Plan) -> bool {
    // A1 (exactly one object), A2 (exactly one target) are single fields.
    // A3/A4/A5 each contribute at most one element by construction; the
    // check validates the elements belong to their sets.
    let a3_ok = DropStrategy::ALL.contains(&plan.drop);
    let a5_ok = CipherAlgo::ALL.contains(&plan.cipher);
    let a4_ok = match &plan.transcode {
        Some(t) => t.source() == &plan.object.object.spec,
        None => true,
    };
    a3_ok && a4_ok && a5_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{ColorDepth, Library, LibraryConfig, Resolution};
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

    fn vcd_request(video: u32) -> PlanRequest {
        PlanRequest {
            video: VideoId(video),
            qos: QosRange {
                min_resolution: Resolution::QVGA,
                max_resolution: Resolution::CIF,
                min_color: ColorDepth::BITS_12,
                min_frame_rate: FrameRate::from_fps(20.0),
                max_frame_rate: FrameRate::NTSC,
                formats: None,
            },
            security: QopSecurity::Open,
        }
    }

    #[test]
    fn generates_plans_for_satisfiable_request() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        assert!(!plans.is_empty());
        for p in &plans {
            assert!(satisfies_ordered_disjoint_sets(p));
            // Every plan's source replica can reach the requested range.
            assert!(vcd_request(0).qos.reachable_from(&p.object.object.spec));
        }
    }

    #[test]
    fn no_plans_for_unknown_video() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        assert!(g.generate(&e, &vcd_request(99)).is_empty());
    }

    #[test]
    fn static_rule_excludes_upscaling_replicas() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        // The modem tier (176x144) cannot satisfy a VCD floor; no plan
        // may use it.
        assert!(plans.iter().all(|p| p.object.object.tier != "modem"));
    }

    #[test]
    fn dsl_replica_is_delivered_directly() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        // The DSL tier (352x288) is inside the VCD range: direct plans
        // exist with no transcode.
        assert!(plans.iter().any(|p| p.object.object.tier == "dsl" && p.transcode.is_none()));
        // Full-tier replicas exceed the ceiling, so they appear only with
        // a transcode.
        assert!(plans
            .iter()
            .filter(|p| p.object.object.tier == "full")
            .all(|p| p.transcode.is_some()));
    }

    #[test]
    fn open_security_prunes_encryption() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        assert!(plans.iter().all(|p| !p.cipher.is_encrypting()));
        // Without wasteful-pruning, encrypted plans reappear.
        let g2 = PlanGenerator::new(GeneratorConfig {
            prune_wasteful: false,
            ..GeneratorConfig::default()
        });
        let plans2 = g2.generate(&e, &vcd_request(0));
        assert!(plans2.iter().any(|p| p.cipher.is_encrypting()));
        assert!(plans2.len() > plans.len());
    }

    #[test]
    fn confidential_requires_strong_cipher() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let mut req = vcd_request(0);
        req.security = QopSecurity::Confidential;
        let plans = g.generate(&e, &req);
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.cipher == CipherAlgo::Aes));
    }

    #[test]
    fn drop_respects_frame_rate_floor() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        // Floor of 20 fps: AllB (keeps 1/3 of 23.97 = 8 fps) must be
        // excluded; None stays.
        let plans = g.generate(&e, &vcd_request(0));
        assert!(plans.iter().any(|p| p.drop == DropStrategy::None));
        assert!(plans.iter().all(|p| p.drop != DropStrategy::AllB));
        // With a relaxed floor, AllB plans appear.
        let mut relaxed = vcd_request(0);
        relaxed.qos.min_frame_rate = FrameRate::from_fps(5.0);
        let plans = g.generate(&e, &relaxed);
        assert!(plans.iter().any(|p| p.drop == DropStrategy::AllB));
    }

    #[test]
    fn remote_toggle_controls_cross_site_plans() {
        let e = engine();
        let local_only = PlanGenerator::new(GeneratorConfig {
            allow_remote: false,
            ..GeneratorConfig::default()
        });
        let plans = local_only.generate(&e, &vcd_request(0));
        assert!(plans.iter().all(|p| p.is_local()));
        let with_remote = PlanGenerator::new(GeneratorConfig::default());
        let plans = with_remote.generate(&e, &vcd_request(0));
        assert!(plans.iter().any(|p| !p.is_local()));
    }

    #[test]
    fn pruning_shrinks_the_space() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let generated = g.generate(&e, &vcd_request(0)).len();
        let bound = g.combinatorial_bound(&e, VideoId(0));
        assert!(generated < bound, "generated {generated} >= bound {bound}");
    }

    #[test]
    fn infeasible_plans_are_dropped() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        let n = plans.len();
        // A cluster with tiny links: every plan's delivery rate exceeds
        // capacity.
        let tiny = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 10.0, 10.0, 10.0);
        let mut dropped = plans.clone();
        g.retain_feasible(&mut dropped, &tiny);
        assert!(dropped.is_empty());
        // A sane cluster keeps them all.
        let sane = CompositeQosApi::homogeneous_cluster(
            ServerId::first_n(3),
            3_200_000.0,
            20_000_000.0,
            512e6,
        );
        let mut kept = plans;
        g.retain_feasible(&mut kept, &sane);
        assert_eq!(kept.len(), n);
    }

    #[test]
    fn deterministic_enumeration_order() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let a = g.generate(&e, &vcd_request(3));
        let b = g.generate(&e, &vcd_request(3));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.object.object.oid, y.object.object.oid);
            assert_eq!(x.target_server, y.target_server);
            assert_eq!(x.drop, y.drop);
            assert_eq!(x.cipher, y.cipher);
        }
    }
}
