//! Differential test of the LRB admission kernel against the full path.
//!
//! `QualityManager::process` admits through a single allocation-free scan
//! when its cost model ranks by LRB cost, and through generate →
//! feasibility cut → rank → reserve walk otherwise. The oracle here is a
//! rank-only forwarder around `LrbModel` (shaped like a benchmark's timing
//! wrapper): it ranks identically but does not opt into the kernel, so it
//! takes the full path. Both managers are driven through the same random
//! testbeds, pre-loads, faults and requests, and must agree on every
//! winning plan (resources bit for bit), rejection kind, `PlanningStats`
//! and post-reserve bucket state.

use quasaq_core::{
    AdmittedPlan, CostModel, GeneratorConfig, LrbModel, Plan, PlanGenerator, PlanRequest, QopColor,
    QopMotion, QopRequest, QopResolution, QopSecurity, QualityManager, Rejection, SecondChance,
    UserProfile,
};
use quasaq_media::{DeliveryCostModel, Library, LibraryConfig, VideoId};
use quasaq_qosapi::{CompositeQosApi, ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::{Rng, ServerId};
use quasaq_store::{MetadataEngine, ObjectStore, Placement, QosSampler, ReplicationPlanner};
use std::collections::BTreeMap;

/// Ranks exactly as `LrbModel` but forwards only `rank`/`rank_subset`, so
/// admission stays on the full path.
struct RankOnly(LrbModel);

impl CostModel for RankOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn rank(&self, plans: &[Plan], api: &CompositeQosApi, rng: &mut Rng) -> Vec<usize> {
        self.0.rank(plans, api, rng)
    }

    fn rank_subset(
        &self,
        plans: &[Plan],
        subset: &[usize],
        api: &CompositeQosApi,
        rng: &mut Rng,
    ) -> Vec<usize> {
        self.0.rank_subset(plans, subset, api, rng)
    }
}

const VIDEOS: usize = 8;
const KINDS: [ResourceKind; 4] = ResourceKind::ALL;

/// One random testbed: the engine, the pre-loaded resource state and the
/// generator policy, built from `seed` alone so the two managers get
/// identical copies.
fn testbed(seed: u64) -> (MetadataEngine, CompositeQosApi, GeneratorConfig) {
    let mut rng = Rng::new(seed);
    // Mostly the default policy; sometimes an ablation, or a cost model
    // whose zero buffer makes every memory demand zero (zero amounts are
    // dropped from a plan's vector, so a full memory bucket must not
    // count against it).
    let mut cost = DeliveryCostModel::default();
    if rng.chance(0.25) {
        cost.buffer_seconds = 0.0;
    }
    let generator = GeneratorConfig {
        allow_remote: rng.chance(0.85),
        allow_transcode: rng.chance(0.85),
        allow_drop: rng.chance(0.85),
        prune_wasteful: rng.chance(0.85),
        cost,
    };
    let n = rng.range_u64(3, 101) as u32;
    let homogeneous = rng.chance(0.35);
    let lib =
        Library::generate(seed, &LibraryConfig { num_videos: VIDEOS, ..LibraryConfig::default() });
    let placement = if n <= 12 && rng.chance(0.5) {
        Placement::Full
    } else {
        Placement::Spread { copies: rng.range_u64(1, 4) as u32 }
    };
    let mut stores = BTreeMap::new();
    for s in ServerId::first_n(n) {
        stores.insert(s, ObjectStore::new(s, 1 << 40));
    }
    let mut engine = MetadataEngine::new(ServerId::first_n(n), 16);
    ReplicationPlanner::new(QosSampler::default(), placement)
        .replicate(&lib, &mut stores, &mut engine)
        .unwrap();

    let mut api = CompositeQosApi::new();
    for s in ServerId::first_n(n) {
        let caps = if homogeneous {
            [1.0, 3_200_000.0, 20_000_000.0, 512e6]
        } else {
            [
                rng.range_f64(0.3, 2.0),
                rng.range_f64(50_000.0, 5_000_000.0),
                rng.range_f64(200_000.0, 30_000_000.0),
                rng.range_f64(1e5, 1e9),
            ]
        };
        for (kind, cap) in KINDS.into_iter().zip(caps) {
            api.register(ResourceKey::new(s, kind), cap);
        }
    }
    // Homogeneous testbeds leave most servers idle so LRB scores tie
    // exactly across them; the rest get a random mix of bucket states.
    let loaded = if homogeneous { 0.1 } else { 0.6 };
    let keys: Vec<ResourceKey> = api.buckets().collect();
    for key in keys {
        if !rng.chance(loaded) {
            continue;
        }
        let cap = api.capacity(key).unwrap();
        let used = api.used(key).unwrap();
        match rng.below(6) {
            // Partially filled.
            0..=2 => {
                let amount = rng.range_f64(0.0, 1.0) * (cap - used);
                api.reserve(&ResourceVector::new().with(key, amount)).unwrap();
            }
            // Exactly full: zero headroom.
            3 => {
                api.reserve(&ResourceVector::new().with(key, cap - used)).unwrap();
            }
            // Within 1e-9 of full, on either side.
            4 => {
                let slack = [-1e-9, -5e-10, 0.0, 5e-10, 1e-9][rng.index(5)];
                let amount = (cap - used - slack).max(0.0);
                let _ = api.reserve(&ResourceVector::new().with(key, amount));
            }
            // Loaded, then re-rated below its usage (oversubscribed).
            _ => {
                let amount = rng.range_f64(0.2, 1.0) * (cap - used);
                api.reserve(&ResourceVector::new().with(key, amount)).unwrap();
                let used = api.used(key).unwrap();
                let shrunk = if rng.chance(0.2) { f64::MIN_POSITIVE } else { used * 0.7 };
                api.set_capacity(key, shrunk);
            }
        }
    }
    // Failed servers: some vanish from the resource state only (their
    // buckets become unmanaged while the engine still fans out to them),
    // some from both.
    for _ in 0..rng.below(3) {
        let s = ServerId(rng.below(n as u64) as u32);
        api.fail_server(s);
        if rng.chance(0.5) {
            engine.fail_site(s);
        }
    }
    (engine, api, generator)
}

fn manager(
    api: CompositeQosApi,
    generator: GeneratorConfig,
    model: Box<dyn CostModel>,
) -> QualityManager {
    QualityManager::new(api, PlanGenerator::new(generator), model)
}

fn random_request(rng: &mut Rng, profile: &UserProfile) -> PlanRequest {
    let qop = QopRequest {
        resolution: *rng.choose(&[
            QopResolution::Preview,
            QopResolution::VcdLike,
            QopResolution::TvLike,
            QopResolution::DvdLike,
        ]),
        motion: *rng.choose(&[QopMotion::Economy, QopMotion::Standard, QopMotion::Smooth]),
        color: *rng.choose(&[QopColor::Basic, QopColor::Rich, QopColor::True]),
        security: *rng.choose(&[
            QopSecurity::Open,
            QopSecurity::Standard,
            QopSecurity::Confidential,
        ]),
    };
    PlanRequest {
        video: VideoId(rng.below(VIDEOS as u64 + 1) as u32),
        qos: profile.translate(&qop),
        security: qop.security,
    }
}

/// Moves one of `request`'s candidate buckets to within a few 1e-9 of
/// exactly fitting that candidate, on both sides, so the reservability
/// and capacity tolerances decide the outcome.
fn squeeze(
    rng: &mut Rng,
    engine: &MetadataEngine,
    request: &PlanRequest,
    generator: GeneratorConfig,
    pair: [&mut QualityManager; 2],
) {
    let plans = PlanGenerator::new(generator).generate(engine, request);
    if plans.is_empty() {
        return;
    }
    let plan = &plans[rng.index(plans.len())];
    let entries: Vec<(ResourceKey, f64)> = plan.resources.iter().collect();
    let (key, amount) = entries[rng.index(entries.len())];
    let Some(used) = pair[0].api().used(key) else { return };
    let cap = pair[0].api().capacity(key).unwrap();
    let slack = [-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9][rng.index(7)];
    let fill = cap - used - amount - slack;
    if fill > 0.0 {
        for m in pair {
            // The manager exposes no raw reserve; re-rating the bucket to
            // `used + amount + slack` sets the same headroom.
            m.set_capacity(key, cap - fill);
        }
    }
}

fn plan_eq(a: &Plan, b: &Plan) -> bool {
    let bits = |p: &Plan| -> Vec<(ResourceKey, u64)> {
        p.resources.iter().map(|(k, v)| (k, v.to_bits())).collect()
    };
    a.object == b.object
        && a.target_server == b.target_server
        && a.drop == b.drop
        && a.transcode == b.transcode
        && a.cipher == b.cipher
        && a.delivered == b.delivered
        && a.delivered_bps.to_bits() == b.delivered_bps.to_bits()
        && bits(a) == bits(b)
}

fn assert_same_outcome(
    ctx: &str,
    full: &Result<AdmittedPlan, Rejection>,
    kernel: &Result<AdmittedPlan, Rejection>,
) {
    match (full, kernel) {
        (Ok(a), Ok(b)) => {
            assert!(plan_eq(&a.plan, &b.plan), "{ctx}: winner differs\n{a:?}\n{b:?}");
            assert_eq!(a.reservation, b.reservation, "{ctx}: reservation id differs");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}: rejection differs"),
        _ => panic!("{ctx}: outcome differs\nfull:   {full:?}\nkernel: {kernel:?}"),
    }
}

fn assert_same_state(ctx: &str, full: &QualityManager, kernel: &QualityManager) {
    let state = |m: &QualityManager| -> Vec<(ResourceKey, u64, u64)> {
        let api = m.api();
        api.buckets()
            .map(|k| (k, api.used(k).unwrap().to_bits(), api.capacity(k).unwrap().to_bits()))
            .collect()
    };
    assert_eq!(full.last_stats(), kernel.last_stats(), "{ctx}: stats differ");
    assert_eq!(full.api().reservation_count(), kernel.api().reservation_count(), "{ctx}");
    assert_eq!(state(full), state(kernel), "{ctx}: bucket state differs");
}

#[test]
fn oracle_takes_the_full_path_and_lrb_the_kernel() {
    assert!(LrbModel.ranks_by_lrb_cost());
    assert!(!RankOnly(LrbModel).ranks_by_lrb_cost());
}

#[test]
fn kernel_admission_equals_the_full_path() {
    let profile = UserProfile::new("diff");
    let mut outcomes = [0usize; 3];
    let mut multi_cipher = 0;
    for case in 0..24u64 {
        let seed = 0x5eed_0000 + case;
        let (mut e_full, api_full, generator) = testbed(seed);
        let (mut e_kern, api_kern, _) = testbed(seed);
        let mut full = manager(api_full, generator, Box::new(RankOnly(LrbModel)));
        let mut kern = manager(api_kern, generator, Box::new(LrbModel));
        let mut rng = Rng::new(seed ^ 0xabcd);
        let (mut rng_full, mut rng_kern) = (Rng::new(seed), Rng::new(seed));
        let n = e_full.site_ids().last().map_or(1, |s| s.0 + 1);
        let mut live: Vec<(AdmittedPlan, AdmittedPlan)> = Vec::new();
        for step in 0..40 {
            let ctx = format!("case {case} step {step}");
            let request = random_request(&mut rng, &profile);
            if request.security != QopSecurity::Confidential
                && request.security != QopSecurity::Open
            {
                multi_cipher += 1;
            }
            match rng.below(10) {
                0 => squeeze(&mut rng, &e_full, &request, generator, [&mut full, &mut kern]),
                1 if !live.is_empty() => {
                    let (a, b) = live.swap_remove(rng.index(live.len()));
                    full.release(&a);
                    kern.release(&b);
                }
                2 if step % 13 == 0 => {
                    let s = ServerId(rng.below(n as u64) as u32);
                    assert_eq!(full.handle_server_failure(s), kern.handle_server_failure(s));
                    if rng.chance(0.5) {
                        e_full.fail_site(s);
                        e_kern.fail_site(s);
                    }
                }
                3 => {
                    let s = ServerId(rng.below(n as u64) as u32);
                    assert_eq!(full.handle_server_restart(s), kern.handle_server_restart(s));
                }
                _ => {}
            }
            let (a, b) = if rng.chance(0.25) {
                let a = full.process_with_second_chance(&e_full, &request, &profile, &mut rng_full);
                let b = kern.process_with_second_chance(&e_kern, &request, &profile, &mut rng_kern);
                let flat = |o: SecondChance| match o {
                    SecondChance::AsRequested(p) | SecondChance::Degraded { admitted: p, .. } => {
                        Ok(p)
                    }
                    SecondChance::Rejected(r) => Err(r),
                };
                (flat(a), flat(b))
            } else {
                (
                    full.process(&e_full, &request, &mut rng_full),
                    kern.process(&e_kern, &request, &mut rng_kern),
                )
            };
            assert_same_outcome(&ctx, &a, &b);
            assert_same_state(&ctx, &full, &kern);
            outcomes[match &a {
                Ok(_) => 0,
                Err(Rejection::AdmissionFailed) => 1,
                Err(Rejection::NoFeasiblePlan) => 2,
            }] += 1;
            if let (Ok(a), Ok(b)) = (a, b) {
                live.push((a, b));
            }
        }
        assert_eq!(rng_full.next_u64(), rng_kern.next_u64(), "case {case}: RNG streams differ");
    }
    assert!(outcomes.iter().all(|&n| n > 0), "every outcome kind must occur: {outcomes:?}");
    assert!(multi_cipher > 0);
}

/// On an idle homogeneous cluster every target scores the same, so plan
/// order alone (target outer, cipher inner) picks the winner — for every
/// security level, hence for one- and multi-cipher groups alike.
#[test]
fn exact_ties_go_to_the_lowest_plan_index() {
    let profile = UserProfile::new("ties");
    for security in [QopSecurity::Open, QopSecurity::Standard, QopSecurity::Confidential] {
        let (engine, _, _) = testbed(7);
        let api = || CompositeQosApi::homogeneous_cluster(engine.sites(), 1e9, 1e9, 1e12);
        let generator = GeneratorConfig::default();
        let mut full = manager(api(), generator, Box::new(RankOnly(LrbModel)));
        let mut kern = manager(api(), generator, Box::new(LrbModel));
        let request = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest { security, ..QopRequest::organizational() }),
            security,
        };
        let a = full.process(&engine, &request, &mut Rng::new(1));
        let b = kern.process(&engine, &request, &mut Rng::new(1));
        assert_same_outcome(&format!("{security:?}"), &a, &b);
        assert_same_state(&format!("{security:?}"), &full, &kern);
        assert!(a.is_ok(), "an idle cluster admits");
    }
}

/// A plan whose bucket misses by more than the 1e-9 tolerance can score
/// below one that overflows within it: the full path then tries (and
/// fails) the cheaper plan first, and the kernel must count that attempt.
#[test]
fn attempts_count_unreservable_plans_ranked_ahead() {
    let generator = GeneratorConfig {
        allow_remote: false,
        allow_transcode: false,
        allow_drop: false,
        ..GeneratorConfig::default()
    };
    let profile = UserProfile::new("attempts");
    let lib = Library::generate(3, &LibraryConfig::default());
    let mut stores = BTreeMap::new();
    for s in ServerId::first_n(2) {
        stores.insert(s, ObjectStore::new(s, 1 << 40));
    }
    let mut engine = MetadataEngine::new(ServerId::first_n(2), 16);
    ReplicationPlanner::new(QosSampler::default(), Placement::Full)
        .replicate(&lib, &mut stores, &mut engine)
        .unwrap();
    // A request with exactly one candidate per server.
    let (request, plans) = (0..15)
        .map(|v| PlanRequest {
            video: VideoId(v),
            qos: profile.translate(&QopRequest {
                security: QopSecurity::Open,
                ..QopRequest::organizational()
            }),
            security: QopSecurity::Open,
        })
        .map(|r| {
            let plans = PlanGenerator::new(generator).generate(&engine, &r);
            (r, plans)
        })
        .find(|(_, p)| p.len() == 2 && p[0].target_server != p[1].target_server)
        .expect("some video has one candidate per server");
    let (first, second) = (&plans[0], &plans[1]);
    let state = || {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(2), 3.2e6, 2e7, 5e8);
        // The first plan's link misses by 1e-3 B/s: unreservable, fill
        // just over 1 (about 1 + 3e-10).
        let net = ResourceKey::new(first.target_server, ResourceKind::NetBandwidth);
        let headroom = first.resources.get(net) - 1e-3;
        api.reserve(&ResourceVector::new().with(net, 3.2e6 - headroom)).unwrap();
        // The second plan's CPU overflows by 5e-10: reservable within the
        // tolerance, yet its fill (1 + 5e-10) ranks it second.
        let cpu = ResourceKey::new(second.target_server, ResourceKind::Cpu);
        let headroom = second.resources.get(cpu) - 5e-10;
        api.reserve(&ResourceVector::new().with(cpu, 1.0 - headroom)).unwrap();
        api
    };
    let mut full = manager(state(), generator, Box::new(RankOnly(LrbModel)));
    let mut kern = manager(state(), generator, Box::new(LrbModel));
    let a = full.process(&engine, &request, &mut Rng::new(1));
    let b = kern.process(&engine, &request, &mut Rng::new(1));
    assert_same_outcome("attempts", &a, &b);
    assert_same_state("attempts", &full, &kern);
    assert_eq!(full.last_stats().attempts, 2, "the cheaper plan must be tried first");
    assert_eq!(a.unwrap().plan.target_server, second.target_server);
}

/// Malformed demands are refused loudly on both paths, as building a
/// plan's resource vector always has.
fn malformed(model: Box<dyn CostModel>) {
    let (engine, api, _) = testbed(11);
    let cost = DeliveryCostModel { buffer_seconds: f64::NAN, ..DeliveryCostModel::default() };
    let mut m = manager(api, GeneratorConfig { cost, ..GeneratorConfig::default() }, model);
    let request = PlanRequest {
        video: VideoId(0),
        qos: UserProfile::new("nan").translate(&QopRequest::organizational()),
        security: QopSecurity::Standard,
    };
    let _ = m.process(&engine, &request, &mut Rng::new(1));
}

#[test]
#[should_panic(expected = "resource amounts must be non-negative")]
fn kernel_refuses_malformed_amounts() {
    malformed(Box::new(LrbModel));
}

#[test]
#[should_panic(expected = "resource amounts must be non-negative")]
fn full_path_refuses_malformed_amounts() {
    malformed(Box::new(RankOnly(LrbModel)));
}

/// An unreservable plan that ties the winner's score exactly, at a lower
/// index, is tried first by the full path; the kernel's attempt count
/// must include it. Both plans stream one replica, so the replica's disk
/// bucket — filled to just within tolerance — sets both scores; the
/// earlier plan's target link misses by 2e-9 B/s, which fills it less.
#[test]
fn attempts_count_unreservable_ties_ranked_ahead() {
    let generator =
        GeneratorConfig { allow_transcode: false, allow_drop: false, ..GeneratorConfig::default() };
    let profile = UserProfile::new("ties");
    let lib = Library::generate(5, &LibraryConfig::default());
    let mut stores = BTreeMap::new();
    for s in ServerId::first_n(3) {
        stores.insert(s, ObjectStore::new(s, 1 << 40));
    }
    let mut engine = MetadataEngine::new(ServerId::first_n(3), 16);
    ReplicationPlanner::new(QosSampler::default(), Placement::Full)
        .replicate(&lib, &mut stores, &mut engine)
        .unwrap();
    // A request served by one replica per server, each fanned to all three.
    let (request, plans) = (0..15)
        .map(|v| PlanRequest {
            video: VideoId(v),
            qos: profile.translate(&QopRequest {
                security: QopSecurity::Open,
                ..QopRequest::organizational()
            }),
            security: QopSecurity::Open,
        })
        .map(|r| {
            let plans = PlanGenerator::new(generator).generate(&engine, &r);
            (r, plans)
        })
        .find(|(_, p)| p.len() == 9 && p[3].source_server() != p[0].source_server())
        .expect("some video has one direct replica per server");
    let source = plans[0].source_server();
    let remote: Vec<&Plan> = plans[..3].iter().filter(|p| !p.is_local()).collect();
    let (tried, winner) = (remote[0], remote[1]);
    let state = || {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3.2e6, 2e7, 5e8);
        let key = ResourceKey::new;
        let full = |api: &mut CompositeQosApi, k: ResourceKey, cap: f64| {
            api.reserve(&ResourceVector::new().with(k, api.capacity(k).unwrap())).unwrap();
            api.set_capacity(k, cap);
        };
        // The first replica's disk holds exactly its stream plus 5e-10:
        // fill 1 + ~1e-14, reservable within tolerance.
        let disk = key(source, ResourceKind::DiskBandwidth);
        let rate = plans[0].resources.get(disk);
        api.reserve(&ResourceVector::new().with(disk, 5e-10)).unwrap();
        api.set_capacity(disk, rate);
        // Every other replica's disk, and the local plan's CPU, are
        // oversubscribed: those plans rank last and cannot reserve.
        for s in ServerId::first_n(3).filter(|&s| s != source) {
            full(&mut api, key(s, ResourceKind::DiskBandwidth), 1e7);
        }
        full(&mut api, key(source, ResourceKind::Cpu), 0.5);
        // The earlier remote plan's link misses by 2e-9 B/s: unreservable,
        // but its fill (1 + ~6e-16) stays under the disk's.
        let net = key(tried.target_server, ResourceKind::NetBandwidth);
        let amount = 3.2e6 - tried.resources.get(net) + 2e-9;
        api.reserve(&ResourceVector::new().with(net, amount)).unwrap();
        api
    };
    let mut full = manager(state(), generator, Box::new(RankOnly(LrbModel)));
    let mut kern = manager(state(), generator, Box::new(LrbModel));
    let a = full.process(&engine, &request, &mut Rng::new(1));
    let b = kern.process(&engine, &request, &mut Rng::new(1));
    assert_same_outcome("tie", &a, &b);
    assert_same_state("tie", &full, &kern);
    assert_eq!(full.last_stats().attempts, 2, "the tied plan must be tried first");
    assert_eq!(a.unwrap().plan.target_server, winner.target_server);
}
