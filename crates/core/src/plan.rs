//! QoS-aware query execution plans.
//!
//! "The final execution of QoS-aware query plans can be viewed as a
//! series of server activities that may include retrieval, decoding,
//! transcoding between different formats and/or qualities, and
//! encryption. Therefore, the search space of alternative QoS-aware plans
//! consists of all possible combinations of media repositories, target
//! objects, and server activities" (Fig 2's disjoint sets A1–A5). A
//! [`Plan`] is one such ordered combination with its resource vector
//! precomputed for cost evaluation.

use quasaq_media::{
    CipherAlgo, DeliveryCostModel, DropStrategy, GopPattern, QualitySpec, Transcode,
};
use quasaq_qosapi::{ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::ServerId;
use quasaq_store::ObjectRecord;
use std::cmp::Ordering;
use std::fmt;

/// One fully specified delivery plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// A1: the physical replica to retrieve.
    pub object: ObjectRecord,
    /// A2: the serving (target) site; differs from the replica's site for
    /// cross-server plans ("the sender of the video data is not
    /// necessarily the site at which the query was received").
    pub target_server: ServerId,
    /// A3: runtime frame-dropping strategy.
    pub drop: DropStrategy,
    /// A4: optional online transcode.
    pub transcode: Option<Transcode>,
    /// A5: encryption algorithm.
    pub cipher: CipherAlgo,
    /// The application QoS actually delivered to the client.
    pub delivered: QualitySpec,
    /// Mean delivered bandwidth in bytes/second.
    pub delivered_bps: f64,
    /// The plan's resource demand (the Plan Generator "computes its
    /// resource requirements (in the form of a resource vector)").
    pub resources: ResourceVector,
}

impl Plan {
    /// The replica's home site.
    pub fn source_server(&self) -> ServerId {
        self.object.object.server
    }

    /// True when the plan streams straight from the replica's site.
    pub fn is_local(&self) -> bool {
        self.source_server() == self.target_server
    }

    /// Number of non-trivial server activities (for search-space
    /// accounting and display).
    pub fn activity_count(&self) -> usize {
        let mut n = 2; // retrieval + site choice are always present
        if self.drop != DropStrategy::None {
            n += 1;
        }
        if self.transcode.as_ref().is_some_and(|t| !t.is_identity()) {
            n += 1;
        }
        if self.cipher.is_encrypting() {
            n += 1;
        }
        n
    }

    /// Computes the plan's resource vector under `cost`, including the
    /// reservation headroom on CPU. Cross-server plans additionally charge
    /// the source site's disk and network for the inter-server transfer.
    pub fn compute_resources(
        object: &ObjectRecord,
        target_server: ServerId,
        gop: &GopPattern,
        transcode: Option<&Transcode>,
        drop: DropStrategy,
        cipher: CipherAlgo,
        cost: &DeliveryCostModel,
    ) -> (ResourceVector, f64) {
        let stored_rate = object.object.rate_bps as f64;
        let stored_fps = object.object.spec.frame_rate.fps();
        let (delivered_bps, _fps) =
            cost.delivered_rate(stored_rate, stored_fps, gop, transcode, drop);
        let cpu_share =
            cost.session_cpu_share(stored_rate, stored_fps, gop, transcode, drop, cipher)
                * cost.reservation_headroom;
        let v = Plan::assemble_resources(
            object,
            target_server,
            delivered_bps,
            cpu_share,
            cost.buffer_bytes(delivered_bps),
        );
        (v, delivered_bps)
    }

    /// Assembles the demand vector from target-independent figures. The
    /// delivered rate, CPU share, and buffer size depend only on the
    /// replica and the activity choices, so callers enumerating target
    /// sites (the plan generator fans each delivery out across every
    /// server) compute them once and re-run only this cheap assembly per
    /// site.
    pub fn assemble_resources(
        object: &ObjectRecord,
        target_server: ServerId,
        delivered_bps: f64,
        cpu_share: f64,
        buffer_bytes: f64,
    ) -> ResourceVector {
        let mut v = ResourceVector::with_capacity(5);
        for (key, amount) in
            Plan::demand_entries(object, target_server, delivered_bps, cpu_share, buffer_bytes)
                .into_iter()
                .flatten()
        {
            v.add(key, amount);
        }
        v
    }

    /// The `(bucket, amount)` entries [`assemble_resources`](Self::assemble_resources)
    /// adds, in ascending [`ResourceKey`] order: four for a local plan, five
    /// for a cross-server one (the last slot is then `None`). Amounts are
    /// as computed — `ResourceVector::add` is what drops zeros and refuses
    /// negative or non-finite ones — so an admission kernel that scores
    /// candidates without building their vectors walks exactly these.
    pub(crate) fn demand_entries(
        object: &ObjectRecord,
        target_server: ServerId,
        delivered_bps: f64,
        cpu_share: f64,
        buffer_bytes: f64,
    ) -> [Option<(ResourceKey, f64)>; 5] {
        let stored_rate = object.object.rate_bps as f64;
        let source = object.object.server;
        let key = ResourceKey::new;
        // The target site runs the pipeline and streams to the client.
        let cpu = (key(target_server, ResourceKind::Cpu), cpu_share.min(1.0));
        let net = (key(target_server, ResourceKind::NetBandwidth), delivered_bps);
        let memory = (key(target_server, ResourceKind::Memory), buffer_bytes);
        // The source site reads the replica from disk.
        let disk = (key(source, ResourceKind::DiskBandwidth), stored_rate);
        // Inter-server transfer consumes the source's outbound link at the
        // stored rate; the target receives and re-serves.
        let transfer = (key(source, ResourceKind::NetBandwidth), stored_rate);
        match source.cmp(&target_server) {
            Ordering::Equal => [Some(cpu), Some(net), Some(disk), Some(memory), None],
            Ordering::Less => [Some(transfer), Some(disk), Some(cpu), Some(net), Some(memory)],
            Ordering::Greater => [Some(cpu), Some(net), Some(memory), Some(transfer), Some(disk)],
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retrieve {}@{} ({})",
            self.object.object.oid,
            self.source_server(),
            self.object.object.tier
        )?;
        if !self.is_local() {
            write!(f, " -> transfer to {}", self.target_server)?;
        }
        if let Some(t) = &self.transcode {
            if !t.is_identity() {
                write!(f, " -> transcode to {}", t.target())?;
            }
        }
        if self.drop != DropStrategy::None {
            write!(f, " -> drop {}", self.drop)?;
        }
        if self.cipher.is_encrypting() {
            write!(f, " -> encrypt {}", self.cipher)?;
        }
        write!(f, " => {} @ {:.0} B/s", self.delivered, self.delivered_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{ColorDepth, FrameRate, Resolution, VideoFormat, VideoId};
    use quasaq_store::{PhysicalObject, PhysicalOid, QosProfile};

    fn record(server: u32) -> ObjectRecord {
        ObjectRecord {
            object: PhysicalObject {
                oid: PhysicalOid(1),
                video: VideoId(0),
                tier: "t1",
                spec: QualitySpec::new(
                    Resolution::VGA,
                    ColorDepth::TRUE_COLOR,
                    FrameRate::NTSC_FILM,
                    VideoFormat::Mpeg1,
                ),
                rate_bps: 193_000,
                bytes: 10_000_000,
                server: ServerId(server),
                trace_seed: 7,
            },
            profile: QosProfile::ZERO,
        }
    }

    fn cost() -> DeliveryCostModel {
        DeliveryCostModel::default()
    }

    #[test]
    fn local_plan_charges_only_its_site() {
        let rec = record(0);
        let gop = GopPattern::mpeg1_n15();
        let (v, bps) = Plan::compute_resources(
            &rec,
            ServerId(0),
            &gop,
            None,
            DropStrategy::None,
            CipherAlgo::None,
            &cost(),
        );
        assert!((bps - 193_000.0).abs() < 1.0);
        assert!(v.get(ResourceKey::new(ServerId(0), ResourceKind::Cpu)) > 0.0);
        assert!(v.get(ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth)) > 0.0);
        // No foreign buckets.
        assert!(v.iter().all(|(k, _)| k.server == ServerId(0)));
    }

    #[test]
    fn remote_plan_charges_transfer() {
        let rec = record(1);
        let gop = GopPattern::mpeg1_n15();
        let (v, _) = Plan::compute_resources(
            &rec,
            ServerId(0),
            &gop,
            None,
            DropStrategy::None,
            CipherAlgo::None,
            &cost(),
        );
        // Source pays disk + transfer net; target pays cpu + delivery net.
        assert!(v.get(ResourceKey::new(ServerId(1), ResourceKind::DiskBandwidth)) > 0.0);
        assert!(v.get(ResourceKey::new(ServerId(1), ResourceKind::NetBandwidth)) > 0.0);
        assert!(v.get(ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth)) > 0.0);
        assert!(v.get(ResourceKey::new(ServerId(0), ResourceKind::Cpu)) > 0.0);
    }

    #[test]
    fn demand_entries_are_the_vector_in_key_order() {
        for (source, target) in [(1, 1), (0, 2), (2, 0)] {
            let rec = record(source);
            let entries: Vec<(ResourceKey, f64)> =
                Plan::demand_entries(&rec, ServerId(target), 48_000.0, 0.07, 96_000.0)
                    .into_iter()
                    .flatten()
                    .collect();
            assert_eq!(entries.len(), if source == target { 4 } else { 5 });
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "{entries:?}");
            let v = Plan::assemble_resources(&rec, ServerId(target), 48_000.0, 0.07, 96_000.0);
            assert_eq!(v.iter().collect::<Vec<_>>(), entries);
        }
    }

    #[test]
    fn dropping_reduces_delivered_bandwidth() {
        let rec = record(0);
        let gop = GopPattern::mpeg1_n15();
        let (_, full) = Plan::compute_resources(
            &rec,
            ServerId(0),
            &gop,
            None,
            DropStrategy::None,
            CipherAlgo::None,
            &cost(),
        );
        let (_, dropped) = Plan::compute_resources(
            &rec,
            ServerId(0),
            &gop,
            None,
            DropStrategy::AllB,
            CipherAlgo::None,
            &cost(),
        );
        assert!(dropped < full);
    }

    #[test]
    fn encryption_raises_cpu_demand() {
        let rec = record(0);
        let gop = GopPattern::mpeg1_n15();
        let key = ResourceKey::new(ServerId(0), ResourceKind::Cpu);
        let (plain, _) = Plan::compute_resources(
            &rec,
            ServerId(0),
            &gop,
            None,
            DropStrategy::None,
            CipherAlgo::None,
            &cost(),
        );
        let (enc, _) = Plan::compute_resources(
            &rec,
            ServerId(0),
            &gop,
            None,
            DropStrategy::None,
            CipherAlgo::Block,
            &cost(),
        );
        assert!(enc.get(key) > plain.get(key));
    }

    #[test]
    fn plan_display_and_activities() {
        let rec = record(1);
        let gop = GopPattern::mpeg1_n15();
        let (v, bps) = Plan::compute_resources(
            &rec,
            ServerId(0),
            &gop,
            None,
            DropStrategy::AllB,
            CipherAlgo::Aes,
            &cost(),
        );
        let plan = Plan {
            object: rec,
            target_server: ServerId(0),
            drop: DropStrategy::AllB,
            transcode: None,
            cipher: CipherAlgo::Aes,
            delivered: record(1).object.spec,
            delivered_bps: bps,
            resources: v,
        };
        assert!(!plan.is_local());
        assert_eq!(plan.activity_count(), 4);
        let s = plan.to_string();
        assert!(s.contains("transfer"));
        assert!(s.contains("drop"));
        assert!(s.contains("encrypt"));
    }
}
