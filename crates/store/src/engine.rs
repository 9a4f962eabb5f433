//! The Distributed Metadata Engine.
//!
//! "We distribute the metadata in various locations enabling ease of use
//! and migration. Caching is used to accelerate non-local metadata
//! accesses." Content metadata is small and fully replicated; object
//! records are partitioned by owning server, and each site keeps a
//! bounded FIFO cache of remote records with hit/miss accounting.

use crate::metadata::{ObjectRecord, QosProfile};
use crate::object::{PhysicalObject, PhysicalOid, StoreError};
use quasaq_media::{VideoId, VideoMeta};
use quasaq_sim::ServerId;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Per-site cache of remote object records.
#[derive(Debug, Default)]
struct SiteCache {
    entries: HashMap<PhysicalOid, ObjectRecord>,
    order: VecDeque<PhysicalOid>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl SiteCache {
    fn new(capacity: usize) -> Self {
        SiteCache { capacity, ..Default::default() }
    }

    fn get(&mut self, oid: PhysicalOid) -> Option<ObjectRecord> {
        match self.entries.get(&oid) {
            Some(rec) => {
                self.hits += 1;
                Some(rec.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, rec: ObjectRecord) {
        if self.capacity == 0 {
            return;
        }
        let oid = rec.object.oid;
        if self.entries.insert(oid, rec).is_none() {
            self.order.push_back(oid);
            while self.order.len() > self.capacity {
                if let Some(evict) = self.order.pop_front() {
                    self.entries.remove(&evict);
                }
            }
        }
    }

    fn invalidate(&mut self, oid: PhysicalOid) {
        self.entries.remove(&oid);
        self.order.retain(|&o| o != oid);
    }
}

/// Cache hit/miss statistics for one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Remote lookups served from the local cache.
    pub hits: u64,
    /// Remote lookups that had to go to the owning site.
    pub misses: u64,
}

/// The distributed metadata engine.
#[derive(Debug)]
pub struct MetadataEngine {
    /// Fully replicated content metadata.
    content: BTreeMap<VideoId, VideoMeta>,
    /// Object records partitioned by owning server.
    sites: BTreeMap<ServerId, BTreeMap<PhysicalOid, ObjectRecord>>,
    /// The keys of `sites`, ascending: the plan generator fans every
    /// activity chain out over them.
    site_ids: Vec<ServerId>,
    /// Distribution metadata: logical OID -> replica locations.
    directory: BTreeMap<VideoId, Vec<(PhysicalOid, ServerId)>>,
    /// Per-site caches of remote records.
    caches: BTreeMap<ServerId, SiteCache>,
}

impl MetadataEngine {
    /// Creates an engine for the given sites, each with a remote-record
    /// cache of `cache_capacity` entries.
    pub fn new(servers: impl IntoIterator<Item = ServerId>, cache_capacity: usize) -> Self {
        let mut sites = BTreeMap::new();
        let mut caches = BTreeMap::new();
        for s in servers {
            sites.insert(s, BTreeMap::new());
            caches.insert(s, SiteCache::new(cache_capacity));
        }
        let site_ids = sites.keys().copied().collect();
        MetadataEngine {
            content: BTreeMap::new(),
            sites,
            site_ids,
            directory: BTreeMap::new(),
            caches,
        }
    }

    /// Registers a logical video's content metadata.
    pub fn insert_video(&mut self, meta: VideoMeta) {
        self.content.insert(meta.id, meta);
    }

    /// Content metadata of a video.
    pub fn video(&self, id: VideoId) -> Option<&VideoMeta> {
        self.content.get(&id)
    }

    /// All registered videos in id order.
    pub fn videos(&self) -> impl Iterator<Item = &VideoMeta> {
        self.content.values()
    }

    /// Registers a stored replica and its QoS profile; updates the
    /// distribution directory.
    ///
    /// A placement naming a server this engine does not span is rejected
    /// with [`StoreError::UnknownSite`] before any state is touched, so a
    /// malformed placement leaves directory and partitions consistent.
    pub fn insert_object(
        &mut self,
        object: PhysicalObject,
        profile: QosProfile,
    ) -> Result<(), StoreError> {
        let Some(site) = self.sites.get_mut(&object.server) else {
            return Err(StoreError::UnknownSite(object.server));
        };
        self.directory.entry(object.video).or_default().push((object.oid, object.server));
        site.insert(object.oid, ObjectRecord { object, profile });
        Ok(())
    }

    /// Removes a replica from its site and the directory, invalidating
    /// caches.
    pub fn remove_object(&mut self, oid: PhysicalOid) -> Option<ObjectRecord> {
        let mut removed = None;
        for site in self.sites.values_mut() {
            if let Some(rec) = site.remove(&oid) {
                removed = Some(rec);
                break;
            }
        }
        if let Some(rec) = &removed {
            if let Some(locs) = self.directory.get_mut(&rec.object.video) {
                locs.retain(|&(o, _)| o != oid);
            }
            for cache in self.caches.values_mut() {
                cache.invalidate(oid);
            }
        }
        removed
    }

    /// All replica records of a logical video, across all sites — the
    /// Plan Generator's raw material ("A given logical object may be
    /// replicated at multiple sites and further with different formats").
    pub fn replicas(&self, video: VideoId) -> Vec<&ObjectRecord> {
        self.replica_records(video).collect()
    }

    /// [`replicas`](Self::replicas) without collecting: the same records in
    /// the same order.
    pub fn replica_records(&self, video: VideoId) -> impl Iterator<Item = &ObjectRecord> {
        self.directory
            .get(&video)
            .into_iter()
            .flatten()
            .filter_map(|&(oid, server)| self.sites.get(&server).and_then(|s| s.get(&oid)))
    }

    /// Direct (location-transparent) record lookup.
    pub fn record(&self, oid: PhysicalOid) -> Option<&ObjectRecord> {
        self.sites.values().find_map(|s| s.get(&oid))
    }

    /// A lookup issued *from* a particular site: local records are free;
    /// remote records go through the site's cache (hit) or to the owning
    /// site (miss, then cached). Returns the record and whether the access
    /// was remote-and-missed.
    pub fn lookup_from(
        &mut self,
        from: ServerId,
        oid: PhysicalOid,
    ) -> Option<(ObjectRecord, bool)> {
        // Local partition first.
        if let Some(rec) = self.sites.get(&from).and_then(|s| s.get(&oid)) {
            return Some((rec.clone(), false));
        }
        // Remote: consult the cache.
        if let Some(cache) = self.caches.get_mut(&from) {
            if let Some(rec) = cache.get(oid) {
                return Some((rec, false));
            }
        }
        // Miss: fetch from the owning site and fill the cache.
        let rec = self
            .sites
            .iter()
            .filter(|&(&s, _)| s != from)
            .find_map(|(_, site)| site.get(&oid))?
            .clone();
        if let Some(cache) = self.caches.get_mut(&from) {
            cache.put(rec.clone());
        }
        Some((rec, true))
    }

    /// Cache statistics for a site.
    pub fn cache_stats(&self, site: ServerId) -> Option<CacheStats> {
        self.caches.get(&site).map(|c| CacheStats { hits: c.hits, misses: c.misses })
    }

    /// Total number of object records across all sites.
    pub fn object_count(&self) -> usize {
        self.sites.values().map(|s| s.len()).sum()
    }

    /// The largest physical OID registered anywhere (for allocating fresh
    /// OIDs after engine state was rebuilt).
    pub fn max_oid(&self) -> Option<PhysicalOid> {
        self.sites.values().flat_map(|s| s.keys().copied()).max()
    }

    /// Simulates the loss of a site: its object partition and cache are
    /// dropped, the directory forgets its replicas, and other sites'
    /// caches are purged of its records. Returns the lost physical OIDs.
    pub fn fail_site(&mut self, server: ServerId) -> Vec<PhysicalOid> {
        let Some(partition) = self.sites.remove(&server) else { return Vec::new() };
        self.site_ids.retain(|&s| s != server);
        self.caches.remove(&server);
        let lost: Vec<PhysicalOid> = partition.keys().copied().collect();
        for locs in self.directory.values_mut() {
            locs.retain(|&(_, s)| s != server);
        }
        for cache in self.caches.values_mut() {
            for &oid in &lost {
                cache.invalidate(oid);
            }
        }
        lost
    }

    /// The sites this engine spans.
    pub fn sites(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.site_ids.iter().copied()
    }

    /// The sites this engine spans, ascending.
    pub fn site_ids(&self) -> &[ServerId] {
        &self.site_ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{ColorDepth, FrameRate, GopPattern, QualitySpec, Resolution, VideoFormat};
    use quasaq_sim::SimDuration;

    fn meta(id: u32) -> VideoMeta {
        VideoMeta {
            id: VideoId(id),
            title: format!("video {id}"),
            keywords: vec!["test".into()],
            features: [0.0; quasaq_media::FEATURE_DIMS],
            duration: SimDuration::from_secs(60),
            gop: GopPattern::mpeg1_classic(),
            trace_seed: id as u64,
        }
    }

    fn obj(oid: u64, video: u32, server: u32) -> PhysicalObject {
        PhysicalObject {
            oid: PhysicalOid(oid),
            video: VideoId(video),
            tier: "dsl",
            spec: QualitySpec::new(
                Resolution::CIF,
                ColorDepth::TRUE_COLOR,
                FrameRate::NTSC_FILM,
                VideoFormat::Mpeg1,
            ),
            rate_bps: 48_000,
            bytes: 1_000_000,
            server: ServerId(server),
            trace_seed: oid,
        }
    }

    fn engine() -> MetadataEngine {
        MetadataEngine::new(ServerId::first_n(3), 8)
    }

    #[test]
    fn video_registration() {
        let mut e = engine();
        e.insert_video(meta(0));
        e.insert_video(meta(1));
        assert_eq!(e.videos().count(), 2);
        assert_eq!(e.video(VideoId(1)).unwrap().title, "video 1");
        assert!(e.video(VideoId(9)).is_none());
    }

    #[test]
    fn replicas_span_sites() {
        let mut e = engine();
        e.insert_video(meta(0));
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        e.insert_object(obj(2, 0, 1), QosProfile::ZERO).unwrap();
        e.insert_object(obj(3, 1, 2), QosProfile::ZERO).unwrap();
        let reps = e.replicas(VideoId(0));
        assert_eq!(reps.len(), 2);
        assert!(e.replicas(VideoId(7)).is_empty());
        assert_eq!(e.object_count(), 3);
    }

    #[test]
    fn local_lookup_bypasses_cache() {
        let mut e = engine();
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        let (rec, missed) = e.lookup_from(ServerId(0), PhysicalOid(1)).unwrap();
        assert_eq!(rec.object.oid, PhysicalOid(1));
        assert!(!missed);
        let stats = e.cache_stats(ServerId(0)).unwrap();
        assert_eq!(stats, CacheStats { hits: 0, misses: 0 });
    }

    #[test]
    fn remote_lookup_caches() {
        let mut e = engine();
        e.insert_object(obj(1, 0, 1), QosProfile::ZERO).unwrap();
        // First remote access misses.
        let (_, missed) = e.lookup_from(ServerId(0), PhysicalOid(1)).unwrap();
        assert!(missed);
        // Second hits the cache.
        let (_, missed) = e.lookup_from(ServerId(0), PhysicalOid(1)).unwrap();
        assert!(!missed);
        let stats = e.cache_stats(ServerId(0)).unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cache_eviction_is_bounded() {
        let mut e = MetadataEngine::new(ServerId::first_n(2), 2);
        for i in 0..5 {
            e.insert_object(obj(i, 0, 1), QosProfile::ZERO).unwrap();
        }
        for i in 0..5 {
            e.lookup_from(ServerId(0), PhysicalOid(i));
        }
        // Re-access the first: evicted, so it misses again.
        let (_, missed) = e.lookup_from(ServerId(0), PhysicalOid(0)).unwrap();
        assert!(missed);
    }

    #[test]
    fn removal_updates_directory_and_caches() {
        let mut e = engine();
        e.insert_object(obj(1, 0, 1), QosProfile::ZERO).unwrap();
        e.lookup_from(ServerId(0), PhysicalOid(1));
        let removed = e.remove_object(PhysicalOid(1)).unwrap();
        assert_eq!(removed.object.oid, PhysicalOid(1));
        assert!(e.replicas(VideoId(0)).is_empty());
        assert!(e.lookup_from(ServerId(0), PhysicalOid(1)).is_none());
        assert!(e.remove_object(PhysicalOid(1)).is_none());
    }

    #[test]
    fn site_failure_forgets_its_replicas() {
        let mut e = engine();
        e.insert_video(meta(0));
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        e.insert_object(obj(2, 0, 1), QosProfile::ZERO).unwrap();
        // Warm server 0's cache with server 1's record.
        e.lookup_from(ServerId(0), PhysicalOid(2));
        let lost = e.fail_site(ServerId(1));
        assert_eq!(lost, vec![PhysicalOid(2)]);
        // Directory and caches no longer serve the lost replica.
        assert_eq!(e.replicas(VideoId(0)).len(), 1);
        assert!(e.lookup_from(ServerId(0), PhysicalOid(2)).is_none());
        assert_eq!(e.sites().count(), 2);
        assert_eq!(e.site_ids(), &[ServerId(0), ServerId(2)]);
        // Failing an unknown site is a no-op.
        assert!(e.fail_site(ServerId(9)).is_empty());
    }

    #[test]
    fn unknown_site_is_typed_error_not_abort() {
        let mut e = engine();
        let err = e.insert_object(obj(1, 0, 9), QosProfile::ZERO).unwrap_err();
        assert_eq!(err, StoreError::UnknownSite(ServerId(9)));
        // The rejected placement left no trace: directory and partitions
        // are untouched, and the engine keeps working.
        assert!(e.replicas(VideoId(0)).is_empty());
        assert_eq!(e.object_count(), 0);
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        assert_eq!(e.replicas(VideoId(0)).len(), 1);
    }
}
