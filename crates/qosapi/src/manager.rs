//! Per-resource managers.
//!
//! GARA "contains separate managers for individual resources (e.g. CPU,
//! network bandwidth and storage bandwidth)". A [`ResourceManager`] tracks
//! one bucket's capacity and outstanding reservations; the composite API
//! aggregates one manager per (server, kind) bucket.

use crate::resource::ResourceKey;
use std::collections::BTreeMap;

/// Identifies one reservation inside a manager (composite reservations
/// group several of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeaseId(pub u64);

/// Why a single-bucket reservation failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketFull {
    /// The saturated bucket.
    pub key: ResourceKey,
    /// Amount requested.
    pub requested: f64,
    /// Amount still available.
    pub available: f64,
}

impl std::fmt::Display for BucketFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: requested {:.3} exceeds available {:.3}",
            self.key, self.requested, self.available
        )
    }
}

impl std::error::Error for BucketFull {}

/// One bucket's `(used, capacity)` at a point in time, with the admission
/// arithmetic every path shares: [`ResourceManager`] answers through it,
/// and admission kernels that snapshot the buckets once per query
/// (see [`CompositeQosApi::levels_into`](crate::CompositeQosApi::levels_into))
/// get bit-identical answers without touching the managers again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketLevel {
    /// Currently reserved amount.
    pub used: f64,
    /// Total capacity.
    pub capacity: f64,
}

impl BucketLevel {
    /// Amount still reservable (never negative, even when a re-rate left
    /// the bucket oversubscribed).
    pub fn available(&self) -> f64 {
        (self.capacity - self.used).max(0.0)
    }

    /// Fill level if `amount` more were reserved: the bucket's term in
    /// Eq. (1).
    pub fn fill_with(&self, amount: f64) -> f64 {
        (self.used + amount) / self.capacity
    }

    /// Whether `amount` can be reserved right now. Malformed demands
    /// (negative, NaN, infinite) never can.
    pub fn can_reserve(&self, amount: f64) -> bool {
        amount >= 0.0 && amount.is_finite() && amount <= self.available() + 1e-9
    }
}

/// Tracks capacity and reservations for one resource bucket.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    key: ResourceKey,
    capacity: f64,
    used: f64,
    leases: BTreeMap<LeaseId, f64>,
    next_lease: u64,
}

impl ResourceManager {
    /// Creates a manager for `key` with the given capacity.
    pub fn new(key: ResourceKey, capacity: f64) -> Self {
        assert!(capacity > 0.0 && capacity.is_finite(), "capacity must be positive");
        ResourceManager { key, capacity, used: 0.0, leases: BTreeMap::new(), next_lease: 0 }
    }

    /// The bucket this manager owns.
    pub fn key(&self) -> ResourceKey {
        self.key
    }

    /// Total capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Currently reserved amount.
    pub fn used(&self) -> f64 {
        self.used
    }

    /// The bucket's current `(used, capacity)`.
    pub(crate) fn level(&self) -> BucketLevel {
        BucketLevel { used: self.used, capacity: self.capacity }
    }

    /// Amount still reservable.
    pub fn available(&self) -> f64 {
        self.level().available()
    }

    /// Fraction of capacity in use — the bucket's fill level in the LRB
    /// picture (Fig 3).
    pub fn fill(&self) -> f64 {
        self.used / self.capacity
    }

    /// Fill level if `amount` more were reserved (may exceed 1.0, which
    /// admission rejects).
    pub fn fill_with(&self, amount: f64) -> f64 {
        self.level().fill_with(amount)
    }

    /// Number of outstanding leases.
    pub fn lease_count(&self) -> usize {
        self.leases.len()
    }

    /// Whether `amount` can be reserved. Malformed demands (negative, NaN,
    /// infinite) are never reservable — admission paths feed this straight
    /// from plan resource vectors, so garbage must bounce as a rejection
    /// rather than corrupt `used`.
    pub fn can_reserve(&self, amount: f64) -> bool {
        self.level().can_reserve(amount)
    }

    /// Reserves `amount`, returning a lease. Malformed (negative/non-finite)
    /// amounts are reported as a typed rejection, not a panic: they are
    /// reachable from the admission path via plan resource vectors.
    pub fn reserve(&mut self, amount: f64) -> Result<LeaseId, BucketFull> {
        if !self.can_reserve(amount) {
            return Err(BucketFull {
                key: self.key,
                requested: amount,
                available: self.available(),
            });
        }
        let id = LeaseId(self.next_lease);
        self.next_lease += 1;
        self.leases.insert(id, amount);
        self.used += amount;
        Ok(id)
    }

    /// Releases a lease. Unknown leases are a no-op (idempotent release).
    pub fn release(&mut self, lease: LeaseId) {
        if let Some(amount) = self.leases.remove(&lease) {
            self.used = (self.used - amount).max(0.0);
        }
    }

    /// Adjusts an existing lease to a new amount (renegotiation on one
    /// bucket). On failure the lease is unchanged.
    pub fn adjust(&mut self, lease: LeaseId, new_amount: f64) -> Result<(), BucketFull> {
        if !(new_amount >= 0.0 && new_amount.is_finite()) {
            // Same rationale as `reserve`: renegotiation demands come from
            // plan arithmetic, so malformed values reject instead of panic.
            return Err(BucketFull {
                key: self.key,
                requested: new_amount,
                available: self.available(),
            });
        }
        let Some(&old) = self.leases.get(&lease) else {
            return Err(BucketFull {
                key: self.key,
                requested: new_amount,
                available: self.available(),
            });
        };
        let delta = new_amount - old;
        if delta > self.available() + 1e-9 {
            return Err(BucketFull {
                key: self.key,
                requested: new_amount,
                available: self.available() + old,
            });
        }
        self.leases.insert(lease, new_amount);
        self.used = (self.used + delta).max(0.0);
        Ok(())
    }

    /// Re-rates the bucket to a new total capacity (link degradation /
    /// recovery). Existing leases are untouched: shrinking below `used`
    /// leaves the bucket oversubscribed (`fill() > 1`), which only blocks
    /// *new* admissions — the paper's model degrades in-flight sessions via
    /// renegotiation, not forced eviction.
    ///
    /// # Panics
    /// Panics if `capacity` is non-positive or non-finite, mirroring
    /// [`ResourceManager::new`]: capacities come from operator-side
    /// topology/fault declarations, not the admission path.
    pub fn set_capacity(&mut self, capacity: f64) {
        assert!(capacity > 0.0 && capacity.is_finite(), "capacity must be positive");
        self.capacity = capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;
    use quasaq_sim::ServerId;

    fn mgr(cap: f64) -> ResourceManager {
        ResourceManager::new(ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth), cap)
    }

    #[test]
    fn reserve_and_release() {
        let mut m = mgr(100.0);
        let a = m.reserve(40.0).unwrap();
        assert_eq!(m.used(), 40.0);
        assert_eq!(m.available(), 60.0);
        assert!((m.fill() - 0.4).abs() < 1e-12);
        m.release(a);
        assert_eq!(m.used(), 0.0);
        assert_eq!(m.lease_count(), 0);
    }

    #[test]
    fn over_reservation_rejected() {
        let mut m = mgr(100.0);
        m.reserve(80.0).unwrap();
        let err = m.reserve(30.0).unwrap_err();
        assert_eq!(err.requested, 30.0);
        assert!((err.available - 20.0).abs() < 1e-9);
        // State unchanged after failure.
        assert_eq!(m.used(), 80.0);
    }

    #[test]
    fn release_is_idempotent() {
        let mut m = mgr(100.0);
        let a = m.reserve(50.0).unwrap();
        m.release(a);
        m.release(a);
        assert_eq!(m.used(), 0.0);
    }

    #[test]
    fn fill_with_projects_demand() {
        let mut m = mgr(100.0);
        m.reserve(42.0).unwrap();
        assert!((m.fill_with(10.0) - 0.52).abs() < 1e-12);
        // Projection can exceed 1.0; admission is the caller's decision.
        assert!(m.fill_with(90.0) > 1.0);
    }

    #[test]
    fn adjust_up_and_down() {
        let mut m = mgr(100.0);
        let a = m.reserve(30.0).unwrap();
        m.adjust(a, 60.0).unwrap();
        assert_eq!(m.used(), 60.0);
        m.adjust(a, 10.0).unwrap();
        assert_eq!(m.used(), 10.0);
        // Adjust beyond capacity fails and leaves the lease intact.
        assert!(m.adjust(a, 200.0).is_err());
        assert_eq!(m.used(), 10.0);
    }

    #[test]
    fn adjust_unknown_lease_fails() {
        let mut m = mgr(100.0);
        assert!(m.adjust(LeaseId(99), 10.0).is_err());
    }

    #[test]
    fn zero_reservation_allowed() {
        let mut m = mgr(100.0);
        let a = m.reserve(0.0).unwrap();
        assert_eq!(m.used(), 0.0);
        m.release(a);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = mgr(0.0);
    }

    #[test]
    fn malformed_amounts_reject_instead_of_panicking() {
        let mut m = mgr(100.0);
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!m.can_reserve(bad));
            assert!(m.reserve(bad).is_err(), "reserve({bad}) must reject");
            assert_eq!(m.used(), 0.0, "failed reserve must not corrupt usage");
        }
        let a = m.reserve(10.0).unwrap();
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(m.adjust(a, bad).is_err(), "adjust({bad}) must reject");
            assert_eq!(m.used(), 10.0, "failed adjust must leave the lease intact");
        }
    }

    #[test]
    fn set_capacity_rerates_without_touching_leases() {
        let mut m = mgr(100.0);
        let a = m.reserve(60.0).unwrap();
        m.set_capacity(50.0);
        assert_eq!(m.capacity(), 50.0);
        assert_eq!(m.used(), 60.0);
        assert!(m.fill() > 1.0, "shrink below used oversubscribes");
        assert!(!m.can_reserve(1.0));
        m.set_capacity(200.0);
        assert!(m.can_reserve(100.0));
        m.release(a);
        assert_eq!(m.used(), 0.0);
    }
}
