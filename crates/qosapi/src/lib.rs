//! # quasaq-qosapi — the Composite QoS API substrate
//!
//! The paper builds its low-level QoS control on the GARA middleware
//! (per-resource managers, with DSRT as the CPU scheduler) and wraps it in
//! a *Composite QoS API* that "hides implementation and access details of
//! underlying APIs (i.e. system and network)" and provides admission
//! control, resource reservation, and renegotiation. This crate is that
//! layer:
//!
//! * [`resource`] — resource kinds, per-server buckets, and
//!   [`ResourceVector`]s (the unit of plan cost in QuaSAQ).
//! * [`manager`] — one [`manager::ResourceManager`] per bucket with
//!   leases.
//! * [`composite`] — [`CompositeQosApi`]: atomic multi-bucket
//!   reservations, admission checks, the LRB fill projection of Eq. (1),
//!   and atomic renegotiation.

pub mod composite;
pub mod manager;
pub mod resource;

pub use composite::{AdmissionError, CompositeQosApi, ReservationId};
pub use manager::{BucketFull, BucketLevel, LeaseId, ResourceManager};
pub use resource::{ResourceKey, ResourceKind, ResourceVector};
