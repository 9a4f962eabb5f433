//! # quasaq-stream — streaming execution on the simulated testbed
//!
//! The Transport-API layer of the reproduction: it executes delivery
//! pipelines (retrieve → transcode → drop frames → encrypt → send) over
//! the simulation kernel's CPUs and links and records the measurements
//! the paper reports.
//!
//! * [`transforms`] — the per-session transform pipeline.
//! * [`schedule`] — resolved per-frame delivery plans with decode-order
//!   bursting (the source of the paper's intrinsic VBR jitter).
//! * [`cpumodel`] — concrete CPU model selection (time sharing vs DSRT).
//! * [`engine`] — the frame-level multi-server executor (Fig 5 /
//!   Table 2 fidelity).
//! * [`fluid`] — the byte-level session engine for throughput-scale
//!   experiments (Fig 6 / Fig 7).
//! * [`report`] — per-session inter-frame / inter-GOP delay measurements.

#![forbid(unsafe_code)]

pub mod cpumodel;
pub mod engine;
pub mod fluid;
pub mod report;
pub mod schedule;
pub mod transforms;

pub use cpumodel::{CpuKind, CpuModel};
pub use engine::{CpuPolicy, NodeConfig, SessionConfig, SessionError, SessionId, StreamEngine};
pub use fluid::{
    CongestionConfig, CongestionEdge, CongestionEvent, FluidDone, FluidEngine, FluidSessionId,
};
pub use report::{FrameRecord, SessionReport};
pub use schedule::{DispatchConfig, FrameSchedule, ScheduledFrame};
pub use transforms::Transforms;
