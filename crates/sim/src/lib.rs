//! Deterministic discrete-event simulation of a distributed-memory machine.
//!
//! The paper's experiments ran on 32 processors of an IBM SP with MPI.
//! What its scheduling strategies actually react to is not the hardware
//! but the *asynchrony*: memory-state messages arrive late, slave tasks
//! land while a subtree is mid-peak, masters make decisions on stale
//! views (Figure 5). This crate reproduces exactly that, deterministically:
//!
//! * [`engine`] — a virtual clock and event queue with FIFO tie-breaking,
//!   so every run is exactly reproducible;
//! * [`network`] — a latency + bandwidth message model;
//! * [`fault`] — seeded deterministic perturbations (jitter, delay,
//!   status-message loss, stragglers) for robustness experiments;
//! * [`memory`] — per-processor memory accounts (factors area + CB stack +
//!   active fronts) with running peaks, the measurement instrument
//!   behind every table of the reproduction;
//! * [`recorder`] — an opt-in structured flight recorder of scheduling
//!   events (decisions, memory movements, status traffic), one
//!   [`SchedEvent`] type from emission to replay;
//! * [`metrics`] — an always-on registry of run-wide counters and
//!   histograms;
//! * [`timeseries`] — periodic telemetry rows the run loop reads from
//!   the cores, kept whole per processor and exported as JSONL;
//! * [`audit`] — replays a recording and verifies the protocol's
//!   conservation and ordering invariants as typed findings;
//! * [`perfetto`] / [`attribution`] — exporters that turn a recording
//!   into a Chrome/Perfetto trace and a peak-attribution report.
//!
//! The multifrontal-specific state machines live in `mf-core`; this crate
//! is solver-agnostic and independently testable.

#![warn(missing_docs)]
pub mod attribution;
pub mod audit;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod metrics;
pub mod network;
pub mod perfetto;
pub mod recorder;
pub mod timeseries;

pub use attribution::{active_before, attribute_peaks, LiveItem, PeakAttribution};
pub use audit::{audit_recording, Finding};
pub use engine::{Block, Delivery, Event, EventPayload, Sim, Time};
pub use fault::{FaultInjector, FaultModel, MsgClass};
pub use memory::ProcMemory;
pub use metrics::{CoreMetrics, Histogram, ProcMetrics, RecoveryCounters, RunMetrics};
pub use network::NetworkModel;
pub use perfetto::write_chrome_trace;
pub use recorder::{
    id32, FrontClass, MemArea, Recording, SchedEvent, SlaveChoice, SlavePick, StatusKind, TaskRole,
};
pub use timeseries::{RunTimeseries, SampleRow};
