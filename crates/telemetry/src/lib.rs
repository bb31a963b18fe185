//! # rtr-telemetry — deterministic streaming time-series metrics plane
//!
//! End-of-run snapshots say *what* a run cost; they cannot say *when*
//! the cost was paid. The paper's whole argument — reconfiguration pays
//! only when its overhead is measured and amortized — is a claim about
//! trajectories, so this crate samples the stack while it runs: queue
//! depths, buffered bytes, region utilization, the measured
//! reconfiguration EWMA, cache hit rates, swap/steal/shed rates, and
//! per-lane tail latencies from bounded ring windows.
//!
//! The handle is built on `rtr-trace`'s per-shard stream substrate
//! (`rtr_trace::ShardStream`), the same registry, ring, sink and merge
//! code the trace journal runs on:
//!
//! * A [`Telemetry`] handle is a sibling of `Tracer`: cheaply cloneable,
//!   `Send`, [`Telemetry::disabled`] by default (every instrumentation
//!   point costs one branch when telemetry is off), fanned out per shard
//!   with [`Telemetry::with_shard`].
//! * Samples are stamped with a **tick** — simulated time divided by a
//!   fixed tick period — and deduplicated per `(shard, scope)` per tick,
//!   so the emission *rate* is bounded by the tick period no matter how
//!   busy the run is.
//! * Each shard's series streams to its own JSONL file
//!   (`{base}.shardNNN.tl.jsonl`) as rows are emitted, and
//!   [`Telemetry::merge_streams`] folds them into one file ordered by
//!   `(tick, shard, seq)` — a total order independent of thread
//!   interleaving, so equal seeds produce byte-identical telemetry at
//!   any thread count, exactly like the trace journals.
//!
//! Sampling is **read-only**: it never touches the simulated clock or
//! any model state, so a telemetry-off run is byte-identical to a build
//! without telemetry, and a telemetry-on run's snapshots are
//! byte-identical to a telemetry-off run's.

#![warn(missing_docs)]

mod handle;
mod row;

pub use handle::{Telemetry, DEFAULT_CAPACITY, DEFAULT_TICK_PS, LANE_WINDOW};
pub use row::{Gauge, GaugeKind, TelemetryRow};
