//! `mps-obs` — observability for the whole workspace: cheap monotonic
//! counters, span timers and a structured JSONL event sink, all compiled
//! to no-ops unless the `obs` cargo feature is on.
//!
//! # Model
//!
//! * A **counter** is a named, process-global, monotonically increasing
//!   `u64` (one relaxed atomic add per update). Handles are `Copy` and can
//!   be stored in hot structs; looking one up by name takes a lock, so do
//!   it once at construction time, not per event.
//! * A **span** measures a named region of wall time. On finish it writes
//!   one JSONL record carrying name, parent span, start offset, duration
//!   and the nonzero *delta of every counter* over its lifetime. Nested
//!   spans attribute time and deltas *inclusively* to every open ancestor.
//!   The record is the only thing a span leaves, so a span is recorded
//!   only while a sink or the span tap is installed; otherwise it is inert
//!   and costs two uncontended lock checks.
//! * An **event** is a point-in-time JSONL record with free-form string
//!   fields; it replaces ad-hoc `println!` diagnostics.
//! * An **estimator** is a named streaming Welford accumulation whose
//!   snapshot carries the paper's §VII convergence diagnostics (running
//!   `cv`, CI half-width, achieved confidence, required `W = 8·cv²`).
//!
//! # Feature gating
//!
//! With the `obs` feature **off** (the default for this crate; the harness
//! and facade turn it on by default), every function below exists with the
//! same signature but does nothing: `Counter` and `Span` are zero-sized,
//! calls inline to nothing, and the criterion bench in `mps-bench`
//! (`obs_overhead`) verifies the cost is within noise of an uninstrumented
//! loop. This is what lets the simulators keep instrumentation in hot
//! paths unconditionally.
//!
//! # Sinks
//!
//! `set_sink_path` installs a JSONL sink (the harness `--trace FILE`
//! flag); `install_span_tap` buffers span records in memory for a
//! distributed worker to ship. [`analyze`] turns the records back into a
//! span tree with inclusive and exclusive times and counter totals.
//!
//! See `docs/observability.md` for naming conventions and the trace
//! format.

pub mod alloc;
pub mod analyze;
pub mod estimator;
pub mod jsonl;

#[cfg(feature = "obs")]
pub(crate) mod enabled;
#[cfg(feature = "obs")]
pub use enabled::{
    counter, counters_snapshot, drain_span_tap, estimator, estimators_snapshot, event, flush,
    install_span_tap, remove_span_tap, reset, set_sink_path, sink_installed, sink_line, span,
    Counter, Estimator, Span,
};

#[cfg(not(feature = "obs"))]
mod noop;
#[cfg(not(feature = "obs"))]
pub use noop::{
    counter, counters_snapshot, drain_span_tap, estimator, estimators_snapshot, event, flush,
    install_span_tap, remove_span_tap, reset, set_sink_path, sink_installed, sink_line, span,
    Counter, Estimator, Span,
};

/// Whether instrumentation is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}
