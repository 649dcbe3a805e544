//! BADCO — behavioral application-dependent core model.
//!
//! The paper's fast approximate simulator ("BADCO: behavioral
//! application-dependent superscalar core model", Velásquez, Michaud,
//! Seznec — SAMOS 2012). A BADCO model *emulates the external behaviour of
//! a core* — the way it talks to the uncore — without simulating internal
//! mechanisms. It is built per benchmark from **two detailed-simulation
//! training runs** and can then be plugged into the same shared uncore as
//! the detailed simulator to evaluate many uncore configurations quickly:
//!
//! 1. a run against an *ideal* uncore (every L1 miss served at the LLC hit
//!    latency) provides per-node execution weights,
//! 2. a run against a *pessimal* uncore (every L1 miss pays the full
//!    memory latency) reveals how much each node actually stalls on its
//!    upstream requests — nodes whose timing barely moved overlap their
//!    misses (MLP) and execute non-blocking.
//!
//! A model is a sequence of **nodes**: groups of µops ending at a µop that
//! issued an uncore request, annotated with the requests to (re)issue and
//! dependencies on earlier requests. Dependencies come from exact register
//! dataflow over the deterministic µop trace — where the original BADCO
//! must infer dependences from timing alone, this reproduction's traces
//! are white-box, so the dependence structure is computed exactly and the
//! second training run is used to decide which dependences actually stall
//! the pipeline (see `DESIGN.md` for this substitution).
//!
//! Multiprogram simulation connects one BADCO machine per core to the
//! shared [`mps_uncore::Uncore`] with time-ordered, round-robin-on-ties
//! arbitration, exactly mirroring the paper's setup.

pub mod machine;
pub mod model;
pub mod multicore;

pub use machine::BadcoMachine;
pub use model::{BadcoModel, BadcoTiming, ModelNode, ModelRequest};
pub use multicore::{BadcoMulticoreSim, BadcoSimResult};
