//! [`StudyBuilder`]: the single documented entry point for configuring a
//! [`StudyContext`] (API v1).
//!
//! Every run knob lives here — scale, jobs, store, resume,
//! isolation budget (timeout/retries) and distribution (workers,
//! listen address, lease TTL):
//!
//! ```no_run
//! use mps_harness::{Scale, StudyContext};
//!
//! let ctx = StudyContext::builder()
//!     .scale(Scale::small())
//!     .jobs(8)
//!     .store("study-store")
//!     .resume(true)
//!     .workers(4)
//!     .build()?;
//! # Ok::<(), mps_harness::Error>(())
//! ```
//!
//! Every knob has a default (`Scale::default()`, `MPS_JOBS`/available
//! parallelism, no store, no resume, no distribution), so
//! `StudyContext::builder().build()` is a valid minimal call. `build`
//! only fails when a *requested* store directory cannot be opened or a
//! requested coordinator cannot start — an in-memory context never
//! fails.

use crate::dist::{Coordinator, DistOptions};
use crate::runner::StudyContext;
use crate::scale::Scale;
use mps_store::{Error, Store};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configures and constructs a [`StudyContext`]. See the
/// [module docs](self) for the full story.
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct StudyBuilder {
    scale: Option<Scale>,
    jobs: Option<usize>,
    store: Option<PathBuf>,
    resume: bool,
    timeout: Option<Duration>,
    retries: u32,
    workers: usize,
    dist_addr: Option<String>,
    lease_ttl: Option<Duration>,
}

impl StudyBuilder {
    /// Starts from all defaults (equivalent to
    /// [`StudyContext::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The scaling preset (default: [`Scale::default`], i.e. `small`).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Worker threads for parallel builds and resampling (default:
    /// `MPS_JOBS`, else the machine's available parallelism). Values are
    /// clamped to at least 1.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Attaches a persistent artifact store rooted at `path` (created if
    /// absent). Expensive artifacts are then loaded-or-computed across
    /// processes, and experiment grids checkpoint their progress there.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Detaches any previously requested store (used by `--no-store` to
    /// override `MPS_STORE`).
    pub fn no_store(mut self) -> Self {
        self.store = None;
        self
    }

    /// Whether experiment grids resume from checkpoint logs left by an
    /// interrupted run (default: `false`, which truncates stale logs).
    /// Only meaningful together with [`Self::store`].
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Wall-clock budget per isolated experiment attempt (`--timeout`;
    /// default: none). Read back via
    /// [`StudyContext::isolate_options`].
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Extra attempts after a failed isolated experiment (`--retries`;
    /// default: 0 = fail fast).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Spawns `workers` local worker processes and shards experiment
    /// grids across them (default: 0 = single-process). Requires
    /// [`Self::store`] — the store is the coordinator/worker result
    /// exchange. See `docs/distributed.md`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Listens on `addr` for remote `mps-harness worker --connect`
    /// processes (default: loopback, ephemeral port). Setting an address
    /// starts a coordinator even with zero local workers.
    pub fn dist_addr(mut self, addr: impl Into<String>) -> Self {
        self.dist_addr = Some(addr.into());
        self
    }

    /// Lease time-to-live for distributed cells (default:
    /// [`crate::dist::DEFAULT_LEASE_TTL`]). A worker that stops renewing
    /// for this long is considered dead and its cell is re-issued.
    pub fn lease_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = Some(ttl);
        self
    }

    /// Builds the context (and, when distribution was requested, starts
    /// its coordinator and local workers).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when a requested store directory cannot be created
    /// or opened, or a coordinator cannot bind/spawn;
    /// [`Error::InvalidInput`] when `resume` or distribution is
    /// requested without a store (a resume without persisted state is a
    /// silent fresh run — refused so the caller notices).
    pub fn build(self) -> Result<StudyContext, Error> {
        let store = match &self.store {
            Some(path) => Some(Arc::new(Store::open(path)?)),
            None => {
                if self.resume {
                    return Err(Error::InvalidInput(
                        "resume requires an artifact store (set .store(path) or --store)"
                            .to_owned(),
                    ));
                }
                None
            }
        };
        let mut ctx = StudyContext::assemble(
            self.scale.unwrap_or_default(),
            self.jobs.unwrap_or_else(mps_par::default_jobs),
            store,
            self.resume,
        );
        ctx.timeout = self.timeout;
        ctx.retries = self.retries;
        if self.workers > 0 || self.dist_addr.is_some() {
            let opts = DistOptions {
                workers: self.workers,
                addr: self
                    .dist_addr
                    .clone()
                    .unwrap_or_else(|| "127.0.0.1:0".to_owned()),
                explicit_addr: self.dist_addr.is_some(),
                lease_ttl: self.lease_ttl.unwrap_or(crate::dist::DEFAULT_LEASE_TTL),
            };
            let coordinator = Coordinator::start(&ctx, &opts)?;
            ctx.dist
                .set(coordinator)
                .expect("freshly assembled context has no coordinator");
        }
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_in_memory_context() {
        let ctx = StudyBuilder::new().build().unwrap();
        assert_eq!(ctx.scale, Scale::default());
        assert!(ctx.jobs() >= 1);
        assert!(ctx.store().is_none());
        assert!(!ctx.resume());
    }

    #[test]
    fn resume_without_store_is_refused() {
        let err = StudyBuilder::new().resume(true).build().unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)), "{err}");
    }

    #[test]
    fn store_and_resume_round_trip() {
        let dir = std::env::temp_dir().join(format!("mps-builder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = StudyContext::builder()
            .scale(Scale::test())
            .jobs(2)
            .store(&dir)
            .resume(true)
            .build()
            .unwrap();
        assert!(ctx.store().is_some());
        assert!(ctx.resume());
        assert_eq!(ctx.jobs(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_store_overrides_earlier_store() {
        let ctx = StudyBuilder::new()
            .store("ignored")
            .no_store()
            .build()
            .unwrap();
        assert!(ctx.store().is_none());
    }
}
