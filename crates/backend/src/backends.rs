//! The [`ExecBackend`] trait and its engine families.
//!
//! One implementation per execution engine of the paper's evaluation:
//!
//! * [`PerfectBackend`] — the zero-overhead list scheduler (roofline),
//! * [`SoftwareBackend`] — the Nanos++-like software runtime model,
//! * [`PicosBackend`] — the HIL platform around the Picos core, one
//!   instance per [`HilMode`],
//! * [`ClusterBackend`] — N Picos shards with distributed dependence
//!   management over an explicit interconnect (`picos_cluster`).
//!
//! [`BackendSpec`] is the declarative, copyable counterpart used by sweep
//! grids and command lines; [`BackendBuilder`] is the one construction
//! path from a spec to a boxed backend.

use crate::session::{feed_trace, SessionConfig, SessionOutput, SimSession};
use picos_cluster::{ClusterConfig, ClusterError, ClusterSession, FaultPlan, ShardPolicy};
use picos_core::{PicosConfig, Stats};
use picos_hil::{HilConfig, HilError, HilMode, HilSession, LinkModel};
use picos_runtime::{ExecReport, PerfectSession, SoftwareSession, SwError, SwRuntimeConfig};
use picos_trace::Trace;
use std::fmt;

/// Error from running a backend on a trace.
///
/// Every engine family folds its failure modes into this one type so sweep
/// cells and CLI commands handle them uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The HIL platform stalled (see [`HilError`]).
    Hil(HilError),
    /// The software runtime failed (see [`SwError`]).
    Software(SwError),
    /// The cluster model failed (see [`ClusterError`]).
    Cluster(ClusterError),
    /// Backend-specific configuration problem.
    Config(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Hil(e) => write!(f, "picos backend: {e}"),
            BackendError::Software(e) => write!(f, "software backend: {e}"),
            BackendError::Cluster(e) => write!(f, "cluster backend: {e}"),
            BackendError::Config(m) => write!(f, "backend configuration: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<HilError> for BackendError {
    fn from(e: HilError) -> Self {
        BackendError::Hil(e)
    }
}

impl From<SwError> for BackendError {
    fn from(e: SwError) -> Self {
        BackendError::Software(e)
    }
}

impl From<ClusterError> for BackendError {
    fn from(e: ClusterError) -> Self {
        BackendError::Cluster(e)
    }
}

/// A uniform execution engine: opens incremental, backpressure-aware
/// [`SimSession`]s.
///
/// The session is the primary interface — the runtime submits tasks as it
/// discovers them, handles [`Admission::Backpressured`](crate::Admission)
/// when the engine's in-flight window is saturated, advances simulated
/// time, drains lifecycle span events and finishes to collect the
/// report. The batch entry points [`ExecBackend::run`] /
/// [`ExecBackend::run_with_stats`] are **default methods** implemented on
/// top of a session (feed the whole trace, then finish), so every engine
/// has exactly one execution core.
///
/// All engines of the reproduction — hardware model, software runtime,
/// perfect scheduler, sharded cluster — implement this trait, which is
/// what lets the [`crate::Sweep`] harness, the figure binaries, the paced
/// driver ([`crate::pace`]) and the cross-engine tests treat them
/// interchangeably. Implementations must be `Send + Sync` (sweeps run
/// cells on OS threads) and deterministic: the same submissions and
/// configuration must yield the same report on every call.
pub trait ExecBackend: Send + Sync + fmt::Debug {
    /// Stable engine label (e.g. `"perfect"`, `"nanos"`, `"picos-full"`);
    /// matches the `engine` field of the reports this backend produces.
    fn name(&self) -> String;

    /// Number of workers this backend executes tasks with.
    fn workers(&self) -> usize;

    /// Opens a streaming session with explicit per-session knobs
    /// (in-flight window, event collection).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when the engine configuration is invalid
    /// (e.g. zero workers).
    fn open_with(&self, cfg: SessionConfig) -> Result<Box<dyn SimSession>, BackendError>;

    /// Opens a streaming session with batch-equivalent defaults
    /// (unbounded window, no event collection).
    ///
    /// # Errors
    ///
    /// See [`ExecBackend::open_with`].
    fn open(&self) -> Result<Box<dyn SimSession>, BackendError> {
        self.open_with(SessionConfig::batch())
    }

    /// Runs the trace to completion: opens a session, feeds every task in
    /// creation order (declaring the trace's taskwaits) and finishes it.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when the engine cannot complete the
    /// trace (stall, deadlock, invalid configuration).
    fn run(&self, trace: &Trace) -> Result<ExecReport, BackendError> {
        self.run_with_stats(trace).map(|(r, _)| r)
    }

    /// Runs the trace and also returns the hardware counters, when the
    /// backend models Picos. Like [`ExecBackend::run`], a session drive.
    ///
    /// # Errors
    ///
    /// Same as [`ExecBackend::run`].
    fn run_with_stats(&self, trace: &Trace) -> Result<(ExecReport, Option<Stats>), BackendError> {
        let mut session = self.open()?;
        feed_trace(&mut *session, trace).map_err(|e| BackendError::Config(e.to_string()))?;
        session.finish()
    }

    /// Runs the trace under explicit session knobs and returns everything
    /// the run produced — report, hardware counters, the cycle-windowed
    /// [`Timeline`](picos_metrics::Timeline) (when
    /// [`SessionConfig::timeline_window`] is set) and the labeled metrics
    /// registry. Telemetry is observation-only: the report and counters
    /// are bit-identical to [`ExecBackend::run_with_stats`].
    ///
    /// # Errors
    ///
    /// Same as [`ExecBackend::run`].
    fn run_with_telemetry(
        &self,
        trace: &Trace,
        cfg: SessionConfig,
    ) -> Result<SessionOutput, BackendError> {
        let mut session = self.open_with(cfg)?;
        feed_trace(&mut *session, trace).map_err(|e| BackendError::Config(e.to_string()))?;
        session.finish_full()
    }
}

/// The perfect simulator: zero-overhead list scheduling (paper Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfectBackend {
    /// Number of workers.
    pub workers: usize,
}

impl ExecBackend for PerfectBackend {
    fn name(&self) -> String {
        "perfect".into()
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn open_with(&self, cfg: SessionConfig) -> Result<Box<dyn SimSession>, BackendError> {
        // PerfectSession rejects zero workers; surface it as an error row
        // like the other backends so sweep cells never panic.
        PerfectSession::new(self.workers, cfg)
            .map(|s| Box::new(s) as Box<dyn SimSession>)
            .map_err(BackendError::Config)
    }
}

/// The Nanos++-like software runtime model (paper Section IV-C, Figure 10).
#[derive(Debug, Clone, Copy)]
pub struct SoftwareBackend {
    /// Runtime configuration (worker count, cost model).
    pub cfg: SwRuntimeConfig,
}

impl SoftwareBackend {
    /// Default software runtime with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        SoftwareBackend {
            cfg: SwRuntimeConfig::with_workers(workers),
        }
    }
}

impl ExecBackend for SoftwareBackend {
    fn name(&self) -> String {
        "nanos".into()
    }

    fn workers(&self) -> usize {
        self.cfg.workers
    }

    fn open_with(&self, cfg: SessionConfig) -> Result<Box<dyn SimSession>, BackendError> {
        SoftwareSession::new(self.cfg, cfg)
            .map(|s| Box::new(s) as Box<dyn SimSession>)
            .map_err(BackendError::from)
    }
}

/// The Picos HIL platform in one of its three modes (paper Section IV-B).
#[derive(Debug, Clone)]
pub struct PicosBackend {
    /// Operational mode (HW-only, HW+comm, Full-system).
    pub mode: HilMode,
    /// Platform configuration (Picos core config, workers, cost model).
    pub cfg: HilConfig,
}

impl PicosBackend {
    /// Balanced-configuration Picos platform with `workers` workers.
    pub fn balanced(mode: HilMode, workers: usize) -> Self {
        PicosBackend {
            mode,
            cfg: HilConfig::balanced(workers),
        }
    }
}

impl ExecBackend for PicosBackend {
    fn name(&self) -> String {
        self.mode.engine_label().into()
    }

    fn workers(&self) -> usize {
        self.cfg.workers
    }

    fn open_with(&self, cfg: SessionConfig) -> Result<Box<dyn SimSession>, BackendError> {
        HilSession::new(self.mode, self.cfg.clone(), cfg)
            .map(|s| Box::new(s) as Box<dyn SimSession>)
            .map_err(BackendError::Config)
    }
}

/// The sharded multi-Picos cluster (`picos_cluster`): N full accelerators
/// with address-sharded dependence management over an explicit
/// interconnect. A one-shard cluster is cycle-identical to
/// [`HilMode::HwOnly`].
#[derive(Debug, Clone)]
pub struct ClusterBackend {
    /// Complete cluster configuration (shards, placement policy, per-shard
    /// core, worker total, interconnect).
    pub cfg: ClusterConfig,
}

impl ClusterBackend {
    /// Balanced-core cluster of `shards` shards sharing `workers` workers.
    pub fn balanced(shards: usize, workers: usize) -> Self {
        ClusterBackend {
            cfg: ClusterConfig::balanced(shards, workers),
        }
    }
}

impl ExecBackend for ClusterBackend {
    fn name(&self) -> String {
        "cluster".into()
    }

    fn workers(&self) -> usize {
        self.cfg.workers
    }

    fn open_with(&self, cfg: SessionConfig) -> Result<Box<dyn SimSession>, BackendError> {
        ClusterSession::new(self.cfg.clone(), cfg)
            .map(|s| Box::new(s) as Box<dyn SimSession>)
            .map_err(BackendError::from)
    }
}

/// Declarative backend selector: which engine family a sweep cell or a CLI
/// invocation runs. `Copy`, orderable and parseable, unlike the boxed
/// backends it builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendSpec {
    /// Zero-overhead perfect scheduler.
    Perfect,
    /// Nanos++ software runtime.
    Nanos,
    /// Picos HIL platform in the given mode.
    Picos(HilMode),
    /// Sharded multi-Picos cluster with the given shard count.
    Cluster(usize),
}

impl BackendSpec {
    /// Every backend family, paper order: perfect, nanos, the three HIL
    /// modes from raw hardware to full system, then the one-shard cluster
    /// (the sharded model's degenerate point, cycle-identical to HW-only).
    pub const ALL: [BackendSpec; 6] = [
        BackendSpec::Perfect,
        BackendSpec::Nanos,
        BackendSpec::Picos(HilMode::HwOnly),
        BackendSpec::Picos(HilMode::HwComm),
        BackendSpec::Picos(HilMode::FullSystem),
        BackendSpec::Cluster(1),
    ];

    /// The three Picos HIL modes only.
    pub const PICOS_ALL: [BackendSpec; 3] = [
        BackendSpec::Picos(HilMode::HwOnly),
        BackendSpec::Picos(HilMode::HwComm),
        BackendSpec::Picos(HilMode::FullSystem),
    ];

    /// Stable label; equals the `engine` field of the reports the built
    /// backend produces.
    pub fn label(self) -> &'static str {
        match self {
            BackendSpec::Perfect => "perfect",
            BackendSpec::Nanos => "nanos",
            BackendSpec::Picos(mode) => mode.engine_label(),
            BackendSpec::Cluster(_) => "cluster",
        }
    }

    /// Whether this spec builds a Picos hardware backend (and therefore
    /// responds to the DM design / instance-count axes of a sweep).
    pub fn is_picos(self) -> bool {
        matches!(self, BackendSpec::Picos(_))
    }

    /// Whether this spec builds its engine around the Picos core and
    /// therefore responds to the DM design / instance-count axes of a
    /// sweep (the HIL backends and the cluster, whose shards each embed a
    /// full core configuration).
    pub fn uses_picos_config(self) -> bool {
        matches!(self, BackendSpec::Picos(_) | BackendSpec::Cluster(_))
    }

    /// Shard count of this spec: the cluster's configured count, 1 for
    /// every single-accelerator family (the `shards` column of result
    /// files).
    pub fn shards(self) -> usize {
        match self {
            BackendSpec::Cluster(n) => n,
            _ => 1,
        }
    }

    /// Parses a backend name as used by the CLI: the short engine names
    /// (`perfect`, `nanos`, `hw-only`, `hw-comm`, `full`, `cluster`) and
    /// the report labels (`picos-hw-only`, ...) are both accepted; `hil`
    /// is an alias for the full HIL platform (`picos-full`). `cluster`
    /// parses to one shard; shard counts are a separate axis (`--shards`,
    /// [`Sweep`](crate::Sweep) backends list).
    pub fn parse(s: &str) -> Option<BackendSpec> {
        match s {
            "perfect" => Some(BackendSpec::Perfect),
            "nanos" | "software" => Some(BackendSpec::Nanos),
            "hw-only" | "picos-hw-only" => Some(BackendSpec::Picos(HilMode::HwOnly)),
            "hw-comm" | "picos-hw-comm" => Some(BackendSpec::Picos(HilMode::HwComm)),
            "full" | "picos-full" | "picos" | "hil" => {
                Some(BackendSpec::Picos(HilMode::FullSystem))
            }
            "cluster" => Some(BackendSpec::Cluster(1)),
            _ => None,
        }
    }

    /// Starts the one construction path from a spec to a boxed backend;
    /// refine with the [`BackendBuilder`] methods and finish with
    /// [`BackendBuilder::build`]. The CLI and the sweep harness both build
    /// through here, so they cannot drift.
    pub fn builder(self, workers: usize) -> BackendBuilder {
        BackendBuilder {
            spec: self,
            workers,
            picos: None,
            link: None,
            policy: None,
            faults: None,
        }
    }

    /// Builds the boxed backend for a concrete worker count and Picos core
    /// configuration (ignored by the non-Picos families), with the default
    /// inter-shard interconnect for the cluster family.
    pub fn build(self, workers: usize, picos: &PicosConfig) -> Box<dyn ExecBackend> {
        self.builder(workers).picos(picos).build()
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The single builder behind every [`BackendSpec`] construction: worker
/// count plus the optional Picos core configuration, interconnect model
/// and cluster placement policy. Knobs a family does not use are ignored,
/// so one code path serves the CLI, the sweep harness and the tests.
#[derive(Debug, Clone)]
pub struct BackendBuilder {
    spec: BackendSpec,
    workers: usize,
    picos: Option<PicosConfig>,
    link: Option<LinkModel>,
    policy: Option<ShardPolicy>,
    faults: Option<FaultPlan>,
}

impl BackendBuilder {
    /// Sets the Picos core configuration (HIL and cluster families; the
    /// balanced configuration when unset).
    pub fn picos(mut self, cfg: &PicosConfig) -> Self {
        self.picos = Some(cfg.clone());
        self
    }

    /// Sets the inter-shard interconnect cost model (cluster family;
    /// `None` keeps the default interconnect).
    pub fn link(mut self, link: Option<LinkModel>) -> Self {
        self.link = link;
        self
    }

    /// Sets the task-placement policy (cluster family; `None` keeps the
    /// default).
    pub fn policy(mut self, policy: Option<ShardPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Formerly the cluster family's simulation thread count. The cluster
    /// now runs on one thread and picks its own drive, so the argument is
    /// ignored.
    #[deprecated(note = "the cluster runs on one thread; the argument is ignored")]
    pub fn threads(self, _threads: Option<usize>) -> Self {
        self
    }

    /// Attaches a deterministic fault schedule (cluster family; the other
    /// families have no interconnect to fault and ignore it, like the
    /// link/policy knobs). A zero-fault plan is bit-identical to
    /// `None`; an invalid plan surfaces as a configuration error when the
    /// session opens.
    pub fn faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Builds the boxed backend.
    pub fn build(self) -> Box<dyn ExecBackend> {
        let picos = self.picos.unwrap_or_else(PicosConfig::balanced);
        match self.spec {
            BackendSpec::Perfect => Box::new(PerfectBackend {
                workers: self.workers,
            }),
            BackendSpec::Nanos => Box::new(SoftwareBackend::with_workers(self.workers)),
            BackendSpec::Picos(mode) => Box::new(PicosBackend {
                mode,
                cfg: HilConfig {
                    picos,
                    ..HilConfig::balanced(self.workers)
                },
            }),
            BackendSpec::Cluster(shards) => {
                let mut cfg = ClusterConfig {
                    picos,
                    ..ClusterConfig::balanced(shards, self.workers)
                };
                if let Some(link) = self.link {
                    cfg.link = link;
                }
                if let Some(policy) = self.policy {
                    cfg.policy = policy;
                }
                cfg.faults = self.faults;
                Box::new(ClusterBackend { cfg })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_trace::gen;

    #[test]
    fn labels_match_report_engine_field() {
        let tr = gen::synthetic(gen::Case::Case1);
        for spec in BackendSpec::ALL {
            let b = spec.build(4, &PicosConfig::balanced());
            let r = b.run(&tr).unwrap();
            assert_eq!(r.engine, spec.label(), "{spec:?}");
            assert_eq!(b.name(), spec.label());
            assert_eq!(b.workers(), 4);
            assert_eq!(r.workers, 4);
        }
    }

    #[test]
    fn parse_accepts_cli_and_report_names() {
        assert_eq!(BackendSpec::parse("perfect"), Some(BackendSpec::Perfect));
        assert_eq!(BackendSpec::parse("nanos"), Some(BackendSpec::Nanos));
        for spec in BackendSpec::ALL {
            assert_eq!(BackendSpec::parse(spec.label()), Some(spec));
        }
        assert_eq!(
            BackendSpec::parse("full"),
            Some(BackendSpec::Picos(HilMode::FullSystem))
        );
        assert_eq!(BackendSpec::parse("bogus"), None);
    }

    #[test]
    fn stats_only_from_picos() {
        let tr = gen::synthetic(gen::Case::Case2);
        let cfg = PicosConfig::balanced();
        let (_, stats) = BackendSpec::Perfect
            .build(4, &cfg)
            .run_with_stats(&tr)
            .unwrap();
        assert!(stats.is_none());
        let (_, stats) = BackendSpec::Picos(HilMode::HwOnly)
            .build(4, &cfg)
            .run_with_stats(&tr)
            .unwrap();
        let stats = stats.expect("picos reports hardware counters");
        assert_eq!(stats.tasks_completed as usize, tr.len());
    }

    #[test]
    fn zero_workers_errors_on_every_backend() {
        // Every family must report zero workers as an error row input, not
        // panic (the sweep harness promises cells never panic).
        let tr = gen::synthetic(gen::Case::Case1);
        for spec in BackendSpec::ALL {
            let r = spec.build(0, &PicosConfig::balanced()).run(&tr);
            assert!(
                matches!(
                    r,
                    Err(BackendError::Config(_))
                        | Err(BackendError::Software(_))
                        | Err(BackendError::Cluster(_))
                ),
                "{spec}: zero workers must be an error, got {r:?}"
            );
        }
    }

    #[test]
    fn error_display_covers_variants() {
        let e = BackendError::Config("bad".into());
        assert!(e.to_string().contains("bad"));
        let e: BackendError = SwError::Config("zero workers".into()).into();
        assert!(e.to_string().contains("zero workers"));
        let e: BackendError = ClusterError::Config("shardless".into()).into();
        assert!(e.to_string().contains("shardless"));
    }

    #[test]
    fn cluster_spec_shards_and_axes() {
        assert_eq!(BackendSpec::Cluster(4).shards(), 4);
        assert_eq!(BackendSpec::Perfect.shards(), 1);
        assert_eq!(BackendSpec::Cluster(4).label(), "cluster");
        assert!(BackendSpec::Cluster(4).uses_picos_config());
        assert!(!BackendSpec::Cluster(4).is_picos());
        assert!(BackendSpec::Picos(HilMode::HwOnly).uses_picos_config());
        assert_eq!(BackendSpec::parse("cluster"), Some(BackendSpec::Cluster(1)));
    }

    #[test]
    fn cluster_backend_reports_merged_hw_counters() {
        let tr = gen::synthetic(gen::Case::Case2);
        let (r, stats) = BackendSpec::Cluster(2)
            .build(4, &PicosConfig::balanced())
            .run_with_stats(&tr)
            .unwrap();
        let stats = stats.expect("cluster reports hardware counters");
        assert_eq!(stats.tasks_completed as usize, tr.len());
        assert_eq!(r.engine, "cluster");
        r.validate(&tr).unwrap();
    }

    #[test]
    fn builder_sets_cluster_policy_and_link() {
        let slow = LinkModel {
            occupancy: 5_000,
            latency: 9_000,
            setup: 0,
            width: 1,
        };
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let fast = BackendSpec::Cluster(4)
            .builder(8)
            .policy(Some(ShardPolicy::RoundRobin))
            .build()
            .run(&tr)
            .unwrap();
        let slowed = BackendSpec::Cluster(4)
            .builder(8)
            .policy(Some(ShardPolicy::RoundRobin))
            .link(Some(slow))
            .build()
            .run(&tr)
            .unwrap();
        assert!(slowed.makespan > fast.makespan, "link knob must bite");
        // Non-cluster families ignore the cluster knobs.
        let a = BackendSpec::Perfect.builder(4).build().run(&tr).unwrap();
        let b = BackendSpec::Perfect
            .builder(4)
            .link(Some(slow))
            .policy(Some(ShardPolicy::RoundRobin))
            .build()
            .run(&tr)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn builder_faults_knob_zero_plan_is_identity_and_faulty_runs_terminate() {
        let tr = gen::stream(gen::StreamConfig::heavy(200));
        let base = BackendSpec::Cluster(4)
            .builder(8)
            .build()
            .run_with_stats(&tr)
            .unwrap();
        let zero = BackendSpec::Cluster(4)
            .builder(8)
            .faults(Some(FaultPlan::new(11)))
            .build()
            .run_with_stats(&tr)
            .unwrap();
        assert_eq!(base, zero, "zero-fault plan must be bit-identical");
        // A lossy link either completes (retries absorbed the drops) or
        // surfaces the typed timeout — never a stall or a panic.
        let faulty = BackendSpec::Cluster(4)
            .builder(8)
            .faults(Some(FaultPlan::new(7).with_drop_rate(0.2)))
            .build()
            .run(&tr);
        match faulty {
            Ok(r) => r.validate(&tr).unwrap(),
            Err(BackendError::Cluster(ClusterError::LinkTimeout { .. })) => {}
            other => panic!("faulted run must terminate typed, got {other:?}"),
        }
        // Non-cluster families ignore the knob.
        let a = BackendSpec::Perfect.builder(4).build().run(&tr).unwrap();
        let b = BackendSpec::Perfect
            .builder(4)
            .faults(Some(FaultPlan::new(1).with_drop_rate(0.5)))
            .build()
            .run(&tr)
            .unwrap();
        assert_eq!(a, b);
        // An invalid plan is a configuration error at open, not a panic.
        let err = BackendSpec::Cluster(2)
            .builder(4)
            .faults(Some(FaultPlan::new(1).with_drop_rate(1.5)))
            .build()
            .run(&tr)
            .unwrap_err();
        assert!(
            matches!(err, BackendError::Cluster(ClusterError::Config(_))),
            "bad plan must surface as config error, got {err:?}"
        );
    }

    #[test]
    fn open_sessions_are_live_across_backends() {
        // Open a session on every family, submit a couple of tasks and
        // finish: the streamed result must match the batch run.
        let tr = gen::synthetic(gen::Case::Case1);
        for spec in BackendSpec::ALL {
            let b = spec.build(4, &PicosConfig::balanced());
            let batch = b.run_with_stats(&tr).unwrap();
            let mut s = b.open().unwrap();
            feed_trace(&mut *s, &tr).unwrap();
            let streamed = s.finish().unwrap();
            assert_eq!(batch, streamed, "{spec}");
        }
    }
}
