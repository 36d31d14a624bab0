//! The multi-tenant session registry and its deterministic fair scheduler.
//!
//! A [`Service`] owns many named tenants, each a journaled streaming
//! session over any [`BackendSpec`]. Ingest calls (`submit`, `barrier`,
//! `advance_to`) address tenants by name; simulation progress is driven by
//! [`Service::run_round`], which hands every tenant the same bounded
//! `step()` budget in registry order. Because a session's `step` refuses
//! to move the clock unless the session is ingest-blocked (window full,
//! barrier-gated) — the invariant pinned by the session-conformance suite —
//! the scheduler's extra steps are either no-ops or exactly the forced
//! advances a solo driver would have made, so every tenant's final report
//! is bit-identical to the same feed run alone, for any interleaving.
//!
//! Admission is layered: a per-tenant **quota** (service-level in-flight
//! cap, checked before the session sees the task, so rejected offers are
//! never journaled) on top of the engine's own backpressure **window**.
//! Every tenant rides a [`JournaledSession`]; with a
//! [`ServeConfig::journal_dir`] the service persists one journal per
//! tenant plus a manifest, and a restarted service replays them into
//! bit-exact live sessions.

use picos_backend::{
    Admission, BackendError, BackendSpec, ExecBackend, SessionConfig, SessionCore, SessionOutput,
    SimSession, Snapshot,
};
use picos_metrics::span::SpanEvent;
use picos_metrics::{MergeRule, MetricSet, SeriesSpec, Timeline, WindowSampler};
use picos_runtime::{replay_journal_tail, JournaledSession};
use picos_trace::{json_escape, parse_json, SessionJournal, TaskDescriptor, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::PathBuf;

/// FNV-1a hasher for the tenant-name index. Names are short and the
/// lookup sits on the per-submit hot path, where SipHash's per-call setup
/// dominates the hash itself; FNV-1a is a few nanoseconds for typical
/// names and the map is not exposed to untrusted key floods (opening a
/// tenant is quota-gated).
#[derive(Debug, Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type NameIndex = HashMap<String, usize, BuildHasherDefault<FnvHasher>>;

/// A tenant's session: any engine's boxed streaming session behind the
/// journaling wrapper, so the accepted input stream is always recorded.
pub type TenantSession = JournaledSession<Box<dyn SimSession>>;

/// Per-tenant session recipe: the backend family and the session knobs.
/// Serializable (manifest, wire protocol) and sufficient to rebuild the
/// tenant from its journal after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Backend family (and shard count, for the cluster).
    pub backend: BackendSpec,
    /// Worker count of the tenant's engine.
    pub workers: usize,
    /// Engine backpressure window ([`SessionConfig::window`]).
    pub window: Option<usize>,
    /// Service-level admission quota (in-flight cap checked before the
    /// session sees the task); [`ServeConfig::default_quota`] when unset.
    pub quota: Option<usize>,
    /// Cycle width of the engine's telemetry sampler, if any.
    pub timeline_window: Option<u64>,
    /// Whether the session records task-lifecycle spans (which
    /// [`Service::drain_events`] streams out while the tenant runs).
    pub trace_spans: bool,
}

impl TenantSpec {
    /// A spec with streaming defaults: no explicit window (the service
    /// windows the engine at the admission quota), no spans, no
    /// telemetry.
    pub fn new(backend: BackendSpec, workers: usize) -> Self {
        TenantSpec {
            backend,
            workers,
            window: None,
            quota: None,
            timeline_window: None,
            trace_spans: false,
        }
    }

    /// The session knobs this spec opens with.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            window: self.window,
            timeline_window: self.timeline_window,
            trace_spans: self.trace_spans,
        }
    }

    /// The session configuration the service actually opens under a
    /// given [`ServeConfig::default_quota`]: the window is capped at the
    /// effective admission quota, so a quota-saturated tenant is always
    /// ingest-blocked — and therefore steppable — for the scheduler.
    /// Solo-equivalence references must open with *this* configuration
    /// (a window is part of the tenant's timing semantics).
    pub fn effective_session_config(&self, default_quota: usize) -> SessionConfig {
        let quota = self.quota.unwrap_or(default_quota).max(1);
        let mut cfg = self.session_config();
        cfg.window = Some(cfg.window.unwrap_or(quota).min(quota));
        cfg
    }

    /// Builds the boxed backend (balanced Picos configuration).
    pub fn build_backend(&self) -> Box<dyn ExecBackend> {
        self.backend.builder(self.workers).build()
    }

    /// Renders the spec as a JSON object (manifest and wire form).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"backend\":\"{}\",\"shards\":{},\"workers\":{}",
            json_escape(self.backend.label()),
            self.backend.shards(),
            self.workers
        );
        if let Some(w) = self.window {
            out.push_str(&format!(",\"window\":{w}"));
        }
        if let Some(q) = self.quota {
            out.push_str(&format!(",\"quota\":{q}"));
        }
        if let Some(t) = self.timeline_window {
            out.push_str(&format!(",\"timeline_window\":{t}"));
        }
        if self.trace_spans {
            out.push_str(",\"trace_spans\":true");
        }
        out.push('}');
        out
    }

    /// Parses a spec from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_value(v: &Value) -> Result<TenantSpec, String> {
        let obj = v.as_obj().ok_or("tenant spec must be an object")?;
        let label = obj
            .get("backend")
            .and_then(Value::as_string)
            .ok_or("tenant spec needs a \"backend\" string")?;
        let mut backend =
            BackendSpec::parse(label).ok_or_else(|| format!("unknown backend {label:?}"))?;
        if let BackendSpec::Cluster(_) = backend {
            let shards = match obj.get("shards") {
                Some(s) => s.as_int().ok_or("\"shards\" must be an integer")? as usize,
                None => 1,
            };
            backend = BackendSpec::Cluster(shards.max(1));
        }
        let int = |key: &str| -> Result<Option<u64>, String> {
            match obj.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => v
                    .as_int()
                    .map(Some)
                    .ok_or_else(|| format!("\"{key}\" must be an integer")),
            }
        };
        let flag = |key: &str| matches!(obj.get(key), Some(Value::Bool(true)));
        Ok(TenantSpec {
            backend,
            workers: int("workers")?.ok_or("tenant spec needs \"workers\"")? as usize,
            window: int("window")?.map(|w| w as usize),
            quota: int("quota")?.map(|q| q as usize),
            timeline_window: int("timeline_window")?,
            trace_spans: flag("trace_spans"),
        })
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// See [`TenantSpec::from_value`].
    pub fn from_json(s: &str) -> Result<TenantSpec, String> {
        let v = parse_json(s).map_err(|e| e.to_string())?;
        TenantSpec::from_value(&v)
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission quota for tenants that do not set their own: maximum
    /// tasks in flight before `submit` returns
    /// [`SubmitOutcome::QuotaExceeded`].
    pub default_quota: usize,
    /// `step()` calls granted to each tenant per scheduler round.
    pub step_budget: u32,
    /// Maximum live tenants; `open` past this is rejected.
    pub max_tenants: usize,
    /// Cycle width of the per-tenant scrape timelines.
    pub scrape_window: u64,
    /// When set, journals and the tenant manifest are persisted here on
    /// [`Service::flush_journals`], and [`Service::new`] replays them.
    pub journal_dir: Option<PathBuf>,
    /// Automatic checkpoint cadence, in scheduler steps: after this many
    /// [`Service::run_round`] steps accumulate, every recoverable tenant
    /// is checkpointed ([`Service::checkpoint_all`]) — snapshot persisted,
    /// journal truncated to the post-snapshot tail — so restart recovery
    /// replays a bounded tail instead of the tenant's whole history.
    /// `None` (the default) checkpoints only on explicit request. Needs
    /// [`ServeConfig::journal_dir`] to take effect.
    pub checkpoint_every: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            default_quota: 1024,
            step_budget: 64,
            max_tenants: 4096,
            scrape_window: 1024,
            journal_dir: None,
            checkpoint_every: None,
        }
    }
}

/// Outcome of a service-level submission: the engine's admission verdict
/// with the quota layered in front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted (and journaled).
    Accepted,
    /// The engine's in-flight window pushed back; retry after the
    /// scheduler drains it (not journaled).
    Backpressured,
    /// The tenant's service-level quota is exhausted; retry after in-flight
    /// work completes (not journaled, never reaches the engine).
    QuotaExceeded,
}

impl SubmitOutcome {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            SubmitOutcome::Accepted => "accepted",
            SubmitOutcome::Backpressured => "backpressured",
            SubmitOutcome::QuotaExceeded => "quota",
        }
    }
}

/// A service-level failure, always scoped so one tenant's problem never
/// takes the process (or any other tenant) down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No tenant with this name.
    UnknownTenant(String),
    /// A live tenant already has this name.
    DuplicateTenant(String),
    /// Tenant names are 1..=64 chars of `[A-Za-z0-9._-]`, starting
    /// alphanumeric (they name journal files and wire frames).
    InvalidName(String),
    /// The registry is at [`ServeConfig::max_tenants`].
    TenantsFull(usize),
    /// The named tenant's engine failed (open, finish or replay). The
    /// tenant is gone; every other tenant is untouched.
    Tenant {
        /// The failing tenant.
        tenant: String,
        /// The engine's typed failure.
        error: BackendError,
    },
    /// Journal persistence or recovery I/O failed.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(n) => write!(f, "unknown tenant {n:?}"),
            ServeError::DuplicateTenant(n) => write!(f, "tenant {n:?} already open"),
            ServeError::InvalidName(n) => write!(
                f,
                "invalid tenant name {n:?} (want 1..=64 chars of [A-Za-z0-9._-], \
                 starting alphanumeric)"
            ),
            ServeError::TenantsFull(max) => write!(f, "tenant registry full ({max} live)"),
            ServeError::Tenant { tenant, error } => write!(f, "tenant {tenant:?}: {error}"),
            ServeError::Io(m) => write!(f, "serve I/O: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-tenant observable state, as returned by [`Service::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant session's current cycle.
    pub now: u64,
    /// Tasks admitted but not finished.
    pub in_flight: usize,
    /// The tenant's admission quota.
    pub quota: usize,
    /// Tasks accepted so far.
    pub submitted: u64,
    /// Offers rejected by the engine window.
    pub rejected_window: u64,
    /// Offers rejected by the service quota.
    pub rejected_quota: u64,
    /// Scheduler steps this tenant consumed.
    pub steps: u64,
}

/// One live tenant: the journaled session plus service-side accounting
/// and the scrape sampler (on the tenant's own clock).
#[derive(Debug)]
struct Tenant {
    name: String,
    spec: TenantSpec,
    quota: usize,
    /// Whether the manifest can rebuild this tenant (spec-built backends
    /// only; custom backends from [`Service::open_with`] cannot be
    /// reconstructed from JSON and are skipped by crash recovery).
    recoverable: bool,
    session: TenantSession,
    sampler: WindowSampler,
    /// Absolute index of the in-memory journal's first op: every op before
    /// it has been folded into a persisted checkpoint snapshot and dropped.
    /// Checkpoint cursors and journal files both speak absolute indices,
    /// so recovery replays exactly the ops the snapshot does not cover —
    /// even after a crash between the checkpoint and journal writes.
    journal_base: u64,
    submitted: u64,
    rejected_window: u64,
    rejected_quota: u64,
    steps: u64,
}

impl Tenant {
    /// Advances the scrape sampler to the tenant clock (one comparison
    /// when no window boundary was crossed).
    fn sample(&mut self) {
        let now = self.session.now();
        if !self.sampler.due(now) {
            return;
        }
        let vals = [
            self.session.in_flight() as u64,
            self.submitted,
            self.rejected_window + self.rejected_quota,
            self.steps,
        ];
        // Sparse advance: a tenant's clock can leap arbitrarily far in
        // one `advance_to`, and emitting every interior window would make
        // the scrape cost proportional to simulated time.
        self.sampler
            .advance_sparse(now, 64, |out| out.copy_from_slice(&vals));
    }

    /// Drains the scrape timeline accumulated so far.
    fn drain_timeline(&mut self) -> Timeline {
        self.sample();
        let now = self.session.now();
        let vals = [
            self.session.in_flight() as u64,
            self.submitted,
            self.rejected_window + self.rejected_quota,
            self.steps,
        ];
        self.sampler.drain(now, |out| out.copy_from_slice(&vals))
    }
}

/// The scrape snapshot: service-level gauges plus one drained timeline per
/// tenant (samples since the previous scrape).
#[derive(Debug, Clone, PartialEq)]
pub struct Scrape {
    /// Service gauges and counters under the `serve.` scope.
    pub service: MetricSet,
    /// Per-tenant drained timelines, registry order.
    pub tenants: Vec<(String, Timeline)>,
}

impl Scrape {
    /// Renders the scrape as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"service\":{},\"tenants\":[", self.service.to_json());
        for (i, (name, tl)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"timeline\":{}}}",
                json_escape(name),
                tl.to_json()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A stable digest of a schedule (FNV-1a over the order/start/end arrays):
/// lets a wire client check bit-exactness without shipping the schedule.
pub fn schedule_digest(report: &picos_runtime::ExecReport) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(report.makespan);
    for &t in &report.order {
        eat(t as u64);
    }
    for &c in &report.start {
        eat(c);
    }
    for &c in &report.end {
        eat(c);
    }
    h
}

/// Whether a tenant name is filesystem- and wire-safe.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= 64 && chars.all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

/// The multi-tenant service: a registry of named journaled sessions and
/// the deterministic round-robin scheduler over them.
#[derive(Debug)]
pub struct Service {
    cfg: ServeConfig,
    /// Registry order = round-robin order; recovery restores it from the
    /// manifest, so a restarted service schedules identically.
    ///
    /// Boxed so that `remove` on a mid-registry close shifts pointers,
    /// not multi-hundred-byte tenant states.
    #[allow(clippy::vec_box)]
    tenants: Vec<Box<Tenant>>,
    index: NameIndex,
    steps_scheduled: u64,
    steps_since_checkpoint: u64,
    admission_rejections: u64,
    opened_total: u64,
    closed_total: u64,
    failed_total: u64,
    peak_tenants: u64,
    checkpoints_total: u64,
    connections_refused: u64,
    recovery_errors: Vec<(String, String)>,
    checkpoint_errors: Vec<(String, String)>,
}

impl Service {
    /// A service under `cfg`. With a [`ServeConfig::journal_dir`] the
    /// directory is created and, when a manifest from a previous run
    /// exists, every journaled tenant is rebuilt and its journal replayed
    /// into a bit-exact live session (registry order preserved). A tenant
    /// that fails to replay is skipped and reported by
    /// [`Service::recovery_errors`] — recovery of the rest proceeds.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the journal directory cannot be
    /// created or the manifest is unreadable.
    pub fn new(cfg: ServeConfig) -> Result<Service, ServeError> {
        let mut svc = Service {
            cfg,
            tenants: Vec::new(),
            index: NameIndex::default(),
            steps_scheduled: 0,
            steps_since_checkpoint: 0,
            admission_rejections: 0,
            opened_total: 0,
            closed_total: 0,
            failed_total: 0,
            peak_tenants: 0,
            checkpoints_total: 0,
            connections_refused: 0,
            recovery_errors: Vec::new(),
            checkpoint_errors: Vec::new(),
        };
        if let Some(dir) = svc.cfg.journal_dir.clone() {
            std::fs::create_dir_all(&dir).map_err(|e| ServeError::Io(e.to_string()))?;
            let manifest = dir.join("tenants.json");
            if manifest.exists() {
                svc.recover(&dir)?;
            }
        }
        Ok(svc)
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Live tenant count.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenants are live.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Whether a tenant with this name is live.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Tenants dropped during crash recovery, with the reason.
    pub fn recovery_errors(&self) -> &[(String, String)] {
        &self.recovery_errors
    }

    /// Opens a tenant from a serializable spec (the crash-recoverable
    /// path: the manifest can rebuild it).
    ///
    /// # Errors
    ///
    /// Name, capacity or engine-configuration failures; the registry is
    /// unchanged on error.
    pub fn open(&mut self, name: &str, spec: &TenantSpec) -> Result<(), ServeError> {
        let backend = spec.build_backend();
        self.admit(name, &*backend, spec, true)
    }

    /// Opens a tenant over a caller-built backend (custom link models,
    /// fault plans, placement policies). Not crash-recoverable: the
    /// manifest cannot rebuild a custom backend, so recovery skips it.
    ///
    /// # Errors
    ///
    /// See [`Service::open`].
    pub fn open_with(
        &mut self,
        name: &str,
        backend: &dyn ExecBackend,
        spec: &TenantSpec,
    ) -> Result<(), ServeError> {
        self.admit(name, backend, spec, false)
    }

    fn admit(
        &mut self,
        name: &str,
        backend: &dyn ExecBackend,
        spec: &TenantSpec,
        recoverable: bool,
    ) -> Result<(), ServeError> {
        if !valid_name(name) {
            return Err(ServeError::InvalidName(name.to_string()));
        }
        if self.index.contains_key(name) {
            return Err(ServeError::DuplicateTenant(name.to_string()));
        }
        if self.tenants.len() >= self.cfg.max_tenants {
            return Err(ServeError::TenantsFull(self.cfg.max_tenants));
        }
        let quota = spec.quota.unwrap_or(self.cfg.default_quota).max(1);
        // The session window is capped at the admission quota: an engine
        // whose window never fills is never ingest-blocked, so `step`
        // would refuse to advance it and the scheduler could not drain a
        // quota-saturated tenant. With window <= quota, "quota reached"
        // implies "window full" and progress is always forceable.
        let session = backend
            .open_with(spec.effective_session_config(self.cfg.default_quota))
            .map_err(|error| ServeError::Tenant {
                tenant: name.to_string(),
                error,
            })?;
        let sampler = WindowSampler::new(
            self.cfg.scrape_window.max(1),
            vec![
                SeriesSpec::gauge("inflight"),
                SeriesSpec::delta("submitted"),
                SeriesSpec::delta("rejected"),
                SeriesSpec::delta("steps"),
            ],
        );
        self.index.insert(name.to_string(), self.tenants.len());
        self.tenants.push(Box::new(Tenant {
            name: name.to_string(),
            spec: spec.clone(),
            quota,
            recoverable,
            session: JournaledSession::new(session),
            sampler,
            journal_base: 0,
            submitted: 0,
            rejected_window: 0,
            rejected_quota: 0,
            steps: 0,
        }));
        self.opened_total += 1;
        self.peak_tenants = self.peak_tenants.max(self.tenants.len() as u64);
        Ok(())
    }

    fn idx(&self, name: &str) -> Result<usize, ServeError> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Offers a task to a tenant. The quota is checked **before** the
    /// session sees the task, so a rejected offer is never journaled and
    /// a replayed journal contains only accepted ops.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`]; rejections are an [`Ok`] outcome.
    pub fn submit(
        &mut self,
        name: &str,
        task: &TaskDescriptor,
    ) -> Result<SubmitOutcome, ServeError> {
        let i = self.idx(name)?;
        let t = &mut self.tenants[i];
        if t.session.in_flight() >= t.quota {
            t.rejected_quota += 1;
            self.admission_rejections += 1;
            return Ok(SubmitOutcome::QuotaExceeded);
        }
        match t.session.submit(task) {
            Admission::Accepted => {
                t.submitted += 1;
                // No sample: submission never moves the tenant clock, so
                // the sampler cannot have become due since the last
                // step/advance (which do sample) — and submit is the
                // service's hottest path.
                Ok(SubmitOutcome::Accepted)
            }
            Admission::Backpressured => {
                t.rejected_window += 1;
                self.admission_rejections += 1;
                Ok(SubmitOutcome::Backpressured)
            }
        }
    }

    /// Declares a taskwait barrier on a tenant (journaled).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn barrier(&mut self, name: &str) -> Result<(), ServeError> {
        let i = self.idx(name)?;
        let t = &mut self.tenants[i];
        t.session.barrier();
        t.sample();
        Ok(())
    }

    /// Asserts that no input for this tenant arrives before `cycle`
    /// (journaled; the open-loop arrival primitive).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn advance_to(&mut self, name: &str, cycle: u64) -> Result<(), ServeError> {
        let i = self.idx(name)?;
        let t = &mut self.tenants[i];
        t.session.advance_to(cycle);
        t.sample();
        Ok(())
    }

    /// Hints that roughly `additional` more ops are coming for this
    /// tenant, pre-sizing the session's and the journal's buffers — the
    /// same courtesy [`picos_backend::feed_trace`] extends to a solo
    /// session. Purely an allocation hint; never affects schedules.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn reserve(&mut self, name: &str, additional: usize) -> Result<(), ServeError> {
        let i = self.idx(name)?;
        self.tenants[i].session.reserve(additional);
        Ok(())
    }

    /// Copies the tenant's lifecycle span events recorded since its
    /// previous drain into `out` (nothing unless the tenant was opened
    /// with [`TenantSpec::trace_spans`]; see
    /// [`SessionCore::drain_events`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn drain_events(&mut self, name: &str, out: &mut Vec<SpanEvent>) -> Result<(), ServeError> {
        let i = self.idx(name)?;
        self.tenants[i].session.drain_events(out);
        Ok(())
    }

    /// A tenant's observable state.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn stats(&self, name: &str) -> Result<TenantStats, ServeError> {
        let t = &self.tenants[self.idx(name)?];
        Ok(TenantStats {
            now: t.session.now(),
            in_flight: t.session.in_flight(),
            quota: t.quota,
            submitted: t.submitted,
            rejected_window: t.rejected_window,
            rejected_quota: t.rejected_quota,
            steps: t.steps,
        })
    }

    /// A tenant's journal: the exact accepted input stream recorded so
    /// far (rejected offers — window or quota — are never in it).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn journal(&self, name: &str) -> Result<&picos_trace::SessionJournal, ServeError> {
        Ok(self.tenants[self.idx(name)?].session.journal())
    }

    /// One fair scheduler round: every tenant, registry order, gets up to
    /// [`ServeConfig::step_budget`] `step()` calls (stopping early when
    /// the session refuses to advance). Returns total steps taken — `0`
    /// means every tenant is either idle or waiting on input.
    pub fn run_round(&mut self) -> u64 {
        let budget = self.cfg.step_budget.max(1);
        let mut total = 0u64;
        for t in &mut self.tenants {
            let mut n = 0u32;
            while n < budget && t.session.step() {
                n += 1;
            }
            if n > 0 {
                t.steps += n as u64;
                total += n as u64;
                t.sample();
            }
        }
        self.steps_scheduled += total;
        // Periodic checkpointing: once enough scheduler steps accumulate,
        // snapshot every recoverable tenant and truncate its journal to
        // the post-snapshot tail. A failing write is recorded (see
        // [`Service::checkpoint_errors`]) and retried a full cadence
        // later; it never takes the scheduler down.
        if let (Some(every), Some(_)) = (self.cfg.checkpoint_every, &self.cfg.journal_dir) {
            self.steps_since_checkpoint += total;
            if self.steps_since_checkpoint >= every.max(1) {
                self.steps_since_checkpoint = 0;
                if let Err(e) = self.checkpoint_all() {
                    self.checkpoint_errors
                        .push(("<auto>".to_string(), e.to_string()));
                }
            }
        }
        total
    }

    /// Scheduler rounds until a full round makes no progress. Returns
    /// total steps taken.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut total = 0u64;
        loop {
            let n = self.run_round();
            if n == 0 {
                return total;
            }
            total += n;
        }
    }

    /// Checkpoints one tenant: persists a full engine-state snapshot (with
    /// the service-side counters and the absolute journal cursor), then
    /// **compacts** — the in-memory journal drops every op the snapshot
    /// covers and the persisted journal file is truncated to the (now
    /// empty) tail, so it stops growing without bound. Restart recovery
    /// becomes snapshot restore + tail replay instead of whole-history
    /// replay.
    ///
    /// Returns `false` without writing for a tenant the manifest cannot
    /// rebuild ([`Service::open_with`] backends) — a snapshot nobody can
    /// reopen is dead weight.
    ///
    /// The two writes are crash-ordered by the absolute cursor: a crash
    /// after the checkpoint lands but before the journal truncates leaves
    /// a journal whose `base` is older than the cursor, and recovery
    /// skips exactly the already-snapshotted prefix.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`]; [`ServeError::Io`] when no journal
    /// directory is configured or a write fails (the tenant keeps running
    /// and its journal is **not** compacted).
    pub fn checkpoint(&mut self, name: &str) -> Result<bool, ServeError> {
        let i = self.idx(name)?;
        self.checkpoint_at(i)
    }

    /// Checkpoints every recoverable tenant ([`Service::checkpoint`]);
    /// returns how many were written.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on the first failing write; earlier tenants stay
    /// checkpointed, later ones keep their journals intact.
    pub fn checkpoint_all(&mut self) -> Result<usize, ServeError> {
        let mut written = 0;
        for i in 0..self.tenants.len() {
            if self.checkpoint_at(i)? {
                written += 1;
            }
        }
        Ok(written)
    }

    /// Automatic-checkpoint failures (tenant, reason), oldest first.
    pub fn checkpoint_errors(&self) -> &[(String, String)] {
        &self.checkpoint_errors
    }

    fn checkpoint_at(&mut self, i: usize) -> Result<bool, ServeError> {
        let Some(dir) = self.cfg.journal_dir.clone() else {
            return Err(ServeError::Io(
                "checkpoint needs a journal directory".into(),
            ));
        };
        let t = &mut self.tenants[i];
        if !t.recoverable {
            return Ok(false);
        }
        let io = |e: std::io::Error| ServeError::Io(e.to_string());
        let cursor = t.journal_base + t.session.journal().len() as u64;
        let snap = Snapshot::capture(&**t.session.inner());
        let ckpt = format!(
            "{{\"v\":1,\"cursor\":{cursor},\"submitted\":{},\"rejected_window\":{},\
             \"rejected_quota\":{},\"steps\":{},\"state\":{}}}",
            t.submitted,
            t.rejected_window,
            t.rejected_quota,
            t.steps,
            snap.to_json()
        );
        std::fs::write(dir.join(format!("{}.checkpoint.json", t.name)), ckpt).map_err(io)?;
        // Only after the snapshot is durable may the journal forget the
        // ops it covers.
        let len = t.session.journal().len();
        t.session.compact(len);
        t.journal_base = cursor;
        std::fs::write(
            dir.join(format!("{}.journal.json", t.name)),
            journal_file_json(t.session.journal(), cursor),
        )
        .map_err(io)?;
        self.checkpoints_total += 1;
        Ok(true)
    }

    /// Closes a tenant: removes it from the registry (and its journal
    /// file, when persisted), runs its simulation to quiescence and
    /// returns everything it produced.
    ///
    /// # Errors
    ///
    /// An engine failure is returned as [`ServeError::Tenant`] — the
    /// failing tenant is discarded and **every other tenant keeps
    /// running**; the process never dies with it.
    pub fn close(&mut self, name: &str) -> Result<SessionOutput, ServeError> {
        let i = self.idx(name)?;
        let t = *self.tenants.remove(i);
        self.index.remove(name);
        // Everyone behind the removed tenant shifts down one slot; patch
        // the indices in place (no re-keying, closes stay cheap at scale;
        // removing the newest tenant patches nothing at all).
        if i < self.tenants.len() {
            for v in self.index.values_mut() {
                if *v > i {
                    *v -= 1;
                }
            }
        }
        if let Some(dir) = &self.cfg.journal_dir {
            let _ = std::fs::remove_file(dir.join(format!("{name}.journal.json")));
            let _ = std::fs::remove_file(dir.join(format!("{name}.checkpoint.json")));
            let manifest = self.manifest_json();
            let _ = std::fs::write(dir.join("tenants.json"), manifest);
        }
        let (session, _journal) = t.session.into_parts();
        match session.finish_full() {
            Ok(out) => {
                self.closed_total += 1;
                Ok(out)
            }
            Err(error) => {
                self.failed_total += 1;
                Err(ServeError::Tenant {
                    tenant: t.name,
                    error,
                })
            }
        }
    }

    /// Counts one connection the TCP front end refused because it was
    /// serving its most clients (`serve.connections_refused`).
    pub(crate) fn count_refused_connection(&mut self) {
        self.connections_refused += 1;
    }

    /// Drains the scrape snapshot: service gauges/counters plus each
    /// tenant's timeline samples since the previous scrape.
    pub fn scrape(&mut self) -> Scrape {
        let mut service = MetricSet::new();
        service
            .gauge(
                "serve.tenants_live",
                self.tenants.len() as u64,
                self.peak_tenants,
            )
            .counter(
                "serve.steps_scheduled",
                self.steps_scheduled,
                MergeRule::Sum,
            )
            .counter(
                "serve.admission_rejections",
                self.admission_rejections,
                MergeRule::Sum,
            )
            .counter("serve.tenants_opened", self.opened_total, MergeRule::Sum)
            .counter("serve.tenants_closed", self.closed_total, MergeRule::Sum)
            .counter("serve.tenants_failed", self.failed_total, MergeRule::Sum)
            .counter("serve.checkpoints", self.checkpoints_total, MergeRule::Sum)
            .counter(
                "serve.connections_refused",
                self.connections_refused,
                MergeRule::Sum,
            );
        let tenants = self
            .tenants
            .iter_mut()
            .map(|t| (t.name.clone(), t.drain_timeline()))
            .collect();
        Scrape { service, tenants }
    }

    /// The manifest object naming every recoverable tenant, registry
    /// order (so recovery restores the scheduling order).
    fn manifest_json(&self) -> String {
        let mut out = String::from("{\"v\":1,\"tenants\":[");
        let mut first = true;
        for t in self.tenants.iter().filter(|t| t.recoverable) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"spec\":{}}}",
                json_escape(&t.name),
                t.spec.to_json()
            ));
        }
        out.push_str("]}");
        out
    }

    /// Persists the manifest and one journal file per recoverable tenant
    /// to [`ServeConfig::journal_dir`]. Returns the number of tenants
    /// flushed (`0` when no journal directory is configured). Call as
    /// often as the crash-recovery window requires; graceful shutdown
    /// calls it last.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when a write fails.
    pub fn flush_journals(&self) -> Result<usize, ServeError> {
        let Some(dir) = &self.cfg.journal_dir else {
            return Ok(0);
        };
        let io = |e: std::io::Error| ServeError::Io(e.to_string());
        std::fs::write(dir.join("tenants.json"), self.manifest_json()).map_err(io)?;
        let mut flushed = 0;
        for t in self.tenants.iter().filter(|t| t.recoverable) {
            let path = dir.join(format!("{}.journal.json", t.name));
            std::fs::write(path, journal_file_json(t.session.journal(), t.journal_base))
                .map_err(io)?;
            flushed += 1;
        }
        Ok(flushed)
    }

    /// Rebuilds every manifest tenant and replays its journal. A tenant
    /// that cannot be rebuilt (bad spec, missing/corrupt journal, replay
    /// stall) is skipped and recorded; the rest recover.
    fn recover(&mut self, dir: &std::path::Path) -> Result<(), ServeError> {
        let io = |e: std::io::Error| ServeError::Io(e.to_string());
        let text = std::fs::read_to_string(dir.join("tenants.json")).map_err(io)?;
        let v = parse_json(&text).map_err(|e| ServeError::Io(format!("manifest: {e}")))?;
        let entries = v
            .as_obj()
            .and_then(|o| o.get("tenants"))
            .and_then(Value::as_array)
            .ok_or_else(|| ServeError::Io("manifest: missing \"tenants\" array".into()))?;
        for entry in entries {
            let (name, spec) = match parse_manifest_entry(entry) {
                Ok(pair) => pair,
                Err(e) => {
                    self.recovery_errors.push(("<manifest>".to_string(), e));
                    continue;
                }
            };
            if let Err(e) = self.recover_tenant(dir, &name, &spec) {
                self.recovery_errors.push((name, e.to_string()));
            }
        }
        Ok(())
    }

    /// Reopens one tenant from its persisted state: restore the latest
    /// checkpoint snapshot (when one exists), then replay only the journal
    /// ops after the snapshot's absolute cursor — through the fresh
    /// journaling wrapper, so the re-recorded tail keeps the recovered
    /// tenant immediately crash-recoverable again. Without a checkpoint
    /// this degrades to full-journal replay.
    fn recover_tenant(
        &mut self,
        dir: &std::path::Path,
        name: &str,
        spec: &TenantSpec,
    ) -> Result<(), ServeError> {
        let path = dir.join(format!("{name}.journal.json"));
        let bad = |m: String| ServeError::Io(format!("journal {}: {m}", path.display()));
        let text = std::fs::read_to_string(&path).map_err(|e| ServeError::Io(e.to_string()))?;
        let doc = parse_json(&text).map_err(|e| bad(e.to_string()))?;
        let journal = SessionJournal::from_value(&doc).map_err(|e| bad(e.to_string()))?;
        // `base` is the absolute index of the file's first op; absent on a
        // journal never compacted by a checkpoint.
        let base = match doc.as_obj().and_then(|o| o.get("base")) {
            None => 0,
            Some(b) => b
                .as_int()
                .ok_or_else(|| bad("\"base\" must be a non-negative integer".into()))?,
        };
        let checkpoint = read_checkpoint(&dir.join(format!("{name}.checkpoint.json")))?;
        // The checkpoint must reach at least the journal's first op, or the
        // ops in between are lost. An older journal is fine: its covered
        // prefix is skipped below.
        let cursor = checkpoint.as_ref().map_or(0, |c| c.cursor);
        if base > cursor {
            return Err(ServeError::Io(format!(
                "journal starts at op {base} but no checkpoint covers the prefix \
                 (checkpoint cursor {cursor})"
            )));
        }
        self.open(name, spec)?;
        let i = self.idx(name).expect("just opened");
        let undo = |svc: &mut Service, reason: String| {
            // Drop the wedged tenant; isolation over partial state.
            svc.tenants.remove(i);
            svc.index.remove(name);
            for v in svc.index.values_mut() {
                if *v > i {
                    *v -= 1;
                }
            }
            ServeError::Io(reason)
        };
        let mut skip = 0usize;
        if let Some(c) = checkpoint {
            let t = &mut self.tenants[i];
            if let Err(e) = c.state.restore(&mut **t.session.inner_mut()) {
                return Err(undo(self, format!("checkpoint restore: {e}")));
            }
            t.journal_base = c.cursor;
            t.submitted = c.submitted;
            t.rejected_window = c.rejected_window;
            t.rejected_quota = c.rejected_quota;
            t.steps = c.steps;
            // The journal file may predate the checkpoint (crash between
            // the two writes): skip the ops the snapshot already covers.
            skip = (c.cursor - base) as usize;
        }
        if let Err(stall) = replay_journal_tail(&mut self.tenants[i].session, &journal, skip) {
            return Err(undo(self, format!("replay stalled: {stall}")));
        }
        let t = &mut self.tenants[i];
        t.submitted += journal.tail(skip).submitted() as u64;
        Ok(())
    }
}

/// A parsed tenant checkpoint: the engine snapshot, the absolute journal
/// cursor it was taken at, and the service-side counters.
struct TenantCheckpoint {
    cursor: u64,
    submitted: u64,
    rejected_window: u64,
    rejected_quota: u64,
    steps: u64,
    state: Snapshot,
}

/// Reads and parses a tenant checkpoint file; `Ok(None)` when none exists.
fn read_checkpoint(path: &std::path::Path) -> Result<Option<TenantCheckpoint>, ServeError> {
    if !path.exists() {
        return Ok(None);
    }
    let bad = |m: String| ServeError::Io(format!("checkpoint {}: {m}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| bad(e.to_string()))?;
    let v = parse_json(&text).map_err(|e| bad(e.to_string()))?;
    let obj = v
        .as_obj()
        .ok_or_else(|| bad("must be a JSON object".into()))?;
    let int = |key: &str| {
        obj.get(key)
            .and_then(Value::as_int)
            .ok_or_else(|| bad(format!("needs integer \"{key}\"")))
    };
    let state = obj
        .get("state")
        .ok_or_else(|| bad("needs \"state\"".into()))?;
    Ok(Some(TenantCheckpoint {
        cursor: int("cursor")?,
        submitted: int("submitted")?,
        rejected_window: int("rejected_window")?,
        rejected_quota: int("rejected_quota")?,
        steps: int("steps")?,
        state: Snapshot::from_value(state.clone()),
    }))
}

/// Renders a journal for its per-tenant file: the journal's own versioned
/// JSON with an extra `"base"` field — the absolute index of its first op
/// (everything before it lives in the checkpoint snapshot). The journal
/// codec ignores unknown fields, so the file still parses as a plain
/// [`SessionJournal`].
fn journal_file_json(journal: &SessionJournal, base: u64) -> String {
    let body = journal.to_json();
    debug_assert!(body.starts_with("{\"version\":1,"));
    body.replacen(
        "{\"version\":1,",
        &format!("{{\"version\":1,\"base\":{base},"),
        1,
    )
}

/// Parses one `{"name":..., "spec":{...}}` manifest entry.
fn parse_manifest_entry(v: &Value) -> Result<(String, TenantSpec), String> {
    let obj = v.as_obj().ok_or("manifest entry must be an object")?;
    let name = obj
        .get("name")
        .and_then(Value::as_string)
        .ok_or("manifest entry needs \"name\"")?;
    let spec = obj.get("spec").ok_or("manifest entry needs \"spec\"")?;
    Ok((name.to_string(), TenantSpec::from_value(spec)?))
}
