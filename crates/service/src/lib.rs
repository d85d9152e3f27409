//! DSE-as-a-service: a multi-tenant job server over the OverGen DSE.
//!
//! [`JobServer`] accepts concurrent [`JobRequest`]s (a workload domain
//! plus a [`DseConfig`]) and multiplexes them over a fixed pool of worker
//! threads — plain `std::thread` + `std::sync::mpsc`, matching the
//! workspace's zero-dependency stance (see `dse/src/pool.rs`). All tenants
//! share one persistent [`EvalStore`], so a job exploring a domain another
//! tenant already visited hits its cached evaluations across process and
//! job boundaries.
//!
//! ## Job lifecycle
//!
//! `submit` → `Queued` → (worker picks it up) → `Running` → `Done` /
//! `Failed` / `Cancelled`. `cancel` removes a queued job outright and asks
//! a running one to stop at the next segment boundary via
//! [`StopFlag`] — the engine finalizes a checkpoint (when configured) and
//! returns a partial result with `completed == false`. `wait` blocks on a
//! condvar until the job is terminal; `shutdown` drains the queue, joins
//! the workers, and folds the shared-store counters into the service
//! registry (`service.store.*`).
//!
//! ## Per-job telemetry
//!
//! Every job runs under its own deterministic-clock collector streaming
//! JSONL to `<root>/jobs/<name>/trace.jsonl`, bracketed by
//! `service.job.start` / `service.job.done` events, with the result
//! summary written atomically to `result.json`. Because job traces carry
//! only deterministic fields and store-served artifacts are byte-identical
//! to recomputation, a job's trace and result are byte-for-byte the same
//! for any worker count and any co-tenant schedule (DESIGN.md §13); the
//! workspace `service_determinism` test enforces this differentially.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use overgen_dse::{Dse, DseConfig, DseResult, EvalStore, StopFlag, StoreError, StoreStats};
use overgen_ir::Kernel;
use overgen_telemetry::fs::write_atomic;
use overgen_telemetry::json::Obj;
use overgen_telemetry::{event, install, ClockMode, Collector, FileSink, Registry};

/// How a [`JobServer`] is laid out and sized.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Service root directory; per-job artifacts live under
    /// `<root>/jobs/<name>/` and the shared store under `<root>/store/`.
    pub root: PathBuf,
    /// Worker threads executing jobs. `0` is clamped to 1. Results and
    /// traces are independent of this value.
    pub workers: usize,
    /// Open (and share) the persistent evaluation store. Off = every job
    /// runs with only its in-memory caches.
    pub store: bool,
}

impl ServiceConfig {
    /// A server rooted at `root` with one worker and the store enabled.
    pub fn new(root: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            root: root.into(),
            workers: 1,
            store: true,
        }
    }
}

/// One tenant's unit of work: a named workload domain plus the DSE
/// configuration to explore it with.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Unique job name; doubles as the artifact directory name, so only
    /// `[A-Za-z0-9._-]` is accepted.
    pub name: String,
    /// The workload domain.
    pub kernels: Vec<Kernel>,
    /// Exploration configuration. The server injects the shared store and
    /// a cancellation flag; everything else is the tenant's to choose.
    pub config: DseConfig,
}

/// Handle to a submitted job.
pub type JobId = u64;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; `result` has the outcome.
    Done,
    /// The DSE returned an error; `error` has the message.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobStatus {
    /// Has the job reached a terminal state?
    pub fn terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    fn tag(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Job names are directory names; this one has characters outside
    /// `[A-Za-z0-9._-]` (or is empty).
    InvalidName(String),
    /// Another job in this server already claimed the name.
    DuplicateName(String),
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::InvalidName(n) => write!(f, "invalid job name {n:?}"),
            SubmitError::DuplicateName(n) => write!(f, "duplicate job name {n:?}"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServiceError {
    /// The root directory could not be created.
    Io(std::io::Error),
    /// The shared store refused to open (corrupt or incompatible entry).
    Store(StoreError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service I/O error: {e}"),
            ServiceError::Store(e) => write!(f, "shared store: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

/// Everything a job accumulates over its lifetime.
struct JobEntry {
    name: String,
    status: JobStatus,
    /// Taken by the worker when the job starts.
    request: Option<JobRequest>,
    result: Option<Arc<DseResult>>,
    error: Option<String>,
    stop: StopFlag,
}

/// State shared between the API surface and the workers.
struct Shared {
    root: PathBuf,
    store: Option<Arc<EvalStore>>,
    jobs: Mutex<BTreeMap<JobId, JobEntry>>,
    /// Notified on every terminal status transition.
    done: Condvar,
    registry: Registry,
}

impl Shared {
    fn counter(&self, name: &'static str) -> overgen_telemetry::Counter {
        self.registry.counter(name)
    }

    /// The single terminal-transition point. Applies `apply` (which must
    /// leave the entry in a terminal status) under the caller's jobs lock,
    /// then performs the terminal accounting — the matching
    /// `service.jobs.*` counter and a `done` broadcast — so every path a
    /// job can end through (worker completion, worker failure,
    /// worker-observed cancellation, queued-job cancellation) accounts
    /// identically. Callers pass their held guard in; the transition and
    /// the status read are atomic, and the lock is dropped before the
    /// counter bump and notify.
    fn finish(
        &self,
        mut jobs: std::sync::MutexGuard<'_, BTreeMap<JobId, JobEntry>>,
        id: JobId,
        apply: impl FnOnce(&mut JobEntry),
    ) {
        let j = jobs.get_mut(&id).expect("finishing job exists");
        apply(j);
        debug_assert!(
            j.status.terminal(),
            "finish() must end in a terminal status"
        );
        let counter = match j.status {
            JobStatus::Done => "service.jobs.completed",
            JobStatus::Failed => "service.jobs.failed",
            _ => "service.jobs.cancelled",
        };
        drop(jobs);
        self.counter(counter).inc();
        self.done.notify_all();
    }
}

/// Final per-job record in a [`ServiceReport`].
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job id, in submission order.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Best objective, when a result exists.
    pub objective: Option<f64>,
}

/// What `shutdown` returns: every job's terminal state plus the shared
/// store's accounting.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-job outcomes in submission order.
    pub jobs: Vec<JobReport>,
    /// Shared-store counters, when the store was enabled.
    pub store: Option<StoreStats>,
}

/// The multi-tenant DSE job server. See the module docs for the
/// lifecycle; all methods are callable from any thread.
pub struct JobServer {
    shared: Arc<Shared>,
    /// `None` once `shutdown` has dropped it to unblock the workers.
    queue: Mutex<Option<Sender<JobId>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: Mutex<JobId>,
}

impl JobServer {
    /// Start a server: create the root layout, open the shared store
    /// (when enabled), and spawn the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the directory layout cannot be created,
    /// [`ServiceError::Store`] when the persistent store refuses to load.
    pub fn start(cfg: ServiceConfig) -> Result<JobServer, ServiceError> {
        std::fs::create_dir_all(cfg.root.join("jobs"))?;
        let store = if cfg.store {
            Some(EvalStore::open(cfg.root.join("store"))?)
        } else {
            None
        };
        let shared = Arc::new(Shared {
            root: cfg.root,
            store,
            jobs: Mutex::new(BTreeMap::new()),
            done: Condvar::new(),
            registry: Registry::new(),
        });
        let (tx, rx) = channel::<JobId>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        Ok(JobServer {
            shared,
            queue: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            next_id: Mutex::new(0),
        })
    }

    /// The shared evaluation store, when enabled.
    pub fn store(&self) -> Option<&Arc<EvalStore>> {
        self.shared.store.as_ref()
    }

    /// The service-level metrics registry (`service.*` counters).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Submit a job for execution.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&self, req: JobRequest) -> Result<JobId, SubmitError> {
        if req.name.is_empty()
            || !req
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b))
        {
            return Err(SubmitError::InvalidName(req.name));
        }
        let queue = self.queue.lock().unwrap();
        let Some(tx) = queue.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let mut jobs = self.shared.jobs.lock().unwrap();
        if jobs.values().any(|j| j.name == req.name) {
            return Err(SubmitError::DuplicateName(req.name));
        }
        let mut next = self.next_id.lock().unwrap();
        let id = *next;
        *next += 1;
        jobs.insert(
            id,
            JobEntry {
                name: req.name.clone(),
                status: JobStatus::Queued,
                request: Some(req),
                result: None,
                error: None,
                stop: StopFlag::new(),
            },
        );
        drop(jobs);
        self.shared.counter("service.jobs.submitted").inc();
        tx.send(id).expect("workers outlive the queue");
        Ok(id)
    }

    /// Current status, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.jobs.lock().unwrap().get(&id).map(|j| j.status)
    }

    /// The job's result: present for `Done` jobs and for cancelled jobs
    /// that stopped gracefully mid-run (partial, `completed == false`).
    pub fn result(&self, id: JobId) -> Option<Arc<DseResult>> {
        self.shared
            .jobs
            .lock()
            .unwrap()
            .get(&id)
            .and_then(|j| j.result.clone())
    }

    /// The failure message of a `Failed` job.
    pub fn error(&self, id: JobId) -> Option<String> {
        self.shared
            .jobs
            .lock()
            .unwrap()
            .get(&id)
            .and_then(|j| j.error.clone())
    }

    /// Cancel a job. A queued job is marked `Cancelled` immediately (the
    /// worker skips it); a running job is asked to stop at the next
    /// segment boundary. Returns `false` for unknown or already-terminal
    /// jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut jobs = self.shared.jobs.lock().unwrap();
        let Some(j) = jobs.get_mut(&id) else {
            return false;
        };
        match j.status {
            JobStatus::Queued => {
                // The transition happens under the lock we already hold, so
                // a worker dequeuing the id concurrently sees `Cancelled`
                // (not `Queued`) and skips it — the accounting below is the
                // only one this job gets.
                self.shared
                    .finish(jobs, id, |j| j.status = JobStatus::Cancelled);
                true
            }
            JobStatus::Running => {
                // The worker observes the raised flag at the next segment
                // boundary and performs the terminal accounting through the
                // same `finish` path in `run_job`.
                j.stop.raise();
                true
            }
            _ => false,
        }
    }

    /// Block until the job is terminal and return its final status.
    /// Returns `None` for an unknown id.
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut jobs = self.shared.jobs.lock().unwrap();
        loop {
            let status = jobs.get(&id)?.status;
            if status.terminal() {
                return Some(status);
            }
            jobs = self.shared.done.wait(jobs).unwrap();
        }
    }

    /// Stop accepting work, drain the queue, join every worker, fold the
    /// store counters into the service registry, and report.
    pub fn shutdown(self) -> ServiceReport {
        // Dropping the sender makes every worker's `recv` fail once the
        // queue drains.
        *self.queue.lock().unwrap() = None;
        for w in self.workers.lock().unwrap().drain(..) {
            let _ = w.join();
        }
        if let Some(st) = &self.shared.store {
            let s = st.stats();
            for (name, v) in [
                ("service.store.lookups", s.lookups),
                ("service.store.hits", s.hits),
                ("service.store.misses", s.misses),
                ("service.store.publishes", s.publishes),
                ("service.store.shared_serves", s.shared_serves),
                ("service.store.warm_entries", s.warm_entries),
            ] {
                self.shared.counter(name).add(v);
            }
        }
        let jobs = self.shared.jobs.lock().unwrap();
        ServiceReport {
            jobs: jobs
                .iter()
                .map(|(id, j)| JobReport {
                    id: *id,
                    name: j.name.clone(),
                    status: j.status,
                    objective: j.result.as_ref().map(|r| r.objective),
                })
                .collect(),
            store: self.shared.store.as_ref().map(|s| s.stats()),
        }
    }
}

/// One worker: pull job ids until the queue closes.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<JobId>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let id = match rx.lock().unwrap().recv() {
            Ok(id) => id,
            Err(_) => return,
        };
        run_job(shared, id);
    }
}

/// Execute one job end to end; never panics the worker on job failure.
fn run_job(shared: &Shared, id: JobId) {
    let (req, stop) = {
        let mut jobs = shared.jobs.lock().unwrap();
        let j = jobs.get_mut(&id).expect("queued job exists");
        if j.status != JobStatus::Queued {
            return; // cancelled while queued
        }
        j.status = JobStatus::Running;
        (
            j.request.take().expect("queued job has a request"),
            j.stop.clone(),
        )
    };

    let dir = shared.root.join("jobs").join(&req.name);
    let outcome = execute(shared, &dir, req, stop.clone());

    let jobs = shared.jobs.lock().unwrap();
    shared.finish(jobs, id, |j| match outcome {
        Ok(result) => {
            j.status = if stop.raised() && !result.completed {
                JobStatus::Cancelled
            } else {
                JobStatus::Done
            };
            j.result = Some(result);
        }
        Err(msg) => {
            j.status = JobStatus::Failed;
            j.error = Some(msg);
        }
    });
}

/// Run the DSE under a per-job deterministic collector and persist the
/// job artifacts. I/O problems fail the job rather than the worker.
fn execute(
    shared: &Shared,
    dir: &Path,
    req: JobRequest,
    stop: StopFlag,
) -> Result<Arc<DseResult>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create job dir: {e}"))?;
    let sink = FileSink::create(dir.join("trace.jsonl"))
        .map_err(|e| format!("cannot create job trace: {e}"))?;
    let collector = Collector::new(sink, ClockMode::Deterministic);
    let _guard = install(collector.clone());

    let mut config = req.config;
    config.store = shared.store.clone();
    config.stop = Some(stop);
    let workloads = config.iterations; // deterministic fields only
    event!(
        "service.job.start",
        job = req.name.as_str(),
        kernels = req.kernels.len() as u64,
        iterations = workloads as u64,
    );
    let run = Dse::new(req.kernels, config).run();
    let (completed, objective) = match &run {
        Ok(r) => (r.completed, r.objective),
        Err(_) => (false, f64::NAN),
    };
    event!(
        "service.job.done",
        job = req.name.as_str(),
        ok = run.is_ok(),
        completed = completed,
        objective = objective,
    );
    collector.flush();
    // The registry snapshot goes to a side file, NOT into trace.jsonl:
    // `dse.cache.system_*` counts *work actually performed*, which a warm
    // store legitimately elides, so it is diagnostic — outside the
    // byte-identity surface (DESIGN.md §13). Everything event/span-shaped
    // is replayed from captured artifacts and stays deterministic.
    let mut metrics = String::new();
    collector.registry().snapshot_json(&mut metrics);
    metrics.push('\n');
    write_atomic(dir.join("metrics.json"), metrics.as_bytes())
        .map_err(|e| format!("cannot write job metrics: {e}"))?;

    let result = run.map_err(|e| e.to_string())?;
    write_atomic(
        dir.join("result.json"),
        result_json(&req.name, &result).as_bytes(),
    )
    .map_err(|e| format!("cannot write job result: {e}"))?;
    Ok(Arc::new(result))
}

/// The deterministic per-job result summary persisted as `result.json`.
fn result_json(name: &str, r: &DseResult) -> String {
    let mut s = Obj::new()
        .str("job", name)
        .bool("completed", r.completed)
        .f64("objective", r.objective)
        .f64("dse_hours", r.dse_hours)
        .u64("pareto_points", r.pareto.points().len() as u64)
        .u64("iterations", r.stats.iterations as u64)
        .u64("accepted", r.stats.accepted as u64)
        .u64("cache_hits", r.stats.cache_hits as u64)
        .u64("cache_misses", r.stats.cache_misses as u64)
        .finish();
    s.push('\n');
    s
}

/// The status string written into job listings; stable API for clients.
pub fn status_tag(status: JobStatus) -> &'static str {
    status.tag()
}
