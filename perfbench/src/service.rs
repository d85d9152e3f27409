//! The DSE-service workload (`service-warm`). Two closed-loop tenants submit
//! 60-proposal jobs over the stencil-2d/gemm/ellpack slice to a one-worker
//! `JobServer` sharing one `EvalStore`; every job checkpoints every 20
//! proposals. After set-up the run's eight jobs (four per tenant) run once on
//! a fresh root: every lookup misses the store and every evaluation is
//! published (fsync'd atomic writes). Every timed round then restarts the
//! server on that root, which decodes the store at open, and reruns one job
//! per tenant, taking the jobs in turn, every lookup served from memory. One
//! op is one warm job; a round's CPU time per job is its sample. Once a
//! round's jobs are done, each tenant compiles and runs the job's kernels on
//! the overlay it produced.
//!
//! One worker, not two: the process's CPU time sums every thread, so with
//! two workers a round was fast only while both vCPUs were unloaded by other
//! tenants of the host, and the fastest round moved from run to run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use overgen::Overlay;
use overgen_adg::SystemParams;
use overgen_compiler::CompileOptions;
use overgen_dse::{Checkpoint, CheckpointConfig, DseResult, EvalStore};
use overgen_ir::Kernel;
use overgen_service::{JobRequest, JobServer, JobStatus, ServiceConfig, ServiceReport};
use overgen_telemetry::{json, Rng};

use crate::cpu;
use crate::gen::{self, record_stats};
use crate::run::Run;

const SLICE: [&str; 3] = ["stencil-2d", "gemm", "ellpack"];
const TENANTS: usize = 2;
const WORKERS: usize = 1;
const ITERATIONS: usize = 60;
const CHECKPOINT_EVERY: usize = 20;
/// Proposals of the short job each set-up ends with.
const WARMUP_ITERATIONS: usize = 5;
/// Jobs per tenant; a warm round reruns one of each tenant's.
const JOBS_PER_TENANT: usize = 4;

#[derive(Clone)]
struct Job {
    name: String,
    seed: u64,
}

/// A finished job as its tenant saw it.
struct Finished {
    job: Job,
    latency_s: f64,
    status: JobStatus,
    result: Option<Arc<DseResult>>,
}

fn checkpoint_path(root: &Path, name: &str) -> PathBuf {
    root.join("jobs").join(name).join("checkpoint.json")
}

fn request(root: &Path, job: &Job, iterations: usize, kernels: &[Kernel]) -> JobRequest {
    let mut config = gen::config(iterations, job.seed);
    config.checkpoint = Some(CheckpointConfig {
        path: checkpoint_path(root, &job.name),
        interval: CHECKPOINT_EVERY,
    });
    JobRequest {
        name: job.name.clone(),
        kernels: kernels.to_vec(),
        config,
    }
}

fn start(run: &mut Run, root: &Path) -> JobServer {
    let (server, ms) = cpu::time_ms(|| {
        JobServer::start(ServiceConfig {
            root: root.to_path_buf(),
            workers: WORKERS,
            store: true,
        })
        .expect("service root is writable and its store decodes")
    });
    if let Some(tr) = run.trace.as_mut() {
        tr.sample("service.start_ms", ms);
    }
    server
}

fn shutdown(run: &mut Run, server: JobServer) -> ServiceReport {
    let (report, ms) = cpu::time_ms(|| server.shutdown());
    if let Some(tr) = run.trace.as_mut() {
        tr.sample("service.shutdown_ms", ms);
    }
    report
}

/// One round: every tenant, in a seed-shuffled start order, submits its
/// jobs one after another and waits for each. Returns the finished jobs
/// and the CPU milliseconds the process spent on the round: the workers'
/// jobs, as nothing else runs meanwhile.
fn round(
    run: &mut Run,
    server: &JobServer,
    root: &Path,
    kernels: &[Kernel],
    plan: &[Vec<Job>],
    iterations: usize,
) -> (Vec<Finished>, f64) {
    let mut rng = Rng::seed_from_u64(run.next_seed());
    let mut order: Vec<usize> = (0..plan.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let (finished, cpu_ms) = cpu::time_ms(|| {
        std::thread::scope(|s| {
            let tenants: Vec<_> = order
                .iter()
                .map(|&t| {
                    let jobs = &plan[t];
                    s.spawn(move || {
                        jobs.iter()
                            .map(|job| {
                                let t = Instant::now();
                                let id = server
                                    .submit(request(root, job, iterations, kernels))
                                    .expect("job names are valid and unique per server");
                                let status = server.wait(id).expect("submitted job exists");
                                Finished {
                                    job: job.clone(),
                                    latency_s: t.elapsed().as_secs_f64(),
                                    status,
                                    result: server.result(id),
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            tenants
                .into_iter()
                .flat_map(|h| h.join().expect("tenant thread finished"))
                .collect::<Vec<_>>()
        })
    });
    (finished, cpu_ms)
}

/// Account a round's jobs as ops on `input` (one latency sample per round:
/// its CPU time per job), check each job's checkpoint, and deploy its
/// kernels on the overlay it produced.
fn settle(
    run: &mut Run,
    input: &str,
    root: &Path,
    kernels: &[Kernel],
    finished: &[Finished],
    cpu_ms: f64,
) {
    run.op_done(input, cpu_ms / finished.len() as f64, finished.len() as u64);
    for f in finished {
        let op = run.op_id();
        run.op_outcome(f.status == JobStatus::Done);
        let path = checkpoint_path(root, &f.job.name);
        run.check(Checkpoint::load(&path).is_ok(), || {
            format!(
                "{}: checkpoint {} does not load",
                f.job.name,
                path.display()
            )
        });
        let Some(result) = f.result.as_ref().filter(|_| f.status == JobStatus::Done) else {
            eprintln!("job {} ended {:?}", f.job.name, f.status);
            continue;
        };
        let overlay = Overlay::from_dse((**result).clone(), CompileOptions::default());
        let fmax = overlay.fmax_mhz();
        let span = run.open("deploy", op, None);
        for k in kernels {
            run.deploy(&overlay, fmax, k, &f.job.name, op, span);
        }
        run.close(span);
        if run.trace.is_some() {
            let s = overlay.sys_adg.sys;
            run.row(format!(
                "{{\"kind\":\"job\",\"op\":{op},\"job\":\"{}\",\"seed\":{},\"latency_ms\":{},\"proposals\":{},\"objective\":{},\"sys\":{{\"tiles\":{},\"l2_banks\":{},\"l2_kb\":{},\"noc_bw_bytes\":{},\"dram_channels\":{}}}}}",
                f.job.name,
                f.job.seed,
                f.latency_s * 1e3,
                result.stats.iterations,
                result.objective,
                s.tiles,
                s.l2_banks,
                s.l2_kb,
                s.noc_bw_bytes,
                s.dram_channels
            ));
            record_stats(run, &result.stats);
            record_job_files(run, root, &f.job.name);
        }
    }
}

/// Per-job counters the server writes beside the job (`metrics.json`) and
/// the checkpoint's size.
fn record_job_files(run: &mut Run, root: &Path, name: &str) {
    let dir = root.join("jobs").join(name);
    let metrics = std::fs::read_to_string(dir.join("metrics.json"))
        .ok()
        .and_then(|t| json::parse(&t).ok());
    let bytes = std::fs::metadata(checkpoint_path(root, name)).map_or(0, |m| m.len());
    let Some(t) = run.trace.as_mut() else {
        return;
    };
    if let Some(m) = metrics {
        for name in [
            "dse.checkpoint.write",
            "dse.checkpoint.write_us",
            "dse.cache.system_miss",
        ] {
            t.add(
                name,
                m.get(name).and_then(json::Value::as_f64).unwrap_or(0.0),
            );
        }
    }
    t.add("service.jobs", 1.0);
    t.add("dse.checkpoint.bytes", bytes as f64);
}

/// Store accounting and the cost of decoding the store, re-driven on the
/// round's root after the server shut down.
fn record_store(run: &mut Run, root: &Path, report: &ServiceReport) {
    if run.trace.is_none() {
        return;
    }
    let dir = root.join("store");
    let (store, open_ms) =
        cpu::time_ms(|| EvalStore::open(&dir).expect("store written by this run decodes"));
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|d| {
            d.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let tr = run.trace.as_mut().expect("traced run");
    tr.sample("dse.store.open_ms", open_ms);
    tr.sample(
        "dse.store.bytes_per_entry",
        bytes as f64 / store.len().max(1) as f64,
    );
    if let Some(s) = report.store {
        tr.add("dse.store.publishes", s.publishes as f64);
        tr.add("dse.store.hits", s.hits as f64);
        tr.add("dse.store.lookups", s.lookups as f64);
    }
}

/// One short job on a fresh server: the warm-up each set-up ends with, and
/// the op the traced run prices tracing on.
fn warmup_job(root: &Path, kernels: &[Kernel]) -> JobStatus {
    let server = JobServer::start(ServiceConfig {
        root: root.to_path_buf(),
        workers: WORKERS,
        store: true,
    })
    .expect("service root is writable");
    let job = Job {
        name: "warmup".into(),
        seed: gen::WARMUP_SEED,
    };
    let id = server
        .submit(request(root, &job, WARMUP_ITERATIONS, kernels))
        .expect("valid job name");
    let status = server.wait(id).expect("submitted job exists");
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
    status
}

/// One set-up: inputs, a server on a fresh root and its warm-up job.
/// Returns the job domain.
fn setup(run: &mut Run, work: &Path) -> Vec<Kernel> {
    let root = work.join(format!("setup-{}", run.setup_s.len()));
    let (kernels, status) = run.setup(|| {
        let kernels = gen::kernels(&SLICE);
        let status = warmup_job(&root, &kernels);
        (kernels, status)
    });
    run.check(status == JobStatus::Done, || {
        format!("warm-up job ended {status:?}")
    });
    kernels
}

/// After set-up, the jobs run once cold to fill the store; every timed
/// round then restarts the server on that root and reruns them.
pub fn run(run: &mut Run, work: &Path, seconds: f64) {
    let kernels = setup(run, work);
    let mut n = 0;
    run.calibrate(5, || {
        warmup_job(&work.join(format!("calibrate-{n}")), &kernels);
        n += 1;
    });
    let root = work.join("store-root");
    let plan: Vec<Vec<Job>> = (0..TENANTS)
        .map(|t| {
            (0..JOBS_PER_TENANT)
                .map(|j| Job {
                    name: format!("t{t}-j{j}"),
                    seed: run.next_seed(),
                })
                .collect()
        })
        .collect();
    let server = start(run, &root);
    let (cold, cold_ms) = round(run, &server, &root, &kernels, &plan, ITERATIONS);
    let report = server.shutdown();
    if let (Some(t), Some(store)) = (run.trace.as_mut(), report.store) {
        t.sample("service.job_cold_ms", cold_ms / cold.len() as f64);
        t.add("service.cold_jobs", cold.len() as f64);
        t.add("dse.store.publishes", store.publishes as f64);
    }
    let mut twins = BTreeMap::new();
    for f in &cold {
        run.check(f.status == JobStatus::Done, || {
            format!("{}: cold job ended {:?}", f.job.name, f.status)
        });
        if let Some(r) = &f.result {
            twins.insert(f.job.name.clone(), (r.objective.to_bits(), r.sys_adg.sys));
        }
    }

    let start_t = Instant::now();
    for j in (0..JOBS_PER_TENANT).cycle() {
        let elapsed = start_t.elapsed().as_secs_f64();
        if elapsed >= seconds {
            break;
        }
        if run.setup_due(elapsed, seconds) {
            setup(run, work);
        }
        let jobs: Vec<Vec<Job>> = plan.iter().map(|p| vec![p[j].clone()]).collect();
        let server = start(run, &root);
        let (finished, cpu_ms) = round(run, &server, &root, &kernels, &jobs, ITERATIONS);
        let report = shutdown(run, server);
        check_warm(run, &finished, &twins, &report);
        settle(run, &format!("j{j}"), &root, &kernels, &finished, cpu_ms);
        record_store(run, &root, &report);
    }
}

/// Check (f): a warm job reproduces its cold twin's objective bits and
/// system parameters without a single store miss.
fn check_warm(
    run: &mut Run,
    finished: &[Finished],
    twins: &BTreeMap<String, (u64, SystemParams)>,
    report: &ServiceReport,
) {
    let misses = report.store.map_or(u64::MAX, |s| s.misses);
    run.check(misses == 0, || {
        format!("warm round missed the store {misses} times")
    });
    for f in finished {
        let got = f
            .result
            .as_ref()
            .map(|r| (r.objective.to_bits(), r.sys_adg.sys));
        run.check(
            got.is_some() && got.as_ref() == twins.get(&f.job.name),
            || {
                format!(
                    "{}: warm result {got:?} differs from its cold twin",
                    f.job.name
                )
            },
        );
    }
}
