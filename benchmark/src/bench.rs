//! One benchmark run of one workload: set-up, warm-up, measured segments,
//! correctness checks, metrics.
//!
//! * [`run_untraced`] is the program as it ships under the workload's client
//!   count; every end-to-end metric comes from here and only from here.
//! * [`run_traced`] is the per-layer run, single client: layer probes, a few
//!   untraced segments (per-verb client latencies and the tracing-overhead
//!   baseline), then the same traffic through the span wrappers.
//!
//! Every timing is computed per segment and reported as the median of the
//! segments; a segment is a fixed request count (frozen in
//! `crate::workload`), and segments repeat for `--seconds`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use k8s_apiserver::StoreBackend;
use kubefence::ProxyStats;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::durability::{self, Acknowledged, DurabilityReport};
use crate::io::IoCounts;
use crate::json::Json;
use crate::layers;
use crate::pool::Pool;
use crate::probes;
use crate::run::{
    housekeeping, peak_rss_mib, reset_peak_rss, with_workers, CheckpointSample, ClientState,
    Segment, Stamps, Workers,
};
use crate::setup::{
    build_plain, build_traced, check_verdict_parity, generate_validators, learn_policy,
    scratch_dir, SetupTimes, Stack, System, SystemSpec, FSYNC_POLICY,
};
use crate::stats::{self, Summary};
use crate::trace;
use crate::workload::Workload;

/// Crash copies reopened for `client.recovery_s` (traced run; the
/// end-to-end run reopens one, for the durability check alone).
const RECOVERY_COPIES: usize = 5;
/// Discarded segments before the measured ones.
const WARMUP_SEGMENTS: usize = 2;
/// Fewest measured segments, however short `--seconds` is.
const MIN_SEGMENTS: usize = 3;
/// Spans written to `trace-<workload>.jsonl` (the analysis uses them all).
const TRACE_FILE_SPANS: usize = 200_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the measured segments go on for.
    pub seconds: f64,
    /// Tiny fixed counts, same code paths and checks.
    pub smoke: bool,
    /// The benchmark's scratch/output directory.
    pub out: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and no request had an unexpected outcome.
    pub correct: bool,
    /// Requests issued in measured segments.
    pub attempted: u64,
    /// Of those, requests whose outcome was not the expected one.
    pub failed: u64,
    /// The declared metrics of this mode, in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed checks and refused percentiles, described.
    pub problems: Vec<String>,
    /// Everything else worth keeping (per-segment values, environment).
    pub detail: Json,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        Json::object()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                (*name).to_owned(),
                                Json::object().with("value", *value).with("unit", *unit),
                            )
                        })
                        .collect(),
                ),
            )
            .render()
    }
}

impl Options {
    fn system_spec(&self, label: &str) -> SystemSpec {
        SystemSpec {
            admins: self.workload.admins,
            subscribers: self.workload.subscribers,
            durable_dir: self
                .workload
                .durable
                .then(|| scratch_dir(&self.out, &format!("{}-{label}", self.workload.name))),
        }
    }

    fn segment_requests(&self) -> usize {
        if self.smoke {
            self.workload.smoke_segment_requests
        } else {
            self.workload.segment_requests
        }
    }
}

fn remove_dir(spec: &SystemSpec) {
    if let Some(dir) = &spec.durable_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A segment's p99 in µs; a refusal (too few samples) is recorded and the
/// largest sample stands in, so a smoke run still prints every metric.
fn p99_us(summary: &Summary, what: &str, refused: &mut Vec<String>) -> f64 {
    let ns = summary.p99.unwrap_or_else(|| {
        if summary.samples > 0 {
            refused.push(format!(
                "{what}: p99 of {} samples has fewer than {} beyond it",
                summary.samples,
                stats::MIN_BEYOND
            ));
        }
        summary.max
    });
    ns as f64 / 1e3
}

/// What the measured segments of one system add up to.
#[derive(Default)]
struct Measured {
    segments: Vec<Segment>,
    proxy: ProxyStats,
    dropped_denials: u64,
    /// I/O done inside measured segments.
    io: IoCounts,
    /// Group-commit fsyncs, and the records they covered, inside measured
    /// segments.
    group: (u64, u64),
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.segments.iter().map(|s| s.requests as u64).sum()
    }

    fn failed(&self) -> u64 {
        self.segments.iter().map(|s| s.failed).sum()
    }

    fn per_segment(&self, value: impl FnMut(&Segment) -> f64) -> Vec<f64> {
        self.segments.iter().map(value).collect()
    }

    fn median(&self, value: impl Fn(&Segment) -> f64) -> f64 {
        stats::median(&self.per_segment(value))
    }

    fn checkpoints(&self) -> Vec<CheckpointSample> {
        self.segments
            .iter()
            .flat_map(|s| s.checkpoints.iter().copied())
            .collect()
    }
}

/// One system and the clients that load it.
struct Runner<'p, K: Stack> {
    system: System<K>,
    pool: &'p Pool,
    workload: Workload,
    per_client: usize,
    clients: Vec<ClientState>,
    stamps: Stamps,
    measured: Measured,
}

/// A [`Runner`] whose worker threads are up.
struct Live<'w, 'a, K: Stack> {
    workers: &'w mut Workers<'a, K>,
    measured: &'w mut Measured,
    per_client: usize,
}

impl<'p, K: Stack> Runner<'p, K> {
    fn new(
        system: System<K>,
        pool: &'p Pool,
        workload: Workload,
        seed: u64,
        clients: usize,
        per_client: usize,
    ) -> Self {
        Runner {
            system,
            pool,
            workload,
            per_client,
            clients: (0..clients)
                .map(|c| ClientState::new(c, pool.schedule(seed, c, workload.traffic), pool))
                .collect(),
            stamps: Stamps::new(if workload.drain_thread {
                per_client * clients + 64
            } else {
                0
            }),
            measured: Measured::default(),
        }
    }

    /// Bring the worker threads up for the duration of `body`.
    fn live<R>(&mut self, body: impl FnOnce(&mut Live<'_, '_, K>) -> R) -> R {
        let (measured, per_client) = (&mut self.measured, self.per_client);
        with_workers(
            &mut self.system,
            self.pool,
            &self.workload,
            &mut self.clients,
            &self.stamps,
            |workers| {
                body(&mut Live {
                    workers,
                    measured,
                    per_client,
                })
            },
        )
    }
}

impl<K: Stack> Live<'_, '_, K> {
    /// Discarded warm-up segments: caches fill, lazy set-up finishes, the
    /// watch journals reach their capacity and the allocator its working
    /// size (the first segment after that is still measurably faster than
    /// the steady state, hence two).
    fn warm(&mut self) {
        for _ in 0..WARMUP_SEGMENTS {
            self.workers.segment(self.per_client, false);
            housekeeping(self.workers.stack());
        }
    }

    /// One measured segment.
    fn segment(&mut self, traced: bool) {
        let io_before = self.workers.durable().map(|d| d.io.counts());
        let group_before = self.workers.stack().object_store().durability();
        let segment = self.workers.segment(self.per_client, traced);
        // `housekeeping` resets the proxy's counters after every segment, so
        // what they read here is this segment's alone.
        let stack = self.workers.stack();
        let stats = stack.proxy_stats();
        let measured = &mut *self.measured;
        measured.proxy.forwarded += stats.forwarded;
        measured.proxy.denied += stats.denied;
        measured.proxy.passthrough += stats.passthrough;
        measured.proxy.validation_time_us += stats.validation_time_us;
        measured.dropped_denials += stack.dropped_denials();
        housekeeping(stack);
        if let (Some(before), Some(durable)) = (io_before, self.workers.durable()) {
            let after = durable.io.counts();
            measured.io.writes += after.writes - before.writes;
            measured.io.write_bytes += after.write_bytes - before.write_bytes;
            measured.io.fsyncs += after.fsyncs - before.fsyncs;
        }
        let group_after = stack.object_store().durability();
        measured.group.0 += group_after.fsync_batches - group_before.fsync_batches;
        measured.group.1 += group_after.group_records - group_before.group_records;
        measured.segments.push(segment);
    }

    /// Measured segments until `budget` has passed since the first one began
    /// (and at least [`MIN_SEGMENTS`]), or exactly `fixed` segments;
    /// `between` runs after each, off the clock, while the clients idle.
    fn measure(&mut self, budget: Duration, fixed: Option<usize>, mut between: impl FnMut()) {
        let began = Instant::now();
        while match fixed {
            Some(n) => self.measured.segments.len() < n,
            None => self.measured.segments.len() < MIN_SEGMENTS || began.elapsed() < budget,
        } {
            self.segment(false);
            between();
        }
    }
}

/// The checks that run once the clients have stopped.
fn final_checks<K: Stack>(
    runner: &Runner<'_, K>,
    out: &std::path::Path,
    recovery_copies: usize,
    problems: &mut Vec<String>,
) -> Option<DurabilityReport> {
    let (system, pool) = (&runner.system, runner.pool);
    for segment in &runner.measured.segments {
        problems.extend(segment.failures.iter().cloned());
    }
    let exploits = system.stack.server().exploits();
    if !exploits.is_empty() {
        problems.push(format!(
            "{} exploit events behind the proxy (first: {})",
            exploits.len(),
            exploits[0].cve_id
        ));
    }
    for (index, watcher) in system.watchers.iter().enumerate() {
        if !watcher.in_order {
            problems.push(format!("subscriber {index} saw revisions out of order"));
        }
        if !watcher.matches_store(system.stack.server().store(), pool) {
            problems.push(format!(
                "subscriber {index}'s drained state differs from store.list"
            ));
        }
    }
    let health = system.stack.server().health_report();
    if health.shed_total + health.rejected_writes > 0 {
        problems.push(format!(
            "server shed {} and rejected {} requests",
            health.shed_total, health.rejected_writes
        ));
    }

    let durable = system.durable.as_ref()?;
    // Every seeded object was acknowledged by set-up at some revision >= 1;
    // client writes raise that to the last reply each key saw.
    let acknowledged: Vec<Acknowledged> = pool
        .objects
        .iter()
        .enumerate()
        .map(|(index, seeded)| Acknowledged {
            kind: seeded.object.kind(),
            namespace: seeded.object.namespace().to_owned(),
            name: seeded.object.name().to_owned(),
            revision: runner
                .clients
                .iter()
                .map(|client| client.acked[index])
                .max()
                .unwrap_or(0)
                .max(1),
        })
        .collect();
    let report = durability::check(
        &durable.io,
        durable.persistence.dir(),
        out,
        &acknowledged,
        Some(system.stack.object_store()),
        recovery_copies,
    );
    problems.extend(report.problems.iter().cloned());
    Some(report)
}

fn environment(options: &Options, clients: usize) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    Json::object()
        .with("workload", options.workload.name)
        .with("why", options.workload.why)
        .with(
            "load",
            format!(
                "closed loop, {clients} client thread(s){}",
                if options.workload.drain_thread {
                    " + 1 drain thread"
                } else {
                    ""
                }
            ),
        )
        .with("seed", options.seed)
        .with("smoke", options.smoke)
        .with(
            "fsync_policy",
            if options.workload.durable {
                FSYNC_POLICY
            } else {
                "none (in-memory store)"
            },
        )
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("rustc", rustc)
        .with("git_commit", commit)
}

fn spread(values: &[f64]) -> Json {
    let (min, max) = stats::min_max(values);
    Json::object()
        .with("median", stats::median(values))
        .with("min", min)
        .with("max", max)
        .with("samples", values.len())
        .with("values", values.to_vec())
}

fn catalog_metrics(
    catalog: &[crate::catalog::Metric],
    values: &BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    for name in values.keys() {
        if !catalog.iter().any(|m| m.name == *name) {
            problems.push(format!("metric {name} is measured but not declared"));
        }
    }
    catalog
        .iter()
        .map(|metric| {
            let value = values.get(metric.name).copied().unwrap_or_else(|| {
                problems.push(format!(
                    "metric {} is declared but not measured",
                    metric.name
                ));
                0.0
            });
            (metric.name, value, metric.unit)
        })
        .collect()
}

/// The end-to-end run: the program as it ships, the workload's own client
/// count, tracing off.
pub fn run_untraced(options: &Options) -> Outcome {
    let workload = *options.workload;
    let mut problems = Vec::new();
    let mut refused = Vec::new();
    let (validators, _) = generate_validators();
    let pool = Pool::build(
        options.seed,
        workload.clients,
        workload.replicas,
        &validators,
    );
    if let Err(problem) = check_verdict_parity(&pool, &validators) {
        problems.push(problem);
    }

    // Set-up, timed: once for the system the run measures, then once more
    // on fresh objects after every measured segment, so `setup_s` samples
    // the machine over the same window as every other metric (the box's
    // speed wanders by a quarter within a minute; 25 set-ups back to back
    // at process start read one instant of it and moved 60 % between runs).
    let mut setups = 0;
    let mut timed_setup = || {
        let spec = options.system_spec(&format!("setup{setups}"));
        setups += 1;
        let started = Instant::now();
        let system = build_plain(&spec, &pool);
        (started.elapsed().as_secs_f64(), system, spec)
    };
    let (first_setup, system, spec) = timed_setup();
    let mut setup_s = vec![first_setup];

    let per_client = options.segment_requests() / workload.clients;
    let mut runner = Runner::new(
        system,
        &pool,
        workload,
        options.seed,
        workload.clients,
        per_client,
    );
    // The extra set-ups are not the serving program's memory: the peak is
    // read before each and reset after it (`/proc/self/clear_refs`).
    let mut rss_peak_mib = 0f64;
    runner.live(|live| {
        live.warm();
        live.measure(
            Duration::from_secs_f64(options.seconds),
            options.smoke.then_some(2),
            || {
                rss_peak_mib = rss_peak_mib.max(peak_rss_mib());
                let (seconds, system, spec) = timed_setup();
                setup_s.push(seconds);
                drop(system);
                remove_dir(&spec);
                reset_peak_rss();
            },
        );
    });
    // Read before the checks run: reopening a crash copy in this process
    // would otherwise be charged to the server's peak.
    let rss_peak_mib = rss_peak_mib.max(peak_rss_mib());
    let durability = final_checks(&runner, &options.out, 1, &mut problems);
    let measured = &runner.measured;
    // Unlinking under the open handles is fine; the run is over.
    remove_dir(&spec);

    let p50 = measured.per_segment(|s| s.all.p50 as f64 / 1e3);
    let p99: Vec<f64> = measured
        .segments
        .iter()
        .map(|s| p99_us(&s.all, "latency_p99_us", &mut refused))
        .collect();
    let throughput = measured.per_segment(Segment::throughput);
    let cpu = measured.per_segment(|s| s.cpu.as_secs_f64() * 1e6 / s.requests.max(1) as f64);
    let attempted = measured.attempted();
    let failed = measured.failed();

    let mut values = BTreeMap::new();
    values.insert("setup_s", stats::median(&setup_s));
    values.insert("throughput_rps", stats::median(&throughput));
    values.insert("latency_p50_us", stats::median(&p50));
    values.insert("latency_p99_us", stats::median(&p99));
    values.insert("cpu_us_per_req", stats::median(&cpu));
    values.insert("rss_peak_mib", rss_peak_mib);
    let metrics = catalog_metrics(END_TO_END, &values, &mut problems);

    if !options.smoke {
        // A refused tail percentile means the segments are too short for
        // the metric they feed; that is a defect of the run, not a detail.
        problems.extend(refused.iter().cloned());
    }
    let per_verb = |pick: fn(&Segment) -> &Summary| {
        spread(&measured.per_segment(|s| pick(s).p50 as f64 / 1e3))
    };
    let mut detail = environment(options, workload.clients)
        .with("mode", "untraced")
        .with("segments", measured.segments.len())
        .with(
            "segment_requests",
            measured
                .segments
                .iter()
                .map(|s| s.requests)
                .collect::<Vec<_>>(),
        )
        .with("samples_per_segment", per_client * workload.clients)
        .with("setup_s", spread(&setup_s))
        .with("throughput_rps", spread(&throughput))
        .with("latency_p50_us", spread(&p50))
        .with("latency_p99_us", spread(&p99))
        .with("cpu_us_per_req", spread(&cpu))
        .with("create_p50_us", per_verb(|s| &s.create))
        .with("get_p50_us", per_verb(|s| &s.get))
        .with("list_p50_us", per_verb(|s| &s.list))
        .with("deny_p50_us", per_verb(|s| &s.deny))
        .with("error_share", failed as f64 / attempted.max(1) as f64)
        .with("checkpoints", measured.checkpoints().len())
        .with("refused_percentiles", refused);
    if workload.drain_thread {
        let mut ignore = Vec::new();
        detail = detail
            .with(
                "delivery_lag_p50_us",
                spread(&measured.per_segment(|s| s.lag.p50 as f64 / 1e3)),
            )
            .with(
                "delivery_lag_p99_us",
                spread(&measured.per_segment(|s| p99_us(&s.lag, "", &mut ignore))),
            );
    }
    if let Some(report) = &durability {
        detail = detail
            .with("recovery_s", spread(&report.recovery_s))
            .with("crash_copy_cut_bytes", report.cut_bytes)
            .with("recovered_objects", report.recovery.live_objects)
            .with("replayed_records", report.recovery.replayed);
    }
    detail = detail.with("problems", problems.clone());

    Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        problems,
        detail,
    }
}

fn median_secs(samples: impl Iterator<Item = Duration>) -> f64 {
    stats::median(&samples.map(|d| d.as_secs_f64()).collect::<Vec<_>>())
}

/// The per-layer run: single client, layer probes, then the same traffic
/// with and without the span wrappers.
pub fn run_traced(options: &Options) -> Outcome {
    let workload = *options.workload;
    let mut problems = Vec::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (validators, _) = generate_validators();
    let pool = Pool::build(options.seed, 1, workload.replicas, &validators);
    if let Err(problem) = check_verdict_parity(&pool, &validators) {
        problems.push(problem);
    }

    // Set-up by part, median of a few repeats.
    let mut parts: Vec<SetupTimes> = Vec::new();
    for _ in 0..5 {
        let (_, mut times) = generate_validators();
        learn_policy(&pool, &mut times);
        parts.push(times);
    }
    values.insert(
        "helm_lite.render_s",
        median_secs(parts.iter().map(|t| t.render)),
    );
    values.insert(
        "kubefence.pipeline.generate_s",
        median_secs(parts.iter().map(|t| t.generate)),
    );
    values.insert(
        "k8s_rbac.audit2rbac_s",
        median_secs(parts.iter().map(|t| t.audit2rbac)),
    );
    let aot = options
        .out
        .join(format!("validators-{}.kfaot", std::process::id()));
    std::fs::create_dir_all(&options.out).expect("output directory is creatable");
    kubefence::save_validator_set(&aot, &validators).expect("AOT cache is writable");
    let loads: Vec<Duration> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let loaded = kubefence::load_validator_set(&aot).expect("AOT cache loads");
            let elapsed = started.elapsed();
            assert!(loaded.is_some(), "the cache just written exists");
            elapsed
        })
        .collect();
    let _ = std::fs::remove_file(&aot);
    values.insert("kubefence.aot.load_s", median_secs(loads.into_iter()));

    // Layer probes over this workload's pool.
    let policy = learn_policy(&pool, &mut SetupTimes::default());
    values.extend(probes::run(
        &pool,
        &validators,
        &policy,
        if options.smoke { 2 } else { 24 },
    ));

    values.insert(
        "k8s_apiserver.persist.device_fsync_us_p50",
        if workload.durable {
            probes::device_fsync_us(&options.out, if options.smoke { 20 } else { 400 })
        } else {
            0.0
        },
    );

    let per_client = options.segment_requests() / workload.clients;

    // The same schedule through two systems, single client: the program as
    // it ships (per-verb client latencies, and the baseline tracing overhead
    // is measured against) and the program behind the span wrappers. Their
    // segments alternate, so a drift in the machine or the disk lands on
    // both sides of the overhead ratio alike.
    let plain_spec = options.system_spec("plain");
    let traced_spec = options.system_spec("traced");
    let mut plain = Runner::new(
        build_plain(&plain_spec, &pool),
        &pool,
        workload,
        options.seed,
        1,
        per_client,
    );
    let mut wrapped = Runner::new(
        build_traced(&traced_spec, &pool),
        &pool,
        workload,
        options.seed,
        1,
        per_client,
    );
    let budget = Duration::from_secs_f64(options.seconds);
    plain.live(|plain| {
        wrapped.live(|wrapped| {
            plain.warm();
            wrapped.warm();
            let began = Instant::now();
            while match options.smoke {
                true => wrapped.measured.segments.len() < 2,
                false => wrapped.measured.segments.len() < MIN_SEGMENTS || began.elapsed() < budget,
            } {
                plain.segment(false);
                wrapped.segment(true);
            }
        })
    });
    let plain_durability = final_checks(&plain, &options.out, RECOVERY_COPIES, &mut problems);
    let checkpoints = wrapped.measured.checkpoints();
    let traced_durability = final_checks(&wrapped, &options.out, 1, &mut problems);
    let spans: Vec<trace::Span> = wrapped
        .measured
        .segments
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.spans))
        .collect();
    let traced_system = &wrapped.system;
    let (untraced, traced) = (&plain.measured, &wrapped.measured);
    let trace_path = options
        .out
        .join(format!("trace-{}.jsonl", options.workload.name));
    let written = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    if let Err(e) = std::fs::write(&trace_path, trace::to_jsonl(written)) {
        problems.push(format!("cannot write {}: {e}", trace_path.display()));
    }
    match layers::analyse(&spans) {
        Ok(report) => {
            if report.requests as u64 != traced.attempted() {
                problems.push(format!(
                    "{} requests traced, {} issued",
                    report.requests,
                    traced.attempted()
                ));
            }
            if !options.smoke {
                problems.extend(report.refused.iter().cloned());
            }
            values.extend(report.metrics);
        }
        Err(problem) => problems.push(format!("trace: {problem}")),
    }

    // Counts taken at the layer boundaries during the traced segments.
    let validated = traced.proxy.forwarded + traced.proxy.denied;
    values.insert("kubefence.proxy.forwarded", traced.proxy.forwarded as f64);
    values.insert("kubefence.proxy.denied", traced.proxy.denied as f64);
    values.insert(
        "kubefence.proxy.passthrough",
        traced.proxy.passthrough as f64,
    );
    values.insert(
        "kubefence.proxy.dropped_denials",
        traced.dropped_denials as f64,
    );
    values.insert(
        "kubefence.proxy.validation_ns_per_req",
        traced.proxy.validation_time_us as f64 * 1e3 / validated.max(1) as f64,
    );
    let lists: u64 = traced.segments.iter().map(|s| s.list.samples as u64).sum();
    let list_bytes: u64 = traced.segments.iter().map(|s| s.list_wire_bytes).sum();
    values.insert(
        "k8s_apiserver.request.wire_bytes_per_list",
        list_bytes as f64 / lists.max(1) as f64,
    );
    let counters = traced_system.stack.server().store().counters();
    let (store_lists, store_items) = (
        counters.lists.load(std::sync::atomic::Ordering::Relaxed),
        counters
            .listed_items
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    values.insert(
        "k8s_apiserver.store.items_per_list",
        store_items as f64 / store_lists.max(1) as f64,
    );

    let watchers = &traced_system.watchers;
    let delivered: u64 = traced.segments.iter().map(|s| s.drained_events).sum();
    let wakeups: u64 = traced.segments.iter().map(|s| s.wakeups).sum();
    let coalesced: u64 = watchers.iter().map(|w| w.coalesced()).sum();
    values.insert("k8s_apiserver.watch.delivered", delivered as f64);
    values.insert("k8s_apiserver.watch.coalesced", coalesced as f64);
    values.insert(
        "k8s_apiserver.watch.coalesce_ratio",
        coalesced as f64 / (delivered + coalesced).max(1) as f64,
    );
    values.insert(
        "k8s_apiserver.watch.evictions",
        watchers.iter().map(|w| w.evictions).sum::<u64>() as f64,
    );
    values.insert(
        "k8s_apiserver.watch.relists",
        watchers.iter().map(|w| w.relists).sum::<u64>() as f64,
    );
    values.insert(
        "k8s_apiserver.watch.events_per_wakeup",
        delivered as f64 / wakeups.max(1) as f64,
    );

    let writes = traced
        .segments
        .iter()
        .map(|s| s.create.samples as u64)
        .sum::<u64>();
    let per_write = |count: u64| count as f64 / writes.max(1) as f64;
    values.insert(
        "k8s_apiserver.persist.wal_bytes_per_write",
        per_write(traced.io.write_bytes),
    );
    values.insert(
        "k8s_apiserver.persist.write_calls_per_write",
        per_write(traced.io.writes),
    );
    values.insert(
        "k8s_apiserver.persist.fsyncs_per_write",
        per_write(traced.io.fsyncs),
    );
    values.insert(
        "k8s_apiserver.persist.avg_group_size",
        traced.group.1 as f64 / traced.group.0.max(1) as f64,
    );
    let checkpoint_median = |pick: fn(&CheckpointSample) -> f64| {
        stats::median(&checkpoints.iter().map(pick).collect::<Vec<_>>())
    };
    values.insert(
        "k8s_apiserver.persist.checkpoint_ms_p50",
        checkpoint_median(|c| c.millis),
    );
    values.insert(
        "k8s_apiserver.persist.checkpoint_bytes",
        checkpoint_median(|c| c.bytes as f64),
    );
    values.insert(
        "k8s_apiserver.persist.checkpoint_dirty_shards",
        checkpoint_median(|c| c.dirty_shards as f64),
    );
    values.insert(
        "k8s_apiserver.persist.checkpoints",
        checkpoints.len() as f64,
    );
    let live_bytes: u64 = traced_system
        .stack
        .object_store()
        .snapshot_objects()
        .iter()
        .map(|stored| kf_yaml::binary::value_to_bytes(stored.object.body()).len() as u64)
        .sum();
    let recovery = traced_durability.as_ref();
    values.insert(
        "k8s_apiserver.persist.replayed_records",
        recovery.map_or(0.0, |r| r.recovery.replayed as f64),
    );
    values.insert(
        "k8s_apiserver.persist.recovered_objects",
        recovery.map_or(0.0, |r| r.recovery.live_objects as f64),
    );
    values.insert(
        "k8s_apiserver.persist.disk_bytes_per_live_byte",
        recovery.map_or(0.0, |r| r.disk_bytes as f64 / live_bytes.max(1) as f64),
    );
    let health = traced_system.stack.server().health_report();
    values.insert("k8s_apiserver.health.shed_429", health.shed_total as f64);
    values.insert(
        "k8s_apiserver.health.rejected_writes_503",
        health.rejected_writes as f64,
    );
    remove_dir(&plain_spec);
    remove_dir(&traced_spec);

    // Client-observed, per verb: single client, tracing off.
    let mut refused = Vec::new();
    let verb = |pick: fn(&Segment) -> &Summary| untraced.median(|s| pick(s).p50 as f64 / 1e3);
    values.insert("client.create_p50_us", verb(|s| &s.create));
    values.insert("client.get_p50_us", verb(|s| &s.get));
    values.insert("client.list_p50_us", verb(|s| &s.list));
    values.insert("client.deny_p50_us", verb(|s| &s.deny));
    values.insert(
        "client.delivery_lag_p50_us",
        untraced.median(|s| s.lag.p50 as f64 / 1e3),
    );
    let lag_p99: Vec<f64> = untraced
        .segments
        .iter()
        .map(|s| p99_us(&s.lag, "client.delivery_lag_p99_us", &mut refused))
        .collect();
    values.insert("client.delivery_lag_p99_us", stats::median(&lag_p99));
    values.insert(
        "client.recovery_s",
        plain_durability
            .as_ref()
            .map_or(0.0, |r| stats::median(&r.recovery_s)),
    );
    let attempted = untraced.attempted() + traced.attempted();
    let failed = untraced.failed() + traced.failed();
    values.insert(
        "client.error_share",
        failed as f64 / attempted.max(1) as f64,
    );
    let untraced_rps = untraced.median(Segment::throughput);
    let traced_rps = traced.median(Segment::throughput);
    values.insert(
        "trace.overhead_share",
        1.0 - traced_rps / untraced_rps.max(1e-9),
    );
    if !options.smoke {
        problems.extend(refused);
    }

    let metrics = catalog_metrics(PER_LAYER, &values, &mut problems);
    let detail = environment(options, 1)
        .with("mode", "traced")
        .with("untraced_segments", untraced.segments.len())
        .with("traced_segments", traced.segments.len())
        .with("requests_per_segment", per_client)
        .with("untraced_throughput_rps", untraced_rps)
        .with("traced_throughput_rps", traced_rps)
        .with("spans", spans.len())
        .with("spans_written", written.len())
        .with("trace_file", trace_path.display().to_string())
        .with("problems", problems.clone());
    Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        problems,
        detail,
    }
}

/// What a single client saw, request by request, and what the store held
/// when it stopped — the behaviour the traced and untraced program must
/// share.
#[derive(Debug, PartialEq, Eq)]
pub struct Transcript {
    /// One hash per request of (status, message, wire bytes), in order.
    pub replies: Vec<u64>,
    /// The final `snapshot_objects`: (kind, namespace, name, resource
    /// version, body as YAML).
    pub snapshot: Vec<(String, String, String, u64, String)>,
}

/// Drive `segments` smoke-sized segments of the workload from one client,
/// through the plain or the traced stack (spans recorded), and return what
/// the client saw.
pub fn transcript(options: &Options, traced: bool, segments: usize) -> Transcript {
    fn drive<K: Stack>(
        system: System<K>,
        pool: &Pool,
        options: &Options,
        traced: bool,
        segments: usize,
    ) -> Transcript {
        let workload = *options.workload;
        let mut runner = Runner::new(
            system,
            pool,
            workload,
            options.seed,
            1,
            workload.smoke_segment_requests,
        );
        runner.clients[0].transcript = Some(Vec::new());
        runner.live(|live| {
            for _ in 0..segments {
                live.segment(traced);
            }
        });
        assert_eq!(
            runner.measured.failed(),
            0,
            "{:?}",
            runner.measured.segments[0].failures
        );
        Transcript {
            replies: runner.clients[0].transcript.take().unwrap_or_default(),
            snapshot: runner
                .system
                .stack
                .object_store()
                .snapshot_objects()
                .iter()
                .map(|stored| {
                    (
                        stored.object.kind().to_string(),
                        stored.object.namespace().to_owned(),
                        stored.object.name().to_owned(),
                        stored.resource_version,
                        stored.object.to_yaml(),
                    )
                })
                .collect(),
        }
    }
    let (validators, _) = generate_validators();
    let pool = Pool::build(options.seed, 1, options.workload.replicas, &validators);
    let spec = options.system_spec(if traced { "eq-traced" } else { "eq-plain" });
    let result = if traced {
        drive(build_traced(&spec, &pool), &pool, options, true, segments)
    } else {
        drive(build_plain(&spec, &pool), &pool, options, false, segments)
    };
    remove_dir(&spec);
    result
}
