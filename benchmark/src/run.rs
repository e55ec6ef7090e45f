//! The closed-loop load generator: clients, segments, and what each
//! request's outcome is checked against.
//!
//! One request is: raw wire bytes in → `EnforcementProxy::handle` →
//! `ApiServer::handle` → store (→ WAL → fsync) → response body rendered
//! with `ResponseBody::to_wire` in the request's format. The clock stops
//! after `to_wire`. Each client sends its next request only when the
//! previous reply is in hand.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use k8s_apiserver::{ApiResponse, RequestHandler, ResponseStatus};
use kf_yaml::BodyFormat;

use crate::pool::{Class, Pool};
use crate::setup::{dispatcher_for, Durable, Stack, System, Watcher};
use crate::stats::Summary;
use crate::trace::{self, Span};
use crate::workload::Workload;

/// One in this many gets and lists keeps its wire bytes for verification
/// after the segment (off the clock).
const VERIFY_EVERY: u64 = 64;

/// What one client carries from segment to segment.
#[derive(Debug)]
pub struct ClientState {
    /// Client index.
    pub id: usize,
    schedule: Vec<u32>,
    cursor: usize,
    issued: u64,
    /// Last acknowledged `resourceVersion` per seeded object (0: never
    /// written by this client).
    pub acked: Vec<u64>,
    /// When `Some`, one hash per request of (status, message, wire bytes).
    pub transcript: Option<Vec<u64>>,
}

impl ClientState {
    /// A client at the start of `schedule`.
    pub fn new(id: usize, schedule: Vec<u32>, pool: &Pool) -> Self {
        ClientState {
            id,
            schedule,
            cursor: 0,
            issued: 0,
            acked: vec![0; pool.objects.len()],
            transcript: None,
        }
    }
}

/// Publish times of the writes of one segment, indexed by revision, so the
/// drain side can compute publish-to-drain lag (the `watch_fanout` bench's
/// technique). The client stamps a revision when its reply is in hand.
#[derive(Debug)]
pub struct Stamps {
    base: AtomicU64,
    nanos: Vec<AtomicU64>,
    epoch: Instant,
}

impl Stamps {
    /// Room for `writes` revisions per segment.
    pub fn new(writes: usize) -> Self {
        Stamps {
            base: AtomicU64::new(0),
            nanos: (0..writes).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
        }
    }

    /// Start a segment: revisions above `base` are measured.
    pub fn reset(&self, base: u64) {
        self.base.store(base, Ordering::Release);
        for slot in &self.nanos {
            slot.store(0, Ordering::Relaxed);
        }
    }

    fn slot(&self, revision: u64) -> Option<&AtomicU64> {
        let base = self.base.load(Ordering::Acquire);
        let index = revision.checked_sub(base + 1)?;
        self.nanos.get(index as usize)
    }

    /// Record that `revision` was published now.
    pub fn stamp(&self, revision: u64) {
        if let Some(slot) = self.slot(revision) {
            let now = self.epoch.elapsed().as_nanos() as u64;
            slot.store(now.max(1), Ordering::Release);
        }
    }

    /// Nanoseconds since `revision` was stamped; `None` outside the
    /// measured window. A drain that outruns the stamp (the event is
    /// offered inside `upsert`, the stamp follows the reply) waits for it.
    pub fn lag(&self, revision: u64) -> Option<u64> {
        let slot = self.slot(revision)?;
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut published = slot.load(Ordering::Acquire);
        while published == 0 {
            if Instant::now() > deadline {
                return None;
            }
            std::thread::yield_now();
            published = slot.load(Ordering::Acquire);
        }
        Some((self.epoch.elapsed().as_nanos() as u64).saturating_sub(published))
    }
}

/// One inline checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSample {
    /// Wall time of `Persistence::checkpoint`.
    pub millis: f64,
    /// Bytes it published (segments, manifest, compacted WAL).
    pub bytes: u64,
    /// Store shards it rewrote.
    pub dirty_shards: usize,
}

/// What one segment measured.
#[derive(Debug, Default)]
pub struct Segment {
    /// Requests completed.
    pub requests: usize,
    /// Wall time from first request sent to last reply received.
    pub wall: Duration,
    /// Process CPU time (user + system) over the same interval.
    pub cpu: Duration,
    /// Per-request latency, all verbs (ns).
    pub all: Summary,
    /// Admitted creates (ns).
    pub create: Summary,
    /// Gets (ns).
    pub get: Summary,
    /// Lists (ns).
    pub list: Summary,
    /// Requests the proxy answered 403 (ns).
    pub deny: Summary,
    /// Publish-to-drain lag of delivered watch events (ns).
    pub lag: Summary,
    /// Requests whose outcome was not the expected one.
    pub failed: u64,
    /// The first few unexpected outcomes, described.
    pub failures: Vec<String>,
    /// Wire bytes of list replies.
    pub list_wire_bytes: u64,
    /// Non-empty watch drains.
    pub wakeups: u64,
    /// Events those drains handed out.
    pub drained_events: u64,
    /// Inline checkpoints taken.
    pub checkpoints: Vec<CheckpointSample>,
    /// Spans recorded (traced segments only).
    pub spans: Vec<Span>,
}

impl Segment {
    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

#[derive(Debug, Default)]
struct ClientOutput {
    all: Vec<u64>,
    create: Vec<u64>,
    get: Vec<u64>,
    list: Vec<u64>,
    deny: Vec<u64>,
    failed: u64,
    failures: Vec<String>,
    list_wire_bytes: u64,
    /// (pool index, wire bytes) of sampled gets and lists.
    verify: Vec<(u32, String)>,
    wakeups: u64,
    drained_events: u64,
    checkpoints: Vec<CheckpointSample>,
    spans: Vec<Span>,
    /// When the client sent its first request and received its last reply.
    started: Option<Instant>,
    finished: Option<Instant>,
}

/// Process CPU time so far: `utime + stime` from `/proc/self/stat`, in the
/// kernel's USER_HZ ticks (100 per second on every Linux ABI).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |field: Option<&str>| field.and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    let total = ticks(fields.next()) + ticks(fields.next());
    Duration::from_millis(total * 10)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Restart the kernel's peak-RSS tracking (`VmHWM`) from the current
/// resident set. Where the kernel refuses, the peak simply keeps its history.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn acknowledged_revision(message: &str) -> Option<u64> {
    let (_, rest) = message.split_once("resourceVersion ")?;
    rest.trim_end_matches(')').parse().ok()
}

fn transcript_hash(response: &ApiResponse, wire: Option<&str>) -> u64 {
    let mut hasher = std::hash::DefaultHasher::new();
    response.status.code().hash(&mut hasher);
    response.message.hash(&mut hasher);
    wire.hash(&mut hasher);
    hasher.finish()
}

/// Take one inline checkpoint and describe it.
fn checkpoint<K: Stack>(stack: &K, durable: &Durable) -> CheckpointSample {
    let before = durable.io.counts();
    let started = Instant::now();
    let report = {
        let _span = trace::span("persist.checkpoint");
        durable
            .persistence
            .checkpoint(stack.object_store())
            .expect("checkpoint succeeds on a healthy disk")
    };
    let millis = started.elapsed().as_secs_f64() * 1e3;
    let after = durable.io.counts();
    CheckpointSample {
        millis,
        bytes: after.file_write_bytes - before.file_write_bytes,
        dirty_shards: report.dirty_shards,
    }
}

struct ClientContext<'a, K: Stack> {
    stack: &'a K,
    pool: &'a Pool,
    workload: &'a Workload,
    durable: Option<&'a Durable>,
    stamps: &'a Stamps,
}

fn client_loop<K: Stack>(
    ctx: &ClientContext<'_, K>,
    state: &mut ClientState,
    count: usize,
    traced: bool,
    watchers: &mut [Watcher],
) -> ClientOutput {
    if traced {
        trace::start_thread(state.id as u32 + 1, count * 12 + 256);
    }
    let front = ctx.stack.front();
    let mut out = ClientOutput {
        all: Vec::with_capacity(count),
        ..ClientOutput::default()
    };
    out.started = Some(Instant::now());
    for step in 0..count {
        let pool_index = state.schedule[state.cursor];
        state.cursor = (state.cursor + 1) % state.schedule.len();
        state.issued += 1;
        let entry = &ctx.pool.requests[pool_index as usize];
        let request_id = ((state.id as u64 + 1) << 40) | state.issued;

        let started = Instant::now();
        let root = traced.then(|| trace::request_span("client.request", request_id));
        let response = front.handle(&entry.request);
        let wire = response.body.as_ref().map(|body| {
            let _span = traced.then(|| trace::span("client.to_wire"));
            body.to_wire(entry.format)
        });
        let elapsed = started.elapsed().as_nanos() as u64;

        // Everything below is the load generator's own bookkeeping, outside
        // the request's latency.
        let denied_by_proxy = response.status == ResponseStatus::Forbidden
            && response.message.starts_with("KubeFence:");
        let expected = match entry.class {
            Class::Create => response.is_success(),
            Class::Get | Class::List => response.status == ResponseStatus::Ok && wire.is_some(),
            Class::Attack | Class::Malformed => denied_by_proxy,
        };
        if let Some(root) = &root {
            root.rename(match entry.class {
                _ if denied_by_proxy => "client.deny",
                Class::Get => "client.get",
                Class::List => "client.list",
                _ => "client.create",
            });
        }
        drop(root);
        out.all.push(elapsed);
        if !expected {
            out.failed += 1;
            if out.failures.len() < 4 {
                out.failures.push(format!(
                    "{:?} {} -> {} {}",
                    entry.class,
                    entry.request.path(),
                    response.status.code(),
                    response.message
                ));
            }
        }
        if let Some(transcript) = &mut state.transcript {
            transcript.push(transcript_hash(&response, wire.as_deref()));
        }
        match entry.class {
            _ if denied_by_proxy => out.deny.push(elapsed),
            Class::Create if expected => {
                out.create.push(elapsed);
                if let Some(revision) = acknowledged_revision(&response.message) {
                    state.acked[entry.object.expect("creates are keyed") as usize] = revision;
                    ctx.stamps.stamp(revision);
                }
            }
            Class::Get | Class::List => {
                if entry.class == Class::Get {
                    out.get.push(elapsed);
                } else {
                    out.list.push(elapsed);
                    out.list_wire_bytes += wire.as_ref().map_or(0, String::len) as u64;
                }
                if state.issued.is_multiple_of(VERIFY_EVERY) {
                    if let Some(wire) = wire {
                        out.verify.push((pool_index, wire));
                    }
                }
            }
            _ => {}
        }

        if ctx.workload.pump_every > 0 && (step + 1) % ctx.workload.pump_every == 0 {
            for watcher in watchers.iter_mut() {
                let _span = traced.then(|| trace::span("watch.drain"));
                let drained = watcher.drain(ctx.stack.server(), ctx.pool, |_| {});
                out.wakeups += u64::from(drained > 0);
                out.drained_events += drained as u64;
            }
        }
        // One inline checkpoint per segment, halfway through client 0's
        // share, so every segment of a durable workload is the same work.
        if let (0, Some(durable), true) = (state.id, ctx.durable, step == count / 2) {
            out.checkpoints.push(checkpoint(ctx.stack, durable));
        }
    }
    out.finished = Some(Instant::now());
    if traced {
        out.spans = trace::finish_thread();
    }
    out
}

/// Check a sampled reply off the clock: a get must carry the object last
/// applied under that key, a list the whole collection.
fn verify_reply(pool: &Pool, pool_index: u32, wire: &str) -> Result<(), String> {
    let entry = &pool.requests[pool_index as usize];
    let parsed = match entry.format {
        BodyFormat::Json => kf_yaml::parse_json(wire),
        _ => kf_yaml::parse(wire),
    }
    .map_err(|e| format!("{} reply does not parse: {e}", entry.request.path()))?;
    match entry.class {
        Class::Get => {
            let expected = &pool.objects[entry.object.expect("gets are keyed") as usize];
            if parsed.loosely_equals(expected.object.body()) {
                Ok(())
            } else {
                Err(format!(
                    "{} returned a different object than the one applied",
                    entry.request.path()
                ))
            }
        }
        _ => {
            let expected = pool
                .objects
                .iter()
                .filter(|o| {
                    o.object.kind() == entry.request.kind
                        && (entry.request.namespace.is_empty()
                            || o.object.namespace() == entry.request.namespace)
                })
                .count();
            let items = parsed
                .get("items")
                .and_then(|items| items.as_seq())
                .map_or(0, <[_]>::len);
            if items == expected {
                Ok(())
            } else {
                Err(format!(
                    "{} listed {items} items, the store holds {expected}",
                    entry.request.path()
                ))
            }
        }
    }
}

enum ClientCommand {
    /// Issue `count` requests.
    Run { count: usize, traced: bool },
    /// Every client has stopped writing: drain this client's own
    /// subscribers to the end (off the clock) and report the event count.
    Quiesce,
}

enum DrainCommand {
    Begin { traced: bool, capacity: usize },
    End,
}

#[derive(Default)]
struct DrainOutput {
    lag: Vec<u64>,
    wakeups: u64,
    events: u64,
    spans: Vec<Span>,
}

/// The drain thread: surfaces ready subscribers through the dispatcher and
/// drains them, for as long as the workers live. Between `Begin` and `End`
/// it accumulates one segment's lag samples and counts; `End` quiesces
/// (drains every subscriber directly) before reporting.
fn drain_loop<K: Stack>(
    ctx: &ClientContext<'_, K>,
    watchers: &mut [Watcher],
    commands: std::sync::mpsc::Receiver<DrainCommand>,
    outputs: std::sync::mpsc::Sender<DrainOutput>,
) {
    use std::sync::mpsc::TryRecvError;
    let dispatcher = dispatcher_for(watchers);
    let hub = ctx.stack.server();
    let mut out = DrainOutput::default();
    let mut traced = false;
    let drain_one = |watcher: &mut Watcher, out: &mut DrainOutput, traced: bool| {
        let _span = traced.then(|| trace::span("watch.drain"));
        let evictions = watcher.evictions;
        let drained = watcher.drain(hub, ctx.pool, |revision| {
            out.lag.extend(ctx.stamps.lag(revision));
        });
        out.wakeups += u64::from(drained > 0);
        out.events += drained as u64;
        watcher.evictions != evictions
    };
    loop {
        match commands.try_recv() {
            Ok(DrainCommand::Begin {
                traced: on,
                capacity,
            }) => {
                traced = on;
                out = DrainOutput::default();
                if traced {
                    trace::start_thread(64, capacity);
                }
            }
            Ok(DrainCommand::End) => {
                for watcher in watchers.iter_mut() {
                    drain_one(watcher, &mut out, traced);
                }
                if traced {
                    out.spans = trace::finish_thread();
                    traced = false;
                }
                if outputs.send(std::mem::take(&mut out)).is_err() {
                    return;
                }
            }
            Err(TryRecvError::Disconnected) => return,
            Err(TryRecvError::Empty) => {}
        }
        if let Some(token) = dispatcher.next_ready(Duration::from_millis(1)) {
            if drain_one(&mut watchers[token], &mut out, traced) {
                // Evicted and re-listed: the fresh subscription needs arming.
                dispatcher.register(watchers[token].subscriber(), token);
            }
        }
    }
}

/// The long-lived threads of one system under load: one per client, plus
/// the drain thread when the workload has one. They live for the whole
/// measurement, as a server's workers and an informer's collector do;
/// segments are demarcated by messages, not by respawning them.
pub struct Workers<'a, K: Stack> {
    stack: &'a K,
    pool: &'a Pool,
    durable: Option<&'a Durable>,
    stamps: &'a Stamps,
    clients: Vec<(
        std::sync::mpsc::Sender<ClientCommand>,
        std::sync::mpsc::Receiver<ClientOutput>,
    )>,
    drain: Option<(
        std::sync::mpsc::Sender<DrainCommand>,
        std::sync::mpsc::Receiver<DrainOutput>,
    )>,
}

impl<K: Stack> Workers<'_, K> {
    /// The request stack the workers drive.
    pub fn stack(&self) -> &K {
        self.stack
    }

    /// The durable plane, when the workload has one.
    pub fn durable(&self) -> Option<&Durable> {
        self.durable
    }

    /// Run one segment: every client issues `per_client` requests, closed
    /// loop. With `traced`, client and drain threads record spans (the
    /// stack must be the traced one for the inner layers to show).
    pub fn segment(&mut self, per_client: usize, traced: bool) -> Segment {
        self.stamps.reset(self.stack.object_store().revision());
        if let Some((commands, _)) = &self.drain {
            commands
                .send(DrainCommand::Begin {
                    traced,
                    capacity: per_client * 4 + 1024,
                })
                .expect("drain thread is alive");
        }
        let cpu_before = process_cpu();
        for (commands, _) in &self.clients {
            commands
                .send(ClientCommand::Run {
                    count: per_client,
                    traced,
                })
                .expect("client thread is alive");
        }
        let outputs: Vec<ClientOutput> = self
            .clients
            .iter()
            .map(|(_, outputs)| outputs.recv().expect("client thread panicked"))
            .collect();
        let mut segment = Segment {
            cpu: process_cpu().saturating_sub(cpu_before),
            ..Segment::default()
        };
        // First request sent to last reply received, across the clients.
        let started = outputs.iter().filter_map(|o| o.started).min();
        let finished = outputs.iter().filter_map(|o| o.finished).max();
        if let (Some(started), Some(finished)) = (started, finished) {
            segment.wall = finished.duration_since(started);
        }
        for (commands, _) in &self.clients {
            commands
                .send(ClientCommand::Quiesce)
                .expect("client thread is alive");
        }
        for (_, quiesced) in &self.clients {
            segment.drained_events += quiesced
                .recv()
                .expect("client thread panicked")
                .drained_events;
        }
        let mut lag = Vec::new();
        if let Some((commands, drained)) = &self.drain {
            commands
                .send(DrainCommand::End)
                .expect("drain thread is alive");
            let output = drained.recv().expect("drain thread panicked");
            lag = output.lag;
            segment.wakeups += output.wakeups;
            segment.drained_events += output.events;
            segment.spans.extend(output.spans);
        }

        let (mut all, mut create, mut get, mut list, mut deny) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for mut output in outputs {
            for (pool_index, wire) in &output.verify {
                if let Err(problem) = verify_reply(self.pool, *pool_index, wire) {
                    output.failed += 1;
                    output.failures.push(problem);
                }
            }
            segment.requests += output.all.len();
            all.append(&mut output.all);
            create.append(&mut output.create);
            get.append(&mut output.get);
            list.append(&mut output.list);
            deny.append(&mut output.deny);
            segment.failed += output.failed;
            segment.failures.extend(output.failures);
            segment.list_wire_bytes += output.list_wire_bytes;
            segment.wakeups += output.wakeups;
            segment.drained_events += output.drained_events;
            segment.checkpoints.extend(output.checkpoints);
            segment.spans.extend(output.spans);
        }
        segment.failures.truncate(8);
        segment.all = Summary::of(all);
        segment.create = Summary::of(create);
        segment.get = Summary::of(get);
        segment.list = Summary::of(list);
        segment.deny = Summary::of(deny);
        segment.lag = Summary::of(lag);
        segment
    }
}

/// Start the worker threads of `system`, hand them to `body`, and stop and
/// join them when it returns. `clients` carry each client's position from
/// call to call.
pub fn with_workers<K: Stack, R>(
    system: &mut System<K>,
    pool: &Pool,
    workload: &Workload,
    clients: &mut [ClientState],
    stamps: &Stamps,
    body: impl FnOnce(&mut Workers<'_, K>) -> R,
) -> R {
    use std::sync::mpsc::channel;
    let System {
        stack,
        watchers,
        durable,
    } = system;
    let stack: &K = stack;
    let ctx = ClientContext {
        stack,
        pool,
        workload,
        durable: durable.as_ref(),
        stamps,
    };
    // Watchers go to the drain thread, or are split among the clients.
    let (drained, mut pumped): (&mut [Watcher], Vec<&mut [Watcher]>) = if workload.drain_thread {
        (
            &mut watchers[..],
            clients.iter().map(|_| Default::default()).collect(),
        )
    } else {
        let share = watchers.len().div_ceil(clients.len()).max(1);
        let mut chunks: Vec<&mut [Watcher]> = watchers.chunks_mut(share).collect();
        chunks.resize_with(clients.len(), Default::default);
        (Default::default(), chunks)
    };
    std::thread::scope(|scope| {
        let ctx = &ctx;
        let mut workers = Workers {
            stack,
            pool,
            durable: durable.as_ref(),
            stamps,
            clients: Vec::new(),
            drain: None,
        };
        if workload.drain_thread {
            let (command_tx, command_rx) = channel();
            let (output_tx, output_rx) = channel();
            scope.spawn(move || drain_loop(ctx, drained, command_rx, output_tx));
            workers.drain = Some((command_tx, output_rx));
        }
        for (state, watchers) in clients.iter_mut().zip(pumped.drain(..)) {
            let (command_tx, command_rx) = channel();
            let (output_tx, output_rx) = channel();
            scope.spawn(move || {
                while let Ok(command) = command_rx.recv() {
                    let output = match command {
                        ClientCommand::Run { count, traced } => {
                            client_loop(ctx, state, count, traced, watchers)
                        }
                        ClientCommand::Quiesce => ClientOutput {
                            drained_events: watchers
                                .iter_mut()
                                .map(|w| w.drain(ctx.stack.server(), ctx.pool, |_| {}) as u64)
                                .sum(),
                            ..ClientOutput::default()
                        },
                    };
                    if output_tx.send(output).is_err() {
                        return;
                    }
                }
            });
            workers.clients.push((command_tx, output_rx));
        }
        // Dropping `workers` closes every command channel, which is what
        // ends the threads; the scope then joins them.
        body(&mut workers)
    })
}

/// Between segments, outside the clock: bound the memory the audit log and
/// the denial ring would otherwise grow into.
pub fn housekeeping<K: Stack>(stack: &K) {
    stack.server().clear_audit_log();
    stack.reset_proxy();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acknowledged_revisions_parse_from_both_reply_shapes() {
        assert_eq!(
            acknowledged_revision("created (resourceVersion 17)"),
            Some(17)
        );
        assert_eq!(
            acknowledged_revision("configured (resourceVersion 123456)"),
            Some(123_456)
        );
        assert_eq!(acknowledged_revision("deleted"), None);
    }

    #[test]
    fn stamps_measure_only_their_window() {
        let stamps = Stamps::new(4);
        stamps.reset(100);
        stamps.stamp(101);
        stamps.stamp(104);
        stamps.stamp(105); // beyond the window: ignored
        assert!(stamps.lag(101).is_some());
        assert!(stamps.lag(104).is_some());
        assert_eq!(stamps.lag(100), None);
        assert_eq!(stamps.lag(105), None);
        stamps.reset(200);
        assert_eq!(stamps.lag(101), None);
    }

    #[test]
    fn process_counters_read() {
        // Burn a little CPU so the tick counter has something to show.
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(40) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() >= Duration::from_millis(10));
        assert!(peak_rss_mib() > 1.0);
    }
}
