//! The `jash serve` daemon: a bounded worker pool multiplexing isolated
//! shell runs over one shared machine.
//!
//! Robustness decisions, in the order a submission meets them:
//!
//! * **Admission control** — per-tenant bounded queues under one global
//!   bound, scheduled by weighted deficit round-robin
//!   ([`crate::sched::Scheduler`]). Every shed answers with a
//!   structured [`Frame::Rejected`] (code, active, queued, reason) and
//!   closes the connection: the daemon *sheds* load, it never stalls
//!   accepting it. The code says exactly why: `OVERLOADED` (machine
//!   full — retry later), `QUOTA` (your own queue full — drain your
//!   backlog), `QUARANTINED` (your runs keep failing — fix them),
//!   `DRAINING` (find another server).
//! * **Noisy-neighbor quarantine** — a tenant-keyed
//!   [`CircuitBreaker`] (the same open/half-open/closed machine the
//!   JIT uses on region fingerprints) counts each tenant's consecutive
//!   failed/panicked/deadlined runs. At the threshold the tenant is
//!   quarantined: submissions bounce with `QUARANTINED` for a cooldown
//!   measured in admission ticks, after which exactly one probe run is
//!   admitted half-open — success lifts the quarantine, failure
//!   re-arms it. Drain aborts and client disconnects are *not*
//!   failures; a tenant must not be exiled for the daemon's shutdown.
//! * **Isolation** — every admitted run gets its own [`Jash`] engine,
//!   journal scope, tracer, and [`CancelToken`]. What runs *share* is
//!   the machine: one filesystem, one [`CpuModel`] token bucket, one
//!   disk model — so the planner's resource math sees aggregate load.
//! * **Per-tenant attribution** — each run's filesystem is wrapped in a
//!   [`MeteredFs`] and its CPU charges flow through a
//!   [`CpuModel::sub_model`], tallying a per-tenant [`UsageMeter`]. A
//!   [`FairShareBucket`] converts the tally into tenant pressure:
//!   heavy tenants overdraw their weight-share of the machine and see
//!   narrower plans *before* light tenants feel anything.
//! * **Cross-run pressure** — before each run is planned, the daemon
//!   reads [`jash_core::cross_run_pressure`] (worker occupancy + queue
//!   backlog + shared-model saturation), takes the max with the
//!   tenant's own bucket pressure, and tightens the run's
//!   [`PlannerOptions::under_pressure`]: a busy daemon stops widening
//!   regions into its own other tenants, and a greedy tenant stops
//!   widening into anyone.
//! * **Deadlines** — a per-run [`DeadlineGuard`] cancels the run's token
//!   with the `deadline:` reason; the session layer aborts the region,
//!   journals `RegionAborted`, and surfaces exit 124.
//! * **Disconnect detection** — a monitor thread blocks reading the
//!   client's half of the socket; EOF before `Done` cancels the orphaned
//!   run and frees its worker slot (after `Done`, EOF is the reply path's
//!   own socket shutdown releasing the monitor).
//! * **Panic isolation** — the run executes under `catch_unwind`
//!   (defense in depth over the executor's own per-node isolation): a
//!   panicking run reports status 125 to its client and the daemon keeps
//!   serving.
//! * **Graceful drain** — [`Server::drain`] stops admission, sheds the
//!   queue with `DRAINING` rejections, cancels in-flight runs with the
//!   SIGTERM shutdown reason (journaled, resumable, exit 143), and waits
//!   out a bounded drain budget. Stragglers are *reported*, never
//!   waited on forever — the budget is the contract.
//! * **Durable admission ledger** — with a journal root configured,
//!   every admission is appended to `<root>/ledger` *before* the
//!   `Accepted` frame is written and every terminal result is recorded
//!   (blobs first, then the `Done` record). [`Server::start`] runs the
//!   startup janitor ([`jash_core::recover_serve_root`]) before binding
//!   the socket: orphaned keyed runs are finalized (resuming
//!   journaled-clean regions from the durable memo), unkeyed orphans
//!   aborted, and cached results reloaded — a SIGKILLed daemon restarts
//!   into exactly-once semantics.
//! * **Idempotency keys** — a submission carrying a key that matches a
//!   finished run replays the cached terminal result (`Attach` frame +
//!   the original bytes, no re-execution); a key matching an in-flight
//!   run attaches the connection as a waiter that receives the same
//!   terminal frames the primary client does. Keyed runs are *not*
//!   cancelled when their client disconnects — the key is the client's
//!   promise to come back.
//! * **Slow-loris hardening** — every connection carries a bounded
//!   write timeout ([`ServerConfig::write_stall`]); a client that stops
//!   reading its own result frames stalls out and frees the slot
//!   instead of pinning a worker forever.

use crate::proto::{self, reject, Frame};
use crate::sched::{Scheduler, TenantPolicy, TenantSnapshot};
use jash_core::{
    cross_run_pressure, recover_serve_root, remove_tree, resource_pressure, BreakerConfig,
    CircuitBreaker, Engine, Jash, Route, ServeRecovery,
};
use jash_cost::MachineProfile;
use jash_expand::ShellState;
use jash_io::{
    CancelToken, CpuModel, DeadlineGuard, DiskModel, FairShareBucket, FsHandle, Ledger,
    LedgerRecord, MeteredFs, UsageMeter,
};
use jash_trace::Tracer;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hook for wrapping a run's filesystem with injected faults. Called
/// with the submission's fault spec, the shared filesystem, and the
/// run's cancel token (so stall-style faults stay cancellable); returns
/// the wrapped handle, or `None` when the spec does not parse.
pub type FaultInjector =
    Arc<dyn Fn(&str, FsHandle, &CancelToken) -> Option<FsHandle> + Send + Sync>;

/// Daemon configuration.
pub struct ServerConfig {
    /// Unix socket path (host filesystem).
    pub socket: PathBuf,
    /// The shared filesystem every run executes against.
    pub fs: FsHandle,
    /// Machine profile handed to every run's planner.
    pub machine: MachineProfile,
    /// Engine for submitted runs.
    pub engine: Engine,
    /// Worker pool size (concurrent runs).
    pub workers: usize,
    /// Admission queue bound; submissions past it are rejected.
    pub queue_cap: usize,
    /// Deadline imposed on runs whose submission asked for none.
    pub default_timeout: Option<Duration>,
    /// How long [`Server::drain`] waits for in-flight runs to abort.
    pub drain_budget: Duration,
    /// Virtual directory for per-run journals (`<root>/run-<id>`), or
    /// `None` to disable journaling.
    pub journal_root: Option<String>,
    /// Virtual directory for per-run schema-v1 traces
    /// (`<root>/run-<id>.jsonl`), or `None` to disable tracing.
    pub trace_root: Option<String>,
    /// Whether run commits use the full durability protocol.
    pub durable: bool,
    /// Test knob: plan eagerly (`min_speedup = 0`, width 4) so small
    /// inputs still exercise the optimized path.
    pub eager: bool,
    /// Shared CPU token bucket, charged by every run.
    pub cpu: Option<Arc<CpuModel>>,
    /// Shared disk model, read by the pressure signal.
    pub disk: Option<Arc<DiskModel>>,
    /// Fault-injection hook; `None` rejects submissions carrying fault
    /// specs (production posture).
    pub fault_injector: Option<FaultInjector>,
    /// Policy for tenants not listed in `tenants`.
    pub tenant_default: TenantPolicy,
    /// Per-tenant policy overrides (weight, concurrency cap, queue cap).
    pub tenants: Vec<(String, TenantPolicy)>,
    /// Consecutive failed runs that quarantine a tenant; `0` disables
    /// the tenant breaker entirely.
    pub quarantine_failures: u32,
    /// Quarantine cooldown in admission ticks (one tick per well-formed
    /// submission, so a busy daemon ages quarantines quickly and an
    /// idle one holds them — deterministic either way).
    pub quarantine_cooldown: u64,
    /// Per-tenant burst allowance in modeled resource-seconds: how far
    /// a tenant can run ahead of its sustained share before its bucket
    /// pressure starts rising.
    pub tenant_burst_secs: f64,
    /// Sustained entitlement in modeled resource-seconds per wall
    /// second *per unit weight*. Scale to `cores / expected-tenants`
    /// for a machine-proportional split.
    pub tenant_share_secs: f64,
    /// Write timeout on every client connection: a client that stops
    /// reading its result frames (slow loris) stalls out after this
    /// long and the daemon drops the connection, freeing the slot.
    pub write_stall: Duration,
}

impl ServerConfig {
    /// A config with production-shaped defaults: 4 workers, a queue of
    /// 8, a 5-second drain budget, JIT engine, durable commits, no
    /// fault injection.
    pub fn new(socket: impl Into<PathBuf>, fs: FsHandle) -> ServerConfig {
        ServerConfig {
            socket: socket.into(),
            fs,
            machine: MachineProfile::laptop(),
            engine: Engine::JashJit,
            workers: 4,
            queue_cap: 8,
            default_timeout: None,
            drain_budget: Duration::from_secs(5),
            journal_root: None,
            trace_root: None,
            durable: true,
            eager: false,
            cpu: None,
            disk: None,
            fault_injector: None,
            tenant_default: TenantPolicy::default(),
            tenants: Vec::new(),
            quarantine_failures: 5,
            quarantine_cooldown: 16,
            tenant_burst_secs: 2.0,
            tenant_share_secs: 0.5,
            write_stall: Duration::from_secs(10),
        }
    }
}

/// Daemon-lifetime counters, readable while running and reported by
/// [`DrainReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions admitted (Accepted frame sent).
    pub accepted: u64,
    /// Runs that finished and sent their Done frame.
    pub completed: u64,
    /// Submissions shed because the queue was full.
    pub rejected_overload: u64,
    /// Submissions shed because the daemon was draining.
    pub rejected_draining: u64,
    /// Connections dropped for unparseable submissions.
    pub rejected_malformed: u64,
    /// Submissions carrying fault specs while injection was disabled.
    pub rejected_faults_disabled: u64,
    /// Submissions shed because the *tenant's* queue was at its cap.
    pub rejected_quota: u64,
    /// Submissions refused because the tenant was quarantined.
    pub rejected_quarantined: u64,
    /// Times any tenant's breaker newly opened (quarantine onsets).
    pub tenants_quarantined: u64,
    /// Runs aborted by their wall-clock deadline.
    pub deadline_aborts: u64,
    /// Runs cancelled because their client vanished mid-run.
    pub disconnect_cancels: u64,
    /// Runs whose engine panicked and was contained.
    pub panics_isolated: u64,
    /// Duplicate keyed submissions answered from the result cache
    /// without re-execution.
    pub replayed: u64,
    /// Duplicate keyed submissions attached to an in-flight run.
    pub attached: u64,
    /// Result-frame writes that stalled out against a slow or vanished
    /// client (the connection was dropped).
    pub write_stalls: u64,
}

/// What [`Server::drain`] observed.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Runs in flight when drain began (each was cancelled with the
    /// SIGTERM shutdown reason and given the budget to abort cleanly).
    pub in_flight: usize,
    /// Queued submissions shed with `DRAINING` rejections.
    pub shed: usize,
    /// Runs still executing when the budget expired (the daemon exits
    /// anyway; a wedged run must not hold the process hostage).
    pub stragglers: usize,
    /// Whether every run retired within the budget.
    pub within_budget: bool,
    /// Final counters.
    pub stats: ServeStats,
    /// Per-tenant accounting rows, sorted by tenant name.
    pub tenants: Vec<TenantReport>,
}

/// One tenant's lifetime accounting, merged from the scheduler, the
/// breaker, and the resource sub-account.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Configured (or default) service weight.
    pub weight: f64,
    /// Jobs queued right now.
    pub queued: usize,
    /// Runs executing right now.
    pub active: usize,
    /// Runs dispatched over the daemon's lifetime.
    pub dispatched: u64,
    /// Runs retired (any exit status).
    pub completed: u64,
    /// Runs that counted as failures toward quarantine.
    pub failures: u64,
    /// Times this tenant's breaker opened.
    pub quarantines: u64,
    /// Whether the tenant is quarantined (open or half-open) right now.
    pub quarantined_now: bool,
    /// Submissions bounced for a full tenant queue.
    pub rejected_quota: u64,
    /// Submissions bounced while quarantined.
    pub rejected_quarantined: u64,
    /// Longest queue wait any of this tenant's jobs saw, in ms.
    pub max_queue_wait_ms: u64,
    /// Modeled CPU seconds attributed to this tenant.
    pub cpu_seconds: f64,
    /// Disk bytes attributed to this tenant.
    pub disk_bytes: u64,
    /// The tenant's fair-share bucket pressure at snapshot time.
    pub pressure: f64,
}

struct Job {
    run_id: u64,
    tenant: String,
    script: String,
    timeout: Option<Duration>,
    fault: Option<String>,
    /// Idempotency key; empty = none.
    key: String,
    conn: UnixStream,
    /// This run is a quarantined tenant's half-open probe: its outcome
    /// alone decides whether the quarantine lifts.
    probe: bool,
}

/// A finished run's terminal result, cached for replay to duplicate
/// keyed submissions.
#[derive(Debug, Clone)]
pub struct Terminal {
    /// Exit status.
    pub status: i32,
    /// Abort reason, when cancelled.
    pub aborted: Option<String>,
    /// Terminal stdout bytes.
    pub stdout: Vec<u8>,
    /// Terminal stderr bytes.
    pub stderr: Vec<u8>,
}

/// Bound on the keyed result cache: beyond this many finished runs the
/// oldest entry (and its key mapping and result blobs) is evicted, so a
/// long-lived daemon's exactly-once window is bounded, not leaky.
const RESULT_CACHE_CAP: usize = 1024;

/// A tenant's resource sub-account: the meter fed by the run-side
/// wrappers, the bucket converting it to pressure, and the breaker-probe
/// latch.
struct TenantAccount {
    meter: Arc<UsageMeter>,
    bucket: FairShareBucket,
    cpu: Option<Arc<CpuModel>>,
    /// A half-open probe run is in flight; further submissions keep
    /// bouncing until it reports.
    probing: bool,
    failures: u64,
    quarantines: u64,
    rejected_quota: u64,
    rejected_quarantined: u64,
}

struct Gate {
    draining: bool,
    active: usize,
    sched: Scheduler<Job>,
    breaker: CircuitBreaker<String>,
    accounts: HashMap<String, TenantAccount>,
    live: HashMap<u64, CancelToken>,
    next_run: u64,
    stats: ServeStats,
    /// The durable admission ledger (`Some` when a journal root is
    /// configured): appended under this lock so ledger order is
    /// admission order.
    ledger: Option<Ledger>,
    /// Finished runs by id: `(key, terminal result)`, for replay.
    finished: HashMap<u64, (String, Arc<Terminal>)>,
    /// Finished-run ids in completion order, for cache eviction.
    finished_order: VecDeque<u64>,
    /// Idempotency key → run id, spanning queued, live, and finished.
    keys: HashMap<String, u64>,
    /// Connections attached to an in-flight run, each owed the run's
    /// terminal frames.
    waiters: HashMap<u64, Vec<UnixStream>>,
}

impl Gate {
    /// Appends `run_id`'s terminal record to the ledger, when there is
    /// one. Best-effort: a run without its `Done` is an orphan the next
    /// start finalizes again, never a lost promise.
    fn ledger_done(&self, run_id: u64, status: i32, aborted: Option<String>) {
        if let Some(ledger) = &self.ledger {
            let _ = ledger.append(&LedgerRecord::Done {
                run_id,
                status,
                aborted,
            });
        }
    }

    /// Records a finished keyed run in the replay cache, evicting the
    /// oldest entry (cache row, key mapping, result blobs) past the cap.
    fn cache_result(&mut self, cfg: &ServerConfig, run_id: u64, key: &str, term: Arc<Terminal>) {
        self.finished.insert(run_id, (key.to_string(), term));
        self.finished_order.push_back(run_id);
        while self.finished_order.len() > RESULT_CACHE_CAP {
            let Some(old) = self.finished_order.pop_front() else {
                break;
            };
            if let Some((old_key, _)) = self.finished.remove(&old) {
                if self.keys.get(&old_key) == Some(&old) {
                    self.keys.remove(&old_key);
                }
            }
            if let Some(root) = &cfg.journal_root {
                jash_io::ledger::remove_result_blobs(cfg.fs.as_ref(), root, old);
            }
        }
    }
}

/// Looks up (or lazily creates) `tenant`'s resource sub-account.
fn account_mut<'a>(gate: &'a mut Gate, cfg: &ServerConfig, tenant: &str) -> &'a mut TenantAccount {
    if !gate.accounts.contains_key(tenant) {
        let meter = UsageMeter::new();
        let weight = gate.sched.policy(tenant).weight.clamp(0.01, 100.0);
        // Disk bytes convert to resource-seconds at the modeled disk's
        // sequential read rate (or a 128 MiB/s stand-in without one).
        let disk_rate = cfg
            .disk
            .as_ref()
            .map(|d| d.profile().read_mbps * 1024.0 * 1024.0)
            .unwrap_or(128.0 * 1024.0 * 1024.0);
        let bucket = FairShareBucket::new(
            cfg.tenant_burst_secs,
            weight * cfg.tenant_share_secs,
            disk_rate,
            Instant::now(),
        );
        let cpu = cfg.cpu.as_ref().map(|c| c.sub_model(Arc::clone(&meter)));
        gate.accounts.insert(
            tenant.to_string(),
            TenantAccount {
                meter,
                bucket,
                cpu,
                probing: false,
                failures: 0,
                quarantines: 0,
                rejected_quota: 0,
                rejected_quarantined: 0,
            },
        );
    }
    gate.accounts.get_mut(tenant).expect("just inserted")
}

impl TenantAccount {
    fn settle(&self, now: Instant) -> f64 {
        self.bucket.settle(&self.meter, now)
    }
}

/// Merges scheduler snapshots, breaker state, and resource accounts
/// into per-tenant report rows.
fn tenant_reports(gate: &Gate) -> Vec<TenantReport> {
    let snapshots = gate.sched.snapshots();
    let mut seen: std::collections::HashSet<&str> =
        snapshots.iter().map(|s| s.tenant.as_str()).collect();
    let mut rows: Vec<TenantReport> = snapshots.iter().map(|s| tenant_row(gate, s)).collect();
    // Accounts can exist for tenants the scheduler never queued (e.g.
    // every submission bounced); report them too.
    for name in gate.accounts.keys() {
        if seen.insert(name) {
            let empty = TenantSnapshot {
                tenant: name.clone(),
                policy: gate.sched.policy(name),
                queued: 0,
                active: 0,
                dispatched: 0,
                completed: 0,
                max_wait: Duration::ZERO,
            };
            rows.push(tenant_row(gate, &empty));
        }
    }
    rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    rows
}

fn tenant_row(gate: &Gate, snap: &TenantSnapshot) -> TenantReport {
    let acct = gate.accounts.get(&snap.tenant);
    TenantReport {
        tenant: snap.tenant.clone(),
        weight: snap.policy.weight,
        queued: snap.queued,
        active: snap.active,
        dispatched: snap.dispatched,
        completed: snap.completed,
        failures: acct.map_or(0, |a| a.failures),
        quarantines: acct.map_or(0, |a| a.quarantines),
        quarantined_now: gate.breaker.is_open(&snap.tenant),
        rejected_quota: acct.map_or(0, |a| a.rejected_quota),
        rejected_quarantined: acct.map_or(0, |a| a.rejected_quarantined),
        max_queue_wait_ms: snap.max_wait.as_millis() as u64,
        cpu_seconds: acct.map_or(0.0, |a| a.meter.cpu_seconds()),
        disk_bytes: acct.map_or(0, |a| a.meter.disk_bytes()),
        pressure: acct.map_or(0.0, |a| a.bucket.pressure()),
    }
}

struct Shared {
    cfg: ServerConfig,
    gate: Mutex<Gate>,
    /// Workers park here waiting for queued jobs.
    work: Condvar,
    /// Drain parks here waiting for `active` to reach zero.
    idle: Condvar,
    started: Instant,
}

/// A running daemon. Create with [`Server::start`], stop with
/// [`Server::drain`].
pub struct Server {
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
    recovery: ServeRecovery,
}

impl Server {
    /// Runs the startup janitor over the previous daemon's estate, then
    /// binds the socket and starts the accept loop and worker pool.
    /// Recovery completes *before* the bind: a client that connects is
    /// guaranteed the ledger is settled and cached results are loaded.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let mut recovery = ServeRecovery::default();
        let mut recovered = Vec::new();
        let mut next_run = 0;
        let mut ledger = None;
        if let Some(root) = &cfg.journal_root {
            let (report, runs, watermark) = recover_serve_root(
                &cfg.fs,
                root,
                cfg.engine,
                cfg.machine,
                cfg.eager,
                cfg.durable,
            )?;
            recovery = report;
            recovered = runs;
            next_run = watermark;
            ledger = Some(Ledger::open(
                Arc::clone(&cfg.fs),
                format!("{root}/ledger"),
                cfg.durable,
            ));
        }
        // A stale socket file from a dead daemon refuses the bind.
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        let mut sched = Scheduler::new(cfg.tenant_default);
        for (name, policy) in &cfg.tenants {
            sched.set_policy(name, *policy);
        }
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: cfg.quarantine_failures.max(1),
            cooldown_regions: cfg.quarantine_cooldown,
        });
        let mut gate = Gate {
            draining: false,
            active: 0,
            sched,
            breaker,
            accounts: HashMap::new(),
            live: HashMap::new(),
            next_run,
            stats: ServeStats::default(),
            ledger,
            finished: HashMap::new(),
            finished_order: VecDeque::new(),
            keys: HashMap::new(),
            waiters: HashMap::new(),
        };
        for run in recovered {
            gate.keys.insert(run.key.clone(), run.run_id);
            gate.cache_result(
                &cfg,
                run.run_id,
                &run.key,
                Arc::new(Terminal {
                    status: run.status,
                    aborted: run.aborted,
                    stdout: run.stdout,
                    stderr: run.stderr,
                }),
            );
        }
        let shared = Arc::new(Shared {
            cfg,
            gate: Mutex::new(gate),
            work: Condvar::new(),
            idle: Condvar::new(),
            started: Instant::now(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            shared,
            accept,
            workers,
            recovery,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &PathBuf {
        &self.shared.cfg.socket
    }

    /// What the startup janitor recovered from the previous daemon's
    /// estate (all zeroes when journaling is off or the start was clean).
    pub fn recovery(&self) -> &ServeRecovery {
        &self.recovery
    }

    /// A snapshot of the daemon counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.gate.lock().unwrap().stats.clone()
    }

    /// `(active, queued)` right now — the admission state tests and
    /// operators poll to sequence against the worker pool.
    pub fn load(&self) -> (usize, usize) {
        let gate = self.shared.gate.lock().unwrap();
        (gate.active, gate.sched.queued_total())
    }

    /// Per-tenant accounting rows (scheduling, quarantine, resource
    /// attribution), sorted by tenant name.
    pub fn tenants(&self) -> Vec<TenantReport> {
        tenant_reports(&self.shared.gate.lock().unwrap())
    }

    /// The current cross-run pressure reading, as the next admitted
    /// run's planner would see it.
    pub fn pressure(&self) -> f64 {
        self.shared.pressure()
    }

    /// Graceful drain: stop admitting, shed the queue, cancel in-flight
    /// runs with the SIGTERM shutdown reason, and wait out the budget.
    ///
    /// Never blocks past `drain_budget` (plus scheduling noise): a run
    /// that ignores its cancel token is reported as a straggler, and the
    /// caller is expected to exit the process regardless.
    pub fn drain(mut self) -> DrainReport {
        let shared = Arc::clone(&self.shared);
        let budget = shared.cfg.drain_budget;
        let (in_flight, shed, shed_waiters) = {
            let mut gate = shared.gate.lock().unwrap();
            gate.draining = true;
            let shed: Vec<(String, Job)> = gate.sched.drain_queues();
            // Waiters attached to *queued* runs will never see a Done:
            // shed them with the same rejection. (Waiters on in-flight
            // runs get their terminal frames when the cancelled run
            // retires.)
            let mut shed_waiters = Vec::new();
            for (_, job) in &shed {
                if let Some(ws) = gate.waiters.remove(&job.run_id) {
                    shed_waiters.extend(ws);
                }
            }
            for token in gate.live.values() {
                token.cancel(jash_core::shutdown_reason(15));
            }
            let in_flight = gate.active;
            gate.stats.rejected_draining += shed.len() as u64;
            // Wake parked workers so they observe `draining` and exit.
            self.shared.work.notify_all();
            (in_flight, shed, shed_waiters)
        };
        let shed_count = shed.len();
        let drain_reject = |conn: &mut UnixStream| {
            let _ = proto::write_frame(
                conn,
                &Frame::Rejected {
                    code: reject::DRAINING,
                    active: in_flight as u32,
                    queued: 0,
                    reason: "daemon draining (SIGTERM): submission shed".to_string(),
                },
            );
        };
        for (_tenant, job) in shed {
            let mut conn = job.conn;
            drain_reject(&mut conn);
        }
        for mut conn in shed_waiters {
            drain_reject(&mut conn);
        }
        // Wait for in-flight runs to retire, bounded by the budget.
        let deadline = Instant::now() + budget;
        let stragglers = {
            let mut gate = shared.gate.lock().unwrap();
            loop {
                if gate.active == 0 {
                    break 0;
                }
                let now = Instant::now();
                if now >= deadline {
                    break gate.active;
                }
                let (g, _timeout) = shared.idle.wait_timeout(gate, deadline - now).unwrap();
                gate = g;
            }
        };
        // The accept loop re-checks `draining` after every accept, so a
        // successful connect has woken it. After a failed one (socket file
        // unlinked) nothing can reach it: detach it rather than join.
        if UnixStream::connect(&shared.cfg.socket).is_ok() {
            let _ = self.accept.join();
        }
        if stragglers == 0 {
            for h in self.workers.drain(..) {
                let _ = h.join();
            }
        } else {
            // Wedged runs keep their (detached) threads; the process is
            // about to exit and must not inherit their fate.
            self.workers.clear();
        }
        let _ = std::fs::remove_file(&shared.cfg.socket);
        let (stats, tenants) = {
            let gate = shared.gate.lock().unwrap();
            (gate.stats.clone(), tenant_reports(&gate))
        };
        DrainReport {
            in_flight,
            shed: shed_count,
            stragglers,
            within_budget: stragglers == 0,
            stats,
            tenants,
        }
    }
}

impl Shared {
    fn pressure(&self) -> f64 {
        let (active, queued) = {
            let gate = self.gate.lock().unwrap();
            (gate.active, gate.sched.queued_total())
        };
        let resources = resource_pressure(
            self.cfg.disk.as_ref(),
            self.cfg.cpu.as_ref(),
            self.started.elapsed().as_secs_f64(),
        );
        cross_run_pressure(
            active,
            self.cfg.workers,
            queued,
            self.cfg.queue_cap,
            resources,
        )
    }
}

/// Blocks in `accept()`; [`Server::drain`] sets `draining`, then connects
/// once to wake it. The last accept — the wake-up, or a client that raced
/// it — still goes through `intake`, which tells the two apart.
fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    let mut draining = false;
    while !draining {
        let accepted = listener.accept();
        draining = shared.gate.lock().unwrap().draining;
        match accepted {
            Ok((conn, _addr)) => {
                let shared = Arc::clone(shared);
                // Intake runs off-thread: reading the submit frame from
                // a slow client must not block the accept loop.
                std::thread::spawn(move || intake(&shared, conn));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Reads one submission and runs admission control. All rejection paths
/// answer with a structured frame before closing — shedding is visible,
/// stalling is forbidden.
fn intake(shared: &Arc<Shared>, mut conn: UnixStream) {
    // A client that connects and then wedges without submitting must not
    // pin the intake thread forever — and one that stops *reading* must
    // not pin any thread that writes to it (slow-loris hardening; the
    // timeout rides the connection into the worker and waiter paths).
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = conn.set_write_timeout(Some(shared.cfg.write_stall));
    let frame = proto::read_frame(&mut conn);
    let _ = conn.set_read_timeout(None);

    let mut gate = shared.gate.lock().unwrap();
    let reject_with = |code: u8, reason: String, gate: &Gate, conn: &mut UnixStream| {
        let frame = Frame::Rejected {
            code,
            active: gate.active as u32,
            queued: gate.sched.queued_total() as u32,
            reason,
        };
        let _ = proto::write_frame(conn, &frame);
    };
    let Ok(Some(Frame::Submit {
        script,
        timeout_ms,
        tenant,
        key,
        fault,
    })) = frame
    else {
        // `drain()`'s wake-up connection says nothing and reads nothing:
        // not a submission, malformed or otherwise.
        if !(gate.draining && matches!(frame, Ok(None))) {
            gate.stats.rejected_malformed += 1;
            let reason = "expected a Submit frame".to_string();
            reject_with(reject::MALFORMED, reason, &gate, &mut conn);
        }
        return;
    };
    if gate.draining {
        gate.stats.rejected_draining += 1;
        reject_with(
            reject::DRAINING,
            "daemon draining (SIGTERM): not admitting".to_string(),
            &gate,
            &mut conn,
        );
        return;
    }
    if fault.is_some() && shared.cfg.fault_injector.is_none() {
        gate.stats.rejected_faults_disabled += 1;
        reject_with(
            reject::FAULTS_DISABLED,
            "fault injection not enabled on this daemon".to_string(),
            &gate,
            &mut conn,
        );
        return;
    }
    // Idempotency: a known key never creates a second run. A finished
    // run replays its cached terminal result; an in-flight (queued or
    // executing) run adopts this connection as a waiter. Either way the
    // duplicate bypasses admission control — no new work is created, so
    // there is nothing to shed.
    if !key.is_empty() {
        if let Some(&run_id) = gate.keys.get(&key) {
            if let Some((_, term)) = gate.finished.get(&run_id) {
                let term = Arc::clone(term);
                gate.stats.replayed += 1;
                drop(gate);
                if send_terminal_frames(&mut conn, Some(run_id), &term) {
                    shared.gate.lock().unwrap().stats.write_stalls += 1;
                }
                return;
            }
            gate.stats.attached += 1;
            // Attach is written under the lock so the run cannot retire
            // (and drain its waiter list) between the lookup and the
            // registration.
            if proto::write_frame(&mut conn, &Frame::Attach { run_id }).is_ok() {
                gate.waiters.entry(run_id).or_default().push(conn);
            }
            return;
        }
    }
    // One admission tick per well-formed submission: the quarantine
    // cooldown ages with daemon activity, never with wall time, so the
    // same submission sequence quarantines and paroles at the same
    // points on every run.
    let quarantine_on = shared.cfg.quarantine_failures > 0;
    let route = if quarantine_on {
        gate.breaker.tick();
        gate.breaker.route(&tenant)
    } else {
        Route::Try
    };
    if route == Route::Interpret
        || (route == Route::HalfOpenTrial
            && gate.accounts.get(&tenant).is_some_and(|a| a.probing))
    {
        gate.stats.rejected_quarantined += 1;
        account_mut(&mut gate, &shared.cfg, &tenant).rejected_quarantined += 1;
        let reason = if route == Route::Interpret {
            format!("tenant {tenant} quarantined: recent runs kept failing; cooling down")
        } else {
            format!("tenant {tenant} quarantined: half-open probe already in flight")
        };
        reject_with(reject::QUARANTINED, reason, &gate, &mut conn);
        return;
    }
    if gate.sched.queued_total() >= shared.cfg.queue_cap {
        gate.stats.rejected_overload += 1;
        reject_with(
            reject::OVERLOADED,
            format!(
                "admission queue full ({}/{}), {} active",
                gate.sched.queued_total(),
                shared.cfg.queue_cap,
                gate.active
            ),
            &gate,
            &mut conn,
        );
        return;
    }
    if let Some((depth, cap)) = gate.sched.quota_exceeded(&tenant) {
        gate.stats.rejected_quota += 1;
        account_mut(&mut gate, &shared.cfg, &tenant).rejected_quota += 1;
        reject_with(
            reject::QUOTA,
            format!("tenant {tenant} queue full ({depth}/{cap}): over per-tenant quota"),
            &gate,
            &mut conn,
        );
        return;
    }
    // Past every check: latch the probe only now, so a probe bounced by
    // OVERLOADED/QUOTA above does not wedge the half-open state.
    let probe = route == Route::HalfOpenTrial;
    if probe {
        account_mut(&mut gate, &shared.cfg, &tenant).probing = true;
    }
    gate.next_run += 1;
    let run_id = gate.next_run;
    // Exactly-once, step 1: the admission is ledgered *before* the
    // client hears `Accepted`. If the daemon dies any time after this
    // fsync, restart recovery finds the record and finalizes the run —
    // the promise survives the promiser. Appending under the gate lock
    // serializes admission on the fsync; that is the price of the
    // guarantee and it is paid only when journaling is on.
    if let Some(ledger) = &gate.ledger {
        let append = ledger.append(&LedgerRecord::Accepted {
            run_id,
            key: key.clone(),
            tenant: tenant.clone(),
            timeout_ms,
            script_hash: jash_io::fnv1a(script.as_bytes()),
            script: script.clone(),
        });
        if append.is_err() {
            // Can't make the durability promise — shed instead of
            // admitting at-most-once work under an exactly-once flag.
            // The run id is burned, not reused: the failed append may
            // still have persisted a full line, and a best-effort Done
            // closes it against a restart re-executing a run whose
            // client heard `Rejected`.
            gate.ledger_done(run_id, 1, Some("admission ledger write failed".to_string()));
            if probe {
                account_mut(&mut gate, &shared.cfg, &tenant).probing = false;
            }
            gate.stats.rejected_overload += 1;
            reject_with(
                reject::OVERLOADED,
                "admission ledger unavailable".to_string(),
                &gate,
                &mut conn,
            );
            return;
        }
    }
    if !key.is_empty() {
        gate.keys.insert(key.clone(), run_id);
    }
    // Accepted is written under the lock so no later frame for this run
    // can be ordered before it.
    if proto::write_frame(&mut conn, &Frame::Accepted { run_id }).is_err() {
        // Client vanished between connect and accept. The admission is
        // already ledgered, so close it out: without a terminal record a
        // restart would execute a run whose client never heard
        // `Accepted`.
        gate.ledger_done(run_id, 1, Some("client vanished before accept".to_string()));
        if gate.keys.get(&key) == Some(&run_id) {
            gate.keys.remove(&key);
        }
        if probe {
            account_mut(&mut gate, &shared.cfg, &tenant).probing = false;
        }
        return;
    }
    gate.stats.accepted += 1;
    let job = Job {
        run_id,
        tenant: tenant.clone(),
        script,
        timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        fault,
        key,
        conn,
        probe,
    };
    gate.sched.push(&tenant, job, Instant::now());
    shared.work.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let popped = {
            let mut gate = shared.gate.lock().unwrap();
            loop {
                // DRR dispatch: `None` means nothing runnable — either
                // empty queues or every queued tenant at its concurrency
                // cap; a completion or push wakes us either way.
                if let Some(p) = gate.sched.pop(Instant::now()) {
                    gate.active += 1;
                    break p;
                }
                if gate.draining {
                    return;
                }
                gate = shared.work.wait(gate).unwrap();
            }
        };
        let run_id = popped.job.run_id;
        let tenant = popped.tenant;
        run_job(shared, popped.job, popped.waited);
        let mut gate = shared.gate.lock().unwrap();
        gate.active -= 1;
        gate.sched.complete(&tenant);
        gate.live.remove(&run_id);
        gate.stats.completed += 1;
        // The retired run may have freed a capped tenant's only slot:
        // wake a worker to re-evaluate dispatch, and drain's idle wait.
        shared.work.notify_one();
        shared.idle.notify_all();
    }
}

/// Executes one admitted run, fully isolated: own engine, journal,
/// tracer, cancel token; shared fs/CPU/disk, metered per tenant.
fn run_job(shared: &Arc<Shared>, job: Job, waited: Duration) {
    let cfg = &shared.cfg;
    let token = CancelToken::new();
    // The tenant's sub-account: CPU charges route through the
    // sub-model, disk bytes through the metered fs wrapper, and the
    // bucket settlement here prices the run under everything the
    // tenant has consumed so far.
    let (tenant_cpu, tenant_meter, tenant_pressure) = {
        let mut gate = shared.gate.lock().unwrap();
        gate.live.insert(job.run_id, token.clone());
        let acct = account_mut(&mut gate, cfg, &job.tenant);
        let pressure = acct.settle(Instant::now());
        (acct.cpu.clone(), Arc::clone(&acct.meter), pressure)
    };

    // Deadline: the submission's limit, else the daemon's default. The
    // guard disarms on drop, so a finished run retires its watcher.
    let limit = job.timeout.or(cfg.default_timeout);
    let _deadline = limit.map(|d| DeadlineGuard::arm(&token, d));

    // Disconnect detection: the client sends nothing after Submit, so
    // the monitor's blocking read returns when the peer closes — or when
    // this function shuts the socket down on its way out, which releases
    // it. *Keyed* runs skip the monitor entirely: the key is the client's
    // declared intent to return (reconnect-and-attach or replay), so a
    // vanished client must not cancel the work.
    let done = Arc::new(AtomicBool::new(false));
    if let (true, Ok(mut reader)) = (job.key.is_empty(), job.conn.try_clone()) {
        let done = Arc::clone(&done);
        let token = token.clone();
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let mut scratch = [0u8; 64];
            loop {
                match io::Read::read(&mut reader, &mut scratch) {
                    Ok(1..) => {} // Extra client bytes are ignored.
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    _ => break,
                }
            }
            if !done.load(Ordering::SeqCst) {
                token.cancel("client disconnected");
                shared.gate.lock().unwrap().stats.disconnect_cancels += 1;
            }
        });
    }

    // Per-run filesystem: the shared handle metered into the tenant's
    // account, optionally wrapped with the submission's injected faults
    // (test daemons only). Metering sits *inside* the fault layer so a
    // tenant is charged for bytes actually moved, not bytes faulted.
    let mut run_fs: FsHandle = Arc::new(MeteredFs::new(
        Arc::clone(&cfg.fs),
        Arc::clone(&tenant_meter),
    ));
    if let (Some(injector), Some(spec)) = (&cfg.fault_injector, &job.fault) {
        match injector(spec, Arc::clone(&run_fs), &token) {
            Some(wrapped) => run_fs = wrapped,
            None => {
                done.store(true, Ordering::SeqCst);
                let mut conn = job.conn;
                let _ = proto::write_frame(
                    &mut conn,
                    &Frame::Rejected {
                        code: reject::MALFORMED,
                        active: 0,
                        queued: 0,
                        reason: format!("unparseable fault spec: {spec}"),
                    },
                );
                let _ = conn.shutdown(std::net::Shutdown::Both);
                return;
            }
        }
    }

    // The isolated engine, planned under the *current* aggregate
    // pressure: a busy daemon raises every new run's widening bar.
    let mut shell = Jash::new(cfg.engine, cfg.machine);
    shell.cancel = Some(token.clone());
    shell.durable = cfg.durable;
    if cfg.eager {
        shell.planner.min_speedup = 0.0;
        shell.planner.force_width = Some(4);
    }
    // The run is planned under the worse of the machine's aggregate
    // pressure and the tenant's own fair-share overdraft: a greedy
    // tenant narrows its *own* plans first.
    shell.planner = shell
        .planner
        .under_pressure(shared.pressure().max(tenant_pressure));
    if cfg.trace_root.is_some() {
        shell.tracer = Some(Arc::new(Tracer::new()));
        shell.run_attrs = vec![
            ("run_id".to_string(), job.run_id.into()),
            ("tenant".to_string(), job.tenant.clone().into()),
            ("queue_wait_ms".to_string(), (waited.as_millis() as u64).into()),
            ("tenant_pressure".to_string(), tenant_pressure.into()),
        ];
        if job.probe {
            shell
                .run_attrs
                .push(("quarantine_probe".to_string(), true.into()));
        }
    }
    if let Some(root) = &cfg.journal_root {
        if cfg.engine == Engine::JashJit {
            let dir = format!("{root}/run-{}", job.run_id);
            let _ = shell.attach_journal(&run_fs, &dir, false);
        }
    }

    let mut state = ShellState::new(Arc::clone(&run_fs));
    // The tenant's CPU sub-model (when a machine model exists): global
    // contention unchanged, charges attributed to this tenant's meter.
    state.cpu = tenant_cpu.or_else(|| cfg.cpu.clone());
    state.shell_name = format!("jash-serve:{}", job.run_id);

    // Panic isolation: a run that blows up inside the engine must not
    // take the worker (or the daemon) with it.
    let script = job.script;
    let outcome = catch_unwind(AssertUnwindSafe(|| shell.run_script(&mut state, &script)));

    let (status, stdout, stderr, panicked) = match outcome {
        Ok(Ok(r)) => (r.status, r.stdout, r.stderr, false),
        Ok(Err(e)) => (2, Vec::new(), format!("jash: {e}\n").into_bytes(), false),
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".to_string());
            (
                125,
                Vec::new(),
                format!("jash: run panicked: {what}\n").into_bytes(),
                true,
            )
        }
    };
    let aborted = token.reason();
    let deadline = aborted
        .as_deref()
        .is_some_and(|r| jash_io::deadline_code(r).is_some());
    {
        let mut gate = shared.gate.lock().unwrap();
        if panicked {
            gate.stats.panics_isolated += 1;
        }
        if deadline {
            gate.stats.deadline_aborts += 1;
        }
        // Tenant health: panics, deadline overruns, and plain nonzero
        // exits count toward quarantine. Externally-caused aborts —
        // drain (shutdown) and client disconnects — do not: a tenant
        // must not be exiled for the daemon's own lifecycle.
        let failed = panicked || deadline || (status != 0 && aborted.is_none());
        let clean = !panicked && status == 0 && aborted.is_none();
        if cfg.quarantine_failures > 0 {
            if job.probe {
                account_mut(&mut gate, cfg, &job.tenant).probing = false;
            }
            if failed {
                account_mut(&mut gate, cfg, &job.tenant).failures += 1;
                if gate.breaker.record_failure(&job.tenant) {
                    gate.stats.tenants_quarantined += 1;
                    account_mut(&mut gate, cfg, &job.tenant).quarantines += 1;
                }
            } else if clean {
                gate.breaker.record_success(&job.tenant);
            }
        }
        // Debit what the run consumed now, so the tenant's *next* run
        // is planned under the pressure this one created.
        let _ = account_mut(&mut gate, cfg, &job.tenant).settle(Instant::now());
    }

    // Flush the run's trace through the *unwrapped* shared fs — the
    // observability record must survive the very faults it documents.
    // This runs on every exit path (clean, aborted, panicked): a drain
    // must never truncate a run's spans.
    if let (Some(root), Some(tracer)) = (&cfg.trace_root, &shell.tracer) {
        let path = format!("{root}/run-{}.jsonl", job.run_id);
        let _ = jash_io::fs::write_file(cfg.fs.as_ref(), &path, tracer.to_jsonl().as_bytes());
    }

    done.store(true, Ordering::SeqCst);
    let term = Arc::new(Terminal {
        status,
        aborted: aborted.clone(),
        stdout,
        stderr,
    });

    // Exactly-once, step 2: result blobs land before the terminal
    // record, the terminal record before any client hears `Done`. A
    // crash between blobs and record leaves the run an orphan (recovery
    // finalizes it again — resumed, not re-executed); a crash after the
    // record replays this exact result forever.
    if !job.key.is_empty() {
        if let Some(root) = &cfg.journal_root {
            let _ = jash_io::ledger::write_result_blobs(
                cfg.fs.as_ref(),
                root,
                job.run_id,
                &term.stdout,
                &term.stderr,
                cfg.durable,
            );
        }
    }
    let waiters = {
        let mut gate = shared.gate.lock().unwrap();
        gate.ledger_done(job.run_id, status, aborted.clone());
        if !job.key.is_empty() {
            gate.cache_result(cfg, job.run_id, &job.key, Arc::clone(&term));
        }
        gate.waiters.remove(&job.run_id).unwrap_or_default()
    };

    // A cleanly-retired ledgered run no longer needs its journal scope —
    // the ledger and blobs are its record now. Aborted runs keep theirs
    // (the journal is the resume evidence a restart reads).
    if aborted.is_none() && cfg.engine == Engine::JashJit {
        if let Some(root) = &cfg.journal_root {
            remove_tree(cfg.fs.as_ref(), &format!("{root}/run-{}", job.run_id));
        }
    }

    // Stream the results to the primary client and every attached
    // waiter. The client may be gone (that may be *why* the run
    // aborted); send errors are unremarkable — except stalls, which are
    // the slow-loris signal.
    let mut conn = job.conn;
    let mut stalls = 0u64;
    stalls += u64::from(send_terminal_frames(&mut conn, None, &term));
    for mut w in waiters {
        stalls += u64::from(send_terminal_frames(&mut w, Some(job.run_id), &term));
    }
    if stalls > 0 {
        shared.gate.lock().unwrap().stats.write_stalls += stalls;
    }
}

/// Streams a run's terminal frames — optionally preceded by `Attach`
/// (for waiters and cache replays) — and reports whether any write
/// stalled out against a client that stopped reading.
fn send_terminal_frames(conn: &mut UnixStream, attach: Option<u64>, term: &Terminal) -> bool {
    let mut frames: Vec<Frame> = Vec::new();
    if let Some(run_id) = attach {
        frames.push(Frame::Attach { run_id });
    }
    if !term.stdout.is_empty() {
        frames.push(Frame::Stdout(term.stdout.clone()));
    }
    if !term.stderr.is_empty() {
        frames.push(Frame::Stderr(term.stderr.clone()));
    }
    frames.push(Frame::Done {
        status: term.status,
        aborted: term.aborted.clone(),
    });
    let mut stalled = false;
    for f in &frames {
        if let Err(e) = proto::write_frame(conn, f) {
            stalled = matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            );
            break;
        }
    }
    let _ = conn.shutdown(std::net::Shutdown::Both);
    stalled
}

/// Parses the wire-level fault specs the `jash serve --test-faults`
/// daemon accepts, mirroring the crash/fault sweeps' vocabulary:
///
/// * `read-error:PATH:OFFSET` — sticky read error at a byte offset
/// * `transient-read:PATH:OFFSET` — same, but fires once (retryable)
/// * `stall-read:PATH:MILLIS` — first read stalls (cancellable)
/// * `stall-write:PATH:OFFSET:MILLIS` — writes stall at a byte offset
///   (cancellable) — the crash drill's kill window
/// * `open-error:PATH` — open fails with permission denied
/// * `truncate:PATH:OFFSET` — reads see early EOF
///
/// Returns `None` for anything else — the daemon answers with a
/// structured rejection rather than guessing.
pub fn parse_fault_spec(spec: &str) -> Option<jash_io::FaultPlan> {
    let mut parts = spec.split(':');
    let kind = parts.next()?;
    let plan = jash_io::FaultPlan::new();
    match kind {
        "read-error" => {
            let path = parts.next()?;
            let offset: u64 = parts.next()?.parse().ok()?;
            Some(plan.read_error_at(path, offset, "injected: disk surface error"))
        }
        "transient-read" => {
            let path = parts.next()?;
            let offset: u64 = parts.next()?.parse().ok()?;
            Some(plan.rule(jash_io::fault::FaultRule {
                path: Some(path.to_string()),
                op: jash_io::fault::FaultOp::Read,
                trigger: jash_io::fault::Trigger::AtByte(offset),
                kind: jash_io::fault::FaultKind::Error {
                    kind: std::io::ErrorKind::Other,
                    msg: "injected: transient controller reset".to_string(),
                },
                once: true,
            }))
        }
        "stall-read" => {
            let path = parts.next()?;
            let ms: u64 = parts.next()?.parse().ok()?;
            Some(plan.stall_reads(path, Duration::from_millis(ms)))
        }
        "stall-write" => {
            let path = parts.next()?;
            let offset: u64 = parts.next()?.parse().ok()?;
            let ms: u64 = parts.next()?.parse().ok()?;
            Some(plan.stall_writes_at(path, offset, Duration::from_millis(ms)))
        }
        "open-error" => {
            let path = parts.next()?;
            Some(plan.open_error(path, "permission denied"))
        }
        "truncate" => {
            let path = parts.next()?;
            let offset: u64 = parts.next()?.parse().ok()?;
            Some(plan.truncate_at(path, offset))
        }
        _ => None,
    }
}

/// The [`FaultInjector`] for [`parse_fault_spec`]'s vocabulary: wraps
/// the shared fs in a [`jash_io::FaultFs`] wired to the run's cancel
/// token, so injected stalls abort with the run instead of outliving it.
pub fn spec_fault_injector() -> FaultInjector {
    Arc::new(|spec: &str, fs: FsHandle, token: &CancelToken| {
        parse_fault_spec(spec).map(|plan| {
            jash_io::FaultFs::wrap_with_cancel(fs, plan, token.clone()) as FsHandle
        })
    })
}
