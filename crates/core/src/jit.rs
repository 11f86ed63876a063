//! The Jash session: a shell whose statement loop carries a JIT compiler.
//!
//! "Jash inspects each shell command as it comes in to identify candidates
//! for rewriting. Since Jash works dynamically, it can take into account
//! current system conditions to decide whether to even try to apply
//! optimizations!" (paper §3.2). The loop here is exactly that
//! architecture: interpretation by `jash-interp` for everything dynamic,
//! and — per top-level pipeline — an attempt to extract, compile, plan,
//! and execute a dataflow region with live information (variable values,
//! file sizes, machine resources).

use crate::engine::{Action, Engine, RegionFailure, RuntimeInfo, TraceEvent};
use crate::plancache::{byte_bucket, options_signature, PlanCache};
use crate::recovery::{self, RecoveryReport, ResumePlan};
use crate::region::{jit_region, resolve_paths, static_region, Ineligible};
use crate::supervise::{degradation_ladder, resource_pressure, CircuitBreaker, Route};
use jash_ast::{AndOrList, CommandKind, ListItem, Pipeline, Program};
use jash_cost::{
    choose_plan_with, pash_aot_plan, InputInfo, MachineProfile, PlanShape, PlannerOptions,
};
use jash_dataflow::{compile, parallelize_all, Dfg, NodeKind, Region};
use jash_exec::{
    balanced_targets, execute, execute_with_retry, ErrorClass, ExecConfig, ExecOutcome,
    RetryPolicy, SupervisionEvent,
};
use jash_expand::ShellState;
use jash_interp::{Flow, InputBinding, InterpError, Interpreter, PipelineJit, RunResult, ShellIo};
use jash_io::journal::JournalRecord;
use jash_io::memo::Entry;
use jash_io::{FsHandle, Journal, Memo};
use jash_trace::{AttrValue, SpanId, Tracer, DEFAULT_TIME_BOUNDS_US};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// A Jash shell session: the JIT engine core plus the interpreter it
/// delegates dynamic execution to.
///
/// The split matters for borrow reasons: while the interpreter walks a
/// compound statement it holds `&mut Interpreter`, and at every pipeline
/// it reaches it offers the engine (as [`PipelineJit`]) a chance to run
/// the region — which needs `&mut JitCore`. Keeping the two halves as
/// sibling fields lets both be borrowed at once. `Deref`/`DerefMut` to
/// [`JitCore`] keep the session's public field surface (`planner`,
/// `trace`, `breaker`, …) unchanged.
pub struct Jash {
    /// The engine: planner, supervisor, journal, trace — everything but
    /// the interpreter.
    pub core: JitCore,
    interp: Interpreter,
}

impl std::ops::Deref for Jash {
    type Target = JitCore;
    fn deref(&self) -> &JitCore {
        &self.core
    }
}

impl std::ops::DerefMut for Jash {
    fn deref_mut(&mut self) -> &mut JitCore {
        &mut self.core
    }
}

/// An open nested-region record: accounting the JIT callout opened for a
/// pipeline it declined, closed by [`PipelineJit::pipeline_interpreted`].
struct NestedRegion {
    span: Option<SpanId>,
    prev_region: Option<SpanId>,
    sup_mark: usize,
}

/// The engine state of a [`Jash`] session (everything except the
/// interpreter). All session tunables live here; `Jash` derefs to it.
pub struct JitCore {
    /// Strategy under evaluation.
    pub engine: Engine,
    /// The machine the planner believes it is running on.
    pub machine: MachineProfile,
    /// Command specifications.
    pub registry: jash_spec::Registry,
    /// Planner tunables (JashJit only).
    pub planner: PlannerOptions,
    /// Decisions taken this session, in order.
    pub trace: Vec<TraceEvent>,
    /// Live runtime record: optimized/failed-over region counts and the
    /// failure ledger the no-regression guard appends to.
    pub runtime: RuntimeInfo,
    /// Abort an optimized region whose pipes stop moving for this long
    /// (then fall back to the interpreter). `None` disables the watchdog.
    pub node_timeout: Option<std::time::Duration>,
    /// Cancellation token shared with optimized regions. The stall
    /// watchdog cancels it, so wiring the same token into blocking I/O
    /// layers (e.g. `FaultFs::wrap_with_cancel`) lets an abort interrupt
    /// reads that are stuck inside the filesystem, not just pipe waits.
    pub cancel: Option<jash_io::CancelToken>,
    /// Per-rung retry behavior for transient faults (JashJit only).
    /// Deterministic: the seed keys the backoff jitter stream.
    pub retry_policy: RetryPolicy,
    /// Circuit breaker over region shapes (JashJit only): shapes that
    /// keep failing over are routed straight to the interpreter for a
    /// cool-down window. Tune via `breaker.config`.
    pub breaker: CircuitBreaker,
    /// Whether optimized commits run the full durability protocol
    /// (fsync staged bytes, rename, fsync the directory) and journal
    /// appends fsync. On by default; `--no-durable` turns it off for
    /// throwaway runs.
    pub durable: bool,
    /// Fault injection for fused kernels (`faultsweep`): when set, every
    /// fused-kernel node fails with this message, exercising the
    /// kernel → unfused pipeline → interpreter degradation ladder.
    pub kernel_fault: Option<String>,
    /// Structured trace collector (`--trace` / `JASH_TRACE`). When set,
    /// the session records a `run` span, one `region` span per top-level
    /// statement, `node` spans for every dataflow node the executor ran,
    /// supervision events, and the timing/memo/journal metrics — all
    /// drained to schema-v1 JSONL at the end of the run.
    pub tracer: Option<Arc<Tracer>>,
    /// Profile-fed planner calibration: per-command throughput recorded
    /// by a previous run's trace (`--calibrate FILE`). `None` = the
    /// planner uses its static machine-profile rates.
    pub calibration: Option<jash_cost::Calibration>,
    /// Extra attributes stamped onto the `run` span when tracing —
    /// per-run/tenant accounting for hosts that multiplex sessions
    /// (`jash serve` sets `run_id` and `tenant` here so one trace file
    /// attributes work to the submission that caused it). Ignored when
    /// no tracer is attached.
    pub run_attrs: Vec<(String, AttrValue)>,
    /// Write-ahead execution journal, attached via
    /// [`Jash::attach_journal`]. `None` = journaling disabled.
    journal: Option<Arc<Journal>>,
    /// Durable memo the journal's resume path replays from.
    memo: Option<Memo>,
    /// Clean completions of an interrupted run still waiting to be
    /// claimed by matching regions this session.
    resume: Option<ResumePlan>,
    /// Open `run` span while `run_program` is on the stack.
    current_run: Option<SpanId>,
    /// Open `region` span while `run_item` is on the stack.
    current_region: Option<SpanId>,
    /// Per-fingerprint plan cache: loop iterations 2..N reuse iteration
    /// 1's planning decision (see [`crate::plancache`] for the
    /// invalidation rules). `plan_cache.set_enabled(false)` restores
    /// re-planning at every expansion boundary (`--no-plan-cache`).
    pub plan_cache: PlanCache,
    /// Innermost-first stack of live loop iteration counters, fed by the
    /// interpreter's loop markers; stamps `loop_iter` onto region spans.
    loop_iters: Vec<u64>,
    /// Open accounting for pipelines offered at expansion boundaries and
    /// declined (closed when the interpretation finishes).
    nested: Vec<NestedRegion>,
    /// High-water mark of supervision events already mirrored onto the
    /// trace timeline, so nested regions and the enclosing statement
    /// never mirror the same event twice.
    mirrored: usize,
}

impl Jash {
    /// Creates a session for `engine` on `machine`.
    pub fn new(engine: Engine, machine: MachineProfile) -> Self {
        Jash {
            core: JitCore::new(engine, machine),
            interp: Interpreter::new(),
        }
    }

    /// Parses and runs a script, returning captured stdio and status.
    pub fn run_script(
        &mut self,
        state: &mut ShellState,
        src: &str,
    ) -> jash_interp::Result<RunResult> {
        let parse_start = Instant::now();
        let prog = jash_parser::parse(src)?;
        self.trace_hist("jit.parse_us", parse_start.elapsed());
        self.run_program(state, &prog)
    }

    /// Runs a parsed program.
    pub fn run_program(
        &mut self,
        state: &mut ShellState,
        prog: &Program,
    ) -> jash_interp::Result<RunResult> {
        let (io, out, err) = ShellIo::captured();
        self.interp.base_stderr = Some(io.stderr.clone());
        let run_span = self.tracer.as_ref().map(|t| {
            let s = t.start("run", "run", None);
            t.set_attr(s, "engine", self.engine.to_string());
            t.set_attr(s, "items", prog.items.len() as u64);
            for (key, value) in &self.run_attrs {
                t.set_attr(s, key, value.clone());
            }
            s
        });
        self.current_run = run_span;
        let mut status = 0;
        let mut flow_exit = None;
        let mut shut_down = false;
        for item in &prog.items {
            // Graceful shutdown: a signal tripped the session token
            // between statements. Stop here — the journal keeps the run
            // marked interrupted so `--resume` picks up from this point.
            if let Some(code) = self.shutdown_status() {
                status = code;
                shut_down = true;
                break;
            }
            match self.run_item(state, item, &io) {
                Ok(s) => status = s,
                Err(InterpError::Flow(Flow::Exit(s))) => {
                    status = s;
                    flow_exit = Some(s);
                    break;
                }
                Err(e) => {
                    err.lock()
                        .extend_from_slice(format!("jash: {e}\n").as_bytes());
                    status = match e {
                        InterpError::Parse(_) => 2,
                        _ => 1,
                    };
                    break;
                }
            }
            state.last_status = status;
            if status != 0 && state.errexit {
                flow_exit = Some(status);
                break;
            }
        }
        let _ = flow_exit;
        // A shutdown mid-script may have been raised *inside* run_item
        // (region aborted); catch that too so the journal stays open.
        shut_down = shut_down || self.shutdown_status().is_some();
        if !shut_down {
            // A run whose `RunStart` is still deferred journaled nothing
            // and has nothing to complete.
            if let Some(journal) = self.journal.as_ref().filter(|j| !j.has_deferred()) {
                let _ = journal.append(&JournalRecord::RunComplete);
            }
        }
        state.last_status = status;
        if let (Some(t), Some(s)) = (&self.tracer, run_span) {
            t.set_attr(s, "status", i64::from(status));
            if let Some(journal) = &self.journal {
                t.metrics()
                    .gauge("journal.fsyncs")
                    .set(journal.fsyncs() as i64);
            }
            t.end(s);
        }
        self.current_run = None;
        let stdout = std::mem::take(&mut *out.lock());
        let stderr = std::mem::take(&mut *err.lock());
        Ok(RunResult {
            status,
            stdout,
            stderr,
        })
    }

    fn run_item(
        &mut self,
        state: &mut ShellState,
        item: &ListItem,
        io: &ShellIo,
    ) -> jash_interp::Result<i32> {
        // One region span per top-level statement, whatever path it takes.
        // The attrs start pessimistic (interpreted, width 1, no bytes) and
        // the optimize/resume/failover paths overwrite them — last write
        // wins, so the committed span reflects what actually happened.
        let span = self.tracer.as_ref().map(|t| {
            let name = jash_ast::unparse(&Program {
                items: vec![item.clone()],
            });
            let s = t.start("region", &name, self.current_run);
            t.set_attr(s, "action", "interpreted");
            t.set_attr(s, "width", 1u64);
            t.set_attr(s, "bytes_in", 0u64);
            t.set_attr(s, "bytes_out", 0u64);
            s
        });
        let prev_region = self.current_region;
        self.current_region = span;
        let sup_mark = self.runtime.supervision.events.len();
        let result = self.run_item_inner(state, item, io);
        self.mirror_supervision(sup_mark);
        if let (Some(t), Some(s)) = (&self.tracer, span) {
            if let Ok(status) = &result {
                t.set_attr(s, "status", i64::from(*status));
            }
            t.end(s);
        }
        self.current_region = prev_region;
        result
    }

    fn run_item_inner(
        &mut self,
        state: &mut ShellState,
        item: &ListItem,
        io: &ShellIo,
    ) -> jash_interp::Result<i32> {
        let plain = !item.background
            && item.and_or.rest.is_empty()
            && !item.and_or.first.negated;
        let all_simple = item
            .and_or
            .first
            .commands
            .iter()
            .all(|c| matches!(c.kind, CommandKind::Simple(_)));
        let single = Program {
            items: vec![item.clone()],
        };
        if self.engine != Engine::Bash && plain && all_simple {
            // A plain top-level pipeline: the statement's own region span
            // already covers it, so attempt the region directly and
            // interpret hooklessly on decline (no second attempt).
            let text = jash_ast::unparse(&single);
            match self.core.try_optimize(state, &item.and_or.first, io, &text) {
                Ok(Some(status)) => return Ok(status),
                Ok(None) => {}
                Err(e) => return Err(e),
            }
            return self.interp.run_program(state, &single, io);
        }
        if self.engine != Engine::Bash {
            self.core.trace.push(TraceEvent {
                pipeline: jash_ast::unparse(&single),
                action: Action::Interpreted {
                    reason: "not a plain foreground pipeline".to_string(),
                },
            });
        }
        // Compound statements (and `&&`/`||` chains, negations) interpret
        // with the JIT callout threaded in: every pipeline the walk
        // reaches under control flow is offered to the engine at its
        // expansion boundary (paper §3.2 — optimize *after* expansion,
        // per iteration). Background items stay hookless: their subshell
        // effects are discarded wholesale.
        let Jash { core, interp } = self;
        let hook: Option<&mut dyn PipelineJit> =
            if core.engine == Engine::JashJit && !item.background {
                Some(core)
            } else {
                None
            };
        interp.run_program_jit(state, &single, io, hook)
    }
}

impl JitCore {
    /// Creates the engine state for `engine` on `machine`.
    fn new(engine: Engine, machine: MachineProfile) -> Self {
        JitCore {
            engine,
            machine,
            registry: jash_spec::Registry::builtin(),
            planner: PlannerOptions::default(),
            trace: Vec::new(),
            runtime: RuntimeInfo::default(),
            node_timeout: None,
            cancel: None,
            retry_policy: RetryPolicy::default(),
            breaker: CircuitBreaker::default(),
            durable: true,
            kernel_fault: None,
            tracer: None,
            calibration: None,
            run_attrs: Vec::new(),
            journal: None,
            memo: None,
            resume: None,
            current_run: None,
            current_region: None,
            plan_cache: PlanCache::new(),
            loop_iters: Vec::new(),
            nested: Vec::new(),
            mirrored: 0,
        }
    }

    /// Attaches the crash-recovery journal rooted at `dir` (typically
    /// `/.jash`): replays `dir/journal`, sweeps staging debris if the
    /// previous run died mid-flight, opens a fresh epoch, and — when
    /// `resume` is set and the previous run was interrupted — arms the
    /// resume plan so journaled-clean regions replay from the durable
    /// memo at `dir/memo` instead of re-executing.
    ///
    /// Call once, before `run_script`. Returns what recovery found.
    pub fn attach_journal(
        &mut self,
        fs: &FsHandle,
        dir: &str,
        resume: bool,
    ) -> io::Result<RecoveryReport> {
        let journal_path = format!("{dir}/journal");
        let replay = Journal::replay(fs.as_ref(), &journal_path)?;
        let (mut report, plan) = recovery::scan_journal(&replay);
        if report.interrupted {
            report.swept = recovery::sweep_stage_debris(fs.as_ref());
        } else if fs.exists(&journal_path) {
            // Previous run completed: its history is dead weight. Reset
            // the journal so it never grows across healthy sessions.
            fs.remove(&journal_path)?;
        }
        if resume && report.interrupted {
            self.resume = plan;
        }
        let journal = Journal::open(Arc::clone(fs), &journal_path, self.durable);
        let start = JournalRecord::RunStart {
            epoch: report.epoch,
        };
        if fs.exists(&journal_path) {
            // An interrupted predecessor's epoch is superseded now.
            journal.append(&start)?;
        } else {
            // Nothing to supersede: `RunStart` rides ahead of the first
            // record that follows, under that record's barrier. Staging
            // debris can only exist after a `RegionStart`, so a run that
            // never journals is one recovery has nothing to do for.
            journal.defer(start);
        }
        self.journal = Some(Arc::new(journal));
        self.memo =
            Some(Memo::new(Arc::clone(fs), format!("{dir}/memo")).with_durable(self.durable));
        Ok(report)
    }

    /// The exit status a pending graceful abort dictates, if the
    /// session's cancel token was tripped by a signal (128 + signum) or
    /// a wall-clock deadline (124). `None` for fault cancellations,
    /// which fail over instead of aborting.
    pub fn shutdown_status(&self) -> Option<i32> {
        let reason = self.cancel.as_ref()?.reason()?;
        recovery::cancel_exit_code(&reason)
    }

    /// Attempts the optimize path; `Ok(None)` means "fall back to the
    /// interpreter".
    fn try_optimize(
        &mut self,
        state: &mut ShellState,
        pl: &Pipeline,
        io: &ShellIo,
        pipeline_text: &str,
    ) -> jash_interp::Result<Option<i32>> {
        let fallback = |this: &mut Self, reason: String| {
            this.trace_region_attr("reason", reason.as_str());
            this.trace.push(TraceEvent {
                pipeline: pipeline_text.to_string(),
                action: Action::Interpreted { reason },
            });
        };

        // 1. Extract the region the way the engine can — *after*
        // expansion, with the live shell state: inside a loop the same
        // syntactic pipeline extracts to a different region each
        // iteration ($f has a new value), which is the paper's whole
        // argument for JIT-at-the-expansion-boundary.
        let expand_start = Instant::now();
        let region = match self.engine {
            Engine::PashAot => static_region(state, pl),
            Engine::JashJit => jit_region(state, pl),
            Engine::Bash => unreachable!("caller filtered"),
        };
        self.trace_hist("jit.expand_us", expand_start.elapsed());
        let mut region = match region {
            Ok(r) => r,
            Err(e @ Ineligible::ExpansionFailed(_)) => {
                // A failing expansion must surface as a real error, so let
                // the interpreter produce it faithfully.
                fallback(self, e.to_string());
                return Ok(None);
            }
            Err(e) => {
                fallback(self, e.to_string());
                return Ok(None);
            }
        };
        resolve_paths(state, &mut region);

        // 2. Compile to a dataflow graph.
        let compile_start = Instant::now();
        let compiled = compile(&region, &self.registry);
        self.trace_hist("jit.compile_us", compile_start.elapsed());
        let mut compiled = match compiled {
            Ok(c) => c,
            Err(e) => {
                fallback(self, e.to_string());
                return Ok(None);
            }
        };

        // 2b. Resume: an interrupted predecessor may have completed this
        // very region cleanly. If the journal says so and the durable
        // memo still verifies against the *current* input bytes, replay
        // the remembered outcome instead of re-executing. This runs
        // before planning on purpose: the dead run already paid for the
        // work, so the planner has no veto.
        if self.engine == Engine::JashJit && self.resume.is_some() {
            if let Some(status) =
                self.try_resume(state, io, pipeline_text, &region, &compiled.dfg)?
            {
                return Ok(Some(status));
            }
        }

        // 3. Gather runtime information: input sizes from the live fs.
        let input = InputInfo {
            total_bytes: region_input_bytes(state, &region),
        };
        self.trace_region_attr("bytes_in", input.total_bytes);

        // 4. Plan — through the per-fingerprint plan cache when this
        // shape has been planned before at a comparable input scale
        // under the same options (loop iterations 2..N hit here and skip
        // the candidate sweep entirely). The cached entry remembers the
        // *decision*, declines included, so an unprofitable loop body
        // also stops paying for planning after iteration 1.
        let (shape, projected) = match self.engine {
            Engine::PashAot => (pash_aot_plan(&self.machine), 1.0),
            Engine::JashJit => {
                let pfp = compiled.dfg.plan_fingerprint();
                let bucket = byte_bucket(input.total_bytes);
                let sig = options_signature(&self.planner);
                if let Some((shape, projected)) = self.plan_cache.lookup(pfp, bucket, sig) {
                    self.trace_counter("jit.plan_cache.hits");
                    self.trace_region_attr("plan_cache_hit", true);
                    (shape, projected)
                } else {
                    if self.plan_cache.enabled() {
                        self.trace_counter("jit.plan_cache.misses");
                        self.trace_region_attr("plan_cache_hit", false);
                    }
                    let plan_start = Instant::now();
                    let d = choose_plan_with(
                        &compiled.dfg,
                        &self.machine,
                        input,
                        &self.planner,
                        self.calibration.as_ref(),
                    );
                    self.trace_hist("jit.plan_us", plan_start.elapsed());
                    self.plan_cache
                        .insert(pfp, bucket, sig, d.shape, d.projected_speedup());
                    (d.shape, d.projected_speedup())
                }
            }
            Engine::Bash => unreachable!(),
        };
        if shape.width <= 1 && !shape.fused {
            fallback(
                self,
                format!(
                    "planner declined (input {} bytes, projected speedup < margin)",
                    input.total_bytes
                ),
            );
            return Ok(None);
        }

        // 5. Rewrite and execute. JashJit regions run supervised (retry,
        // width degradation, circuit breaker); PashAot keeps the original
        // single-shot execute-or-fail-over, because a static transformer
        // has no runtime to supervise with.
        if self.engine == Engine::JashJit {
            return self.execute_supervised(
                state,
                io,
                pipeline_text.to_string(),
                &region,
                &compiled.dfg,
                shape,
                projected,
                input.total_bytes,
            );
        }

        parallelize_all(&mut compiled.dfg, shape.width);
        let cfg = self.region_config(state, shape.buffered, &compiled.dfg, input.total_bytes);
        let exec_start_us = self.tracer.as_ref().map_or(0, |t| t.now_us());
        let outcome = match execute(&compiled.dfg, &cfg) {
            Ok(o) => o,
            Err(e) => {
                // Execution-layer refusals (unsafe split) fall back.
                fallback(self, format!("executor refused: {e}"));
                return Ok(None);
            }
        };

        // The correctness half of the no-regression guard: if any node
        // faulted (IO error, panic, stall) or the commit failed, the
        // transactional executor has already discarded staged file output;
        // drop the captured streams too, book the failure, and re-execute
        // the region sequentially under the interpreter, which reproduces
        // exactly what an unoptimized shell would have done.
        self.emit_node_spans(&compiled.dfg, &outcome, exec_start_us);
        if !outcome.is_clean() {
            self.book_failover(pipeline_text.to_string(), shape.width, &outcome);
            return Ok(None);
        }

        self.runtime.regions_optimized += 1;
        self.trace_optimized_region(shape.width, shape.buffered, projected, &outcome);
        self.trace.push(TraceEvent {
            pipeline: pipeline_text.to_string(),
            action: Action::Optimized {
                width: shape.width,
                buffered: shape.buffered,
                fused: false,
                projected_speedup: projected,
            },
        });
        self.deliver(state, io, outcome).map(Some)
    }

    /// The supervised execution path (JashJit): breaker routing, then a
    /// width-degradation ladder where each rung retries transient faults
    /// with deterministic backoff.
    #[allow(clippy::too_many_arguments)]
    fn execute_supervised(
        &mut self,
        state: &mut ShellState,
        io: &ShellIo,
        pipeline_text: String,
        src_region: &Region,
        base_dfg: &Dfg,
        shape: PlanShape,
        projected: f64,
        total_bytes: u64,
    ) -> jash_interp::Result<Option<i32>> {
        // One logical tick per region that reaches the supervisor; the
        // breaker's cool-down counts these, never wall time, so routing
        // decisions replay identically.
        let region = self.breaker.tick();
        // Fingerprint the *pre-parallelization* graph: the shape key must
        // not depend on the width chosen this time around.
        let fp = base_dfg.fingerprint();
        self.trace_region_attr("fingerprint", format!("{fp:016x}"));
        match self.breaker.route(&fp) {
            Route::Interpret => {
                self.runtime
                    .supervision
                    .push(SupervisionEvent::BreakerRouted {
                        region,
                        fingerprint: fp,
                    });
                self.trace.push(TraceEvent {
                    pipeline: pipeline_text,
                    action: Action::Interpreted {
                        reason: format!("circuit breaker open for shape {fp:08x}"),
                    },
                });
                return Ok(None);
            }
            Route::HalfOpenTrial => {
                self.runtime
                    .supervision
                    .push(SupervisionEvent::BreakerHalfOpen { fingerprint: fp });
            }
            Route::Try => {}
        }

        // Write-ahead intent: the journal learns the region is live
        // before any of its bytes move, so a hard crash anywhere past
        // this point is recognizable on replay.
        if let Some(journal) = &self.journal {
            let _ = journal.append(&JournalRecord::RegionStart {
                fingerprint: fp,
                inputs: recovery::region_input_paths(src_region),
            });
        }

        // The ladder: the fused single-pass kernel first when planned,
        // then the unfused channel-per-stage pipeline at the planned
        // width, then halves down to 1. Width 1 still runs through the
        // dataflow executor — the interpreter is only reached by failing
        // off the last rung.
        let mut rungs: Vec<(usize, bool)> = Vec::new();
        if shape.fused {
            rungs.push((shape.width, true));
        }
        rungs.push((shape.width, false));
        rungs.extend(degradation_ladder(shape.width).into_iter().map(|w| (w, false)));

        let mut total_attempts = 0u32;
        let mut last_failure: Option<(ExecOutcome, ErrorClass)> = None;
        for (i, &(width, fused)) in rungs.iter().enumerate() {
            let mut dfg = base_dfg.clone();
            if width > 1 {
                parallelize_all(&mut dfg, width);
            }
            let fused_nodes = if fused {
                jash_dataflow::fuse_kernels(&mut dfg);
                dfg.node_ids()
                    .filter_map(|n| match &dfg.node(n).kind {
                        NodeKind::Fused { stages } => Some(stages.len()),
                        _ => None,
                    })
                    .sum::<usize>()
            } else {
                0
            };
            let cfg = self.region_config(state, shape.buffered, &dfg, total_bytes);
            let wall = Instant::now();
            let exec_start_us = self.tracer.as_ref().map_or(0, |t| t.now_us());
            let result = match execute_with_retry(
                &dfg,
                &cfg,
                &self.retry_policy,
                region,
                width,
                &mut self.runtime.supervision,
            ) {
                Ok(r) => r,
                Err(e) => {
                    // Execution-layer refusals (unsafe split) fall back.
                    self.trace.push(TraceEvent {
                        pipeline: pipeline_text,
                        action: Action::Interpreted {
                            reason: format!("executor refused: {e}"),
                        },
                    });
                    return Ok(None);
                }
            };
            total_attempts += result.attempts;
            self.emit_node_spans(&dfg, &result.outcome, exec_start_us);

            if result.outcome.is_clean() {
                if self.breaker.record_success(&fp) {
                    self.runtime
                        .supervision
                        .push(SupervisionEvent::BreakerClosed { fingerprint: fp });
                }
                if total_attempts > 1 || width < shape.width {
                    self.runtime.supervision.push(SupervisionEvent::Recovered {
                        region,
                        attempts: total_attempts,
                        width,
                    });
                    self.runtime.regions_recovered += 1;
                }
                self.runtime.regions_optimized += 1;
                self.checkpoint_clean(state, src_region, fp, &result.outcome);
                self.trace_optimized_region(width, shape.buffered, projected, &result.outcome);
                self.trace_region_attr("fused", fused);
                if fused {
                    self.trace_region_attr("nodes_fused", fused_nodes as u64);
                }
                self.trace.push(TraceEvent {
                    pipeline: pipeline_text,
                    action: Action::Optimized {
                        width,
                        buffered: shape.buffered,
                        fused,
                        projected_speedup: projected,
                    },
                });
                return self.deliver(state, io, result.outcome).map(Some);
            }

            // Graceful shutdown: the cancel came from a signal, not a
            // fault. Do NOT fail over — re-running the region under the
            // interpreter is exactly what the user interrupted. Journal
            // the abort (the epoch stays incomplete, so `--resume` works)
            // and surface 128+signum.
            if result.cancelled {
                if let Some(code) = self.shutdown_status() {
                    let reason = self
                        .cancel
                        .as_ref()
                        .and_then(|t| t.reason())
                        .unwrap_or_else(|| "shutdown".to_string());
                    if let Some(journal) = &self.journal {
                        let _ = journal.append(&JournalRecord::RegionAborted {
                            fingerprint: fp,
                            reason: reason.clone(),
                        });
                    }
                    self.trace_region_attr("action", "aborted");
                    self.trace_region_attr("reason", reason.as_str());
                    self.trace.push(TraceEvent {
                        pipeline: pipeline_text,
                        action: Action::Aborted { reason },
                    });
                    state.last_status = code;
                    return Ok(Some(code));
                }
            }

            let class = result.outcome.fault_class.unwrap_or(ErrorClass::Permanent);
            let next = rungs.get(i + 1).copied();
            // A failing fused kernel steps to the unfused pipeline for
            // ANY fault class: the kernel is an optimization, not a
            // requirement, and the unfused rung below computes the same
            // bytes with none of the kernel's code in the path.
            if fused && !result.cancelled && next.is_some() {
                self.runtime
                    .supervision
                    .push(SupervisionEvent::KernelDegraded {
                        region,
                        nodes: fused_nodes,
                        class,
                    });
                last_failure = Some((result.outcome, class));
                continue;
            }
            // Resource starvation steps down the ladder instead of
            // burning retry budget against the same wall. A transient
            // fault that exhausted its retries gets the same treatment
            // when the machine models read as saturated — under pressure
            // "try the same thing again, harder" is the wrong move.
            let pressure =
                resource_pressure(None, state.cpu.as_ref(), wall.elapsed().as_secs_f64());
            let degrade = !result.cancelled
                && next.is_some()
                && (class == ErrorClass::Resource
                    || (class == ErrorClass::Transient && pressure > 0.9));
            last_failure = Some((result.outcome, class));
            if let (true, Some((to, _))) = (degrade, next) {
                self.runtime
                    .supervision
                    .push(SupervisionEvent::WidthDegraded {
                        region,
                        from: width,
                        to,
                        class,
                    });
                continue;
            }
            break;
        }

        // Every rung failed (or the fault class ruled the ladder out):
        // fail over to the interpreter, PR 1's original safety valve.
        let Some((outcome, class)) = last_failure else {
            // Unreachable (the loop always records a failure before
            // exiting unclean), but degrade gracefully if it ever isn't.
            self.trace.push(TraceEvent {
                pipeline: pipeline_text,
                action: Action::Interpreted {
                    reason: "supervisor produced no outcome".to_string(),
                },
            });
            return Ok(None);
        };
        if let Some(journal) = &self.journal {
            let _ = journal.append(&JournalRecord::RegionDone {
                fingerprint: fp,
                status: outcome.status,
                clean: false,
            });
        }
        self.runtime
            .supervision
            .push(SupervisionEvent::FailedOver { region, class });
        if self.breaker.record_failure(&fp) {
            self.runtime
                .supervision
                .push(SupervisionEvent::BreakerOpened {
                    fingerprint: fp,
                    failures: self.breaker.failures(&fp),
                });
        }
        self.book_failover(pipeline_text, shape.width, &outcome);
        Ok(None)
    }

    /// Checkpoints a cleanly-completed region: memoize its output keyed
    /// by fingerprint (so resume can replay it) and journal `RegionDone`.
    /// Both are best-effort — a full memo disk must not fail the region.
    fn checkpoint_clean(
        &mut self,
        state: &ShellState,
        src_region: &Region,
        fp: u64,
        outcome: &ExecOutcome,
    ) {
        if outcome.status == 0 {
            if let Some(memo) = &self.memo {
                if let Ok((input_len, input_hash)) =
                    recovery::region_input_digest(&state.fs, src_region)
                {
                    let _ = memo.put(
                        fp,
                        &Entry {
                            input_len,
                            input_hash,
                            output: outcome.stdout.clone(),
                        },
                    );
                }
            }
        }
        if let Some(journal) = &self.journal {
            let _ = journal.append(&JournalRecord::RegionDone {
                fingerprint: fp,
                status: outcome.status,
                clean: true,
            });
        }
    }

    /// Attempts to satisfy a region from the interrupted run's journal:
    /// consume the next completion of this shape from the resume plan,
    /// verify the memo entry against the current input bytes, and — when
    /// everything checks out — deliver the remembered output without
    /// executing anything. `Ok(None)` means "execute normally".
    fn try_resume(
        &mut self,
        state: &mut ShellState,
        io: &ShellIo,
        pipeline_text: &str,
        src_region: &Region,
        dfg: &Dfg,
    ) -> jash_interp::Result<Option<i32>> {
        let fp = dfg.fingerprint();
        let claimed = match self.resume.as_mut() {
            Some(plan) => plan.take(fp),
            None => None,
        };
        let Some(done) = claimed else {
            return Ok(None);
        };
        // The journal says the dead run finished this region cleanly.
        // Trust, but verify: the memo entry must exist and its input
        // fingerprint must match what is on disk *now* — inputs edited
        // between the crash and the resume force a re-execution.
        let Some(entry) = self
            .memo
            .as_ref()
            .and_then(|m| m.get(fp).ok())
            .flatten()
        else {
            self.trace_counter("memo.misses");
            return Ok(None);
        };
        if recovery::region_input_digest(&state.fs, src_region).ok()
            != Some((entry.input_len, entry.input_hash))
        {
            self.trace_counter("memo.misses");
            return Ok(None);
        }
        // Re-journal the completion in this epoch, so a crash *during*
        // the resumed run leaves a journal that still resumes correctly.
        if let Some(journal) = &self.journal {
            let _ = journal.append(&JournalRecord::RegionStart {
                fingerprint: fp,
                inputs: recovery::region_input_paths(src_region),
            });
            let _ = journal.append(&JournalRecord::RegionDone {
                fingerprint: fp,
                status: done.status,
                clean: true,
            });
        }
        self.runtime.regions_resumed += 1;
        self.trace_counter("memo.hits");
        self.trace_region_attr("action", "resumed");
        self.trace_region_attr("fingerprint", format!("{fp:016x}"));
        self.trace_region_attr("bytes_in", entry.input_len);
        self.trace_region_attr("bytes_out", entry.output.len() as u64);
        self.trace.push(TraceEvent {
            pipeline: pipeline_text.to_string(),
            action: Action::Resumed { fingerprint: fp },
        });
        let outcome = ExecOutcome {
            bytes_in: entry.input_len,
            bytes_out: entry.output.len() as u64,
            stdout: entry.output,
            stderr: Vec::new(),
            status: done.status,
            metrics: Vec::new(),
            wall: std::time::Duration::ZERO,
            failures: Vec::new(),
            fault_class: None,
        };
        self.deliver(state, io, outcome).map(Some)
    }

    /// Sets an attribute on the open region span, when tracing.
    fn trace_region_attr(&self, key: &str, value: impl Into<AttrValue>) {
        if let (Some(t), Some(s)) = (&self.tracer, self.current_region) {
            t.set_attr(s, key, value);
        }
    }

    /// Records one observation in a session timing histogram.
    fn trace_hist(&self, name: &str, elapsed: std::time::Duration) {
        if let Some(t) = &self.tracer {
            t.metrics()
                .histogram(name, DEFAULT_TIME_BOUNDS_US)
                .record(elapsed.as_micros() as u64);
        }
    }

    /// Bumps a session counter.
    fn trace_counter(&self, name: &str) {
        if let Some(t) = &self.tracer {
            t.metrics().counter(name).incr();
        }
    }

    /// Stamps the current region span with a successful optimized run.
    fn trace_optimized_region(
        &self,
        width: usize,
        buffered: bool,
        projected: f64,
        outcome: &ExecOutcome,
    ) {
        self.trace_region_attr("action", "optimized");
        self.trace_region_attr("width", width as u64);
        self.trace_region_attr("buffered", buffered);
        self.trace_region_attr("projected_speedup", projected);
        // Commands that read file operands directly (no ReadFile node)
        // move bytes the executor's edge counters never see; the
        // fs-derived figure already on the span is the truthful one then.
        if outcome.bytes_in > 0 {
            self.trace_region_attr("bytes_in", outcome.bytes_in);
        }
        self.trace_region_attr("bytes_out", outcome.bytes_out);
    }

    /// Emits one `node` span per executor metric under the current
    /// region. Node timings arrive after the fact (the executor measures
    /// them), so these are recorded rather than opened/closed; starts are
    /// rebased onto the trace clock via `exec_start_us`.
    fn emit_node_spans(&self, dfg: &Dfg, outcome: &ExecOutcome, exec_start_us: u64) {
        let Some(t) = &self.tracer else { return };
        let parent = self.current_region;
        for m in &outcome.metrics {
            let node = dfg.node(m.node);
            let mut attrs: Vec<(String, AttrValue)> = vec![
                ("bytes_in".to_string(), m.bytes_in.into()),
                ("bytes_out".to_string(), m.bytes_out.into()),
            ];
            match &node.kind {
                NodeKind::Command { name, .. } => {
                    attrs.push(("cmd".to_string(), name.as_str().into()));
                }
                NodeKind::Fused { stages } => {
                    // `cmd: fused` makes calibration learn a measured
                    // fused-kernel rate exactly like any other command.
                    attrs.push(("cmd".to_string(), "fused".into()));
                    attrs.push(("nodes_fused".to_string(), (stages.len() as u64).into()));
                    attrs.push(("lines".to_string(), m.lines.into()));
                }
                NodeKind::Split { width } => {
                    attrs.push(("fan_out".to_string(), (*width as u64).into()));
                }
                NodeKind::Merge { .. } => {
                    attrs.push(("fan_in".to_string(), (node.inputs.len() as u64).into()));
                }
                _ => {}
            }
            if let Some(status) = m.status {
                attrs.push(("status".to_string(), i64::from(status).into()));
            }
            if let Some(f) = &m.failure {
                attrs.push(("failure".to_string(), f.as_str().into()));
            }
            t.record_span_at(
                "node",
                &m.label,
                parent,
                exec_start_us.saturating_add(m.start_offset.as_micros() as u64),
                m.wall.as_micros() as u64,
                attrs,
            );
        }
    }

    /// Mirrors supervision-log entries appended since `from` onto the
    /// trace timeline, so retry/degradation/breaker decisions land next
    /// to the spans they explain. The watermark makes this idempotent:
    /// a nested region mirrors its own events when it closes, and the
    /// enclosing statement's sweep skips everything already mirrored.
    fn mirror_supervision(&mut self, from: usize) {
        let upto = self.runtime.supervision.events.len();
        let from = from.max(self.mirrored);
        self.mirrored = self.mirrored.max(upto);
        let Some(t) = &self.tracer else { return };
        for e in &self.runtime.supervision.events[from..upto] {
            let (name, attrs) = supervision_attrs(e);
            t.event(name, attrs);
        }
    }

    /// Builds the per-rung executor configuration.
    fn region_config(
        &self,
        state: &ShellState,
        buffered: bool,
        dfg: &Dfg,
        total_bytes: u64,
    ) -> ExecConfig {
        let mut cfg = ExecConfig::new(Arc::clone(&state.fs));
        cfg.cwd = state.cwd.clone();
        cfg.cpu = state.cpu.clone();
        if buffered {
            cfg.buffer_splits_in = Some("/tmp/jash-buffers".to_string());
        }
        cfg.split_targets = split_plans(dfg, total_bytes);
        cfg.node_timeout = self.node_timeout;
        cfg.cancel = self.cancel.clone();
        cfg.durable = self.durable;
        cfg.journal = self.journal.clone();
        cfg.kernel_fault = self.kernel_fault.clone();
        cfg
    }

    /// Books a fail-over in the runtime ledger and trace.
    fn book_failover(&mut self, pipeline_text: String, width: usize, outcome: &ExecOutcome) {
        self.trace_region_attr("action", "failed_over");
        self.trace_region_attr("width", width as u64);
        self.runtime.regions_failed_over += 1;
        self.runtime.failures.push(RegionFailure {
            pipeline: pipeline_text.clone(),
            failures: outcome.failures.clone(),
        });
        self.trace.push(TraceEvent {
            pipeline: pipeline_text,
            action: Action::FailedOver {
                width,
                failures: outcome.failures.clone(),
            },
        });
    }

    /// Delivers captured optimized output to the session's stdio.
    fn deliver(
        &mut self,
        state: &mut ShellState,
        io: &ShellIo,
        outcome: ExecOutcome,
    ) -> jash_interp::Result<i32> {
        if !outcome.stdout.is_empty() {
            let mut sink = io.stdout.open(&state.fs)?;
            sink.write_chunk(bytes::Bytes::from(outcome.stdout))?;
            sink.finish()?;
        }
        if !outcome.stderr.is_empty() {
            let mut sink = io.stderr.open(&state.fs)?;
            sink.write_chunk(bytes::Bytes::from(outcome.stderr))?;
        }
        state.last_status = outcome.status;
        Ok(outcome.status)
    }
}

/// The JIT callout the interpreter offers every pipeline it reaches
/// under control flow (`if`/`while`/`for`/brace groups/`&&`/`||`).
///
/// This is where "optimize at the expansion boundary" happens for
/// dynamic code: the walk has already run the surrounding control flow,
/// so the shell state the region extracts against is the live,
/// per-iteration one. A handled pipeline returns `Some(status)` and the
/// interpreter skips it; a declined pipeline returns `None` with an
/// open [`NestedRegion`] record that [`PipelineJit::pipeline_interpreted`]
/// closes — so interpreted pipelines inside control flow get the same
/// span/status accounting as top-level regions.
impl PipelineJit for JitCore {
    fn on_pipeline(
        &mut self,
        state: &mut ShellState,
        pl: &Pipeline,
        io: &ShellIo,
    ) -> Option<jash_interp::Result<i32>> {
        // A signal or deadline tripped mid-statement: unwind the walk
        // gracefully instead of starting more work. The exit flow keeps
        // the journal open so `--resume` recognizes the interruption.
        if let Some(code) = self.shutdown_status() {
            return Some(Err(InterpError::Flow(Flow::Exit(code))));
        }
        let all_simple = pl
            .commands
            .iter()
            .all(|c| matches!(c.kind, CommandKind::Simple(_)));
        if !all_simple {
            // A compound stage (the pipeline wrapping an `if`, a loop, a
            // brace group…): nothing extractable at this level — the
            // pipelines *inside* each get their own offer. Stay silent:
            // no span, no trace event.
            self.nested.push(NestedRegion {
                span: None,
                prev_region: self.current_region,
                sup_mark: self.runtime.supervision.events.len(),
            });
            return None;
        }
        let text = jash_ast::unparse(&Program {
            items: vec![ListItem {
                and_or: AndOrList::single(pl.clone()),
                background: false,
            }],
        });
        // One region span per offered pipeline, nested under the
        // enclosing statement's span. Attrs start pessimistic exactly
        // like top-level regions; the optimize path overwrites them.
        let span = self.tracer.as_ref().map(|t| {
            let s = t.start(
                "region",
                &text,
                self.current_region.or(self.current_run),
            );
            t.set_attr(s, "action", "interpreted");
            t.set_attr(s, "width", 1u64);
            t.set_attr(s, "bytes_in", 0u64);
            t.set_attr(s, "bytes_out", 0u64);
            if let Some(iter) = self.loop_iters.last() {
                t.set_attr(s, "loop_iter", *iter);
            }
            s
        });
        let prev_region = self.current_region;
        self.current_region = span;
        let sup_mark = self.runtime.supervision.events.len();
        // A live stdin binding (`... | while read`, a redirected body)
        // feeds the pipeline bytes the region extractor cannot see;
        // only file-fed regions are offered to the engine.
        if !matches!(io.stdin, InputBinding::Empty) {
            self.trace_region_attr("reason", "live stdin binding");
            self.trace.push(TraceEvent {
                pipeline: text,
                action: Action::Interpreted {
                    reason: "live stdin binding".to_string(),
                },
            });
            self.nested.push(NestedRegion {
                span,
                prev_region,
                sup_mark,
            });
            return None;
        }
        match self.try_optimize(state, pl, io, &text) {
            Ok(Some(status)) => {
                self.mirror_supervision(sup_mark);
                if let (Some(t), Some(s)) = (&self.tracer, span) {
                    t.set_attr(s, "status", i64::from(status));
                    t.end(s);
                }
                self.current_region = prev_region;
                Some(Ok(status))
            }
            Ok(None) => {
                // Declined (ineligible, planner said no, or failed over):
                // leave the span open — the interpreter runs the pipeline
                // next and `pipeline_interpreted` closes the books.
                self.nested.push(NestedRegion {
                    span,
                    prev_region,
                    sup_mark,
                });
                None
            }
            Err(e) => {
                self.mirror_supervision(sup_mark);
                if let (Some(t), Some(s)) = (&self.tracer, span) {
                    t.end(s);
                }
                self.current_region = prev_region;
                Some(Err(e))
            }
        }
    }

    fn pipeline_interpreted(&mut self, result: &jash_interp::Result<i32>) {
        let Some(n) = self.nested.pop() else { return };
        self.mirror_supervision(n.sup_mark);
        if let (Some(t), Some(s)) = (&self.tracer, n.span) {
            if let Ok(status) = result {
                t.set_attr(s, "status", i64::from(*status));
            }
            t.end(s);
        }
        self.current_region = n.prev_region;
    }

    fn loop_enter(&mut self) {
        self.loop_iters.push(0);
    }

    fn loop_iter(&mut self, iter: u64) {
        if let Some(top) = self.loop_iters.last_mut() {
            *top = iter;
        }
    }

    fn loop_exit(&mut self) {
        self.loop_iters.pop();
    }
}

/// Renders one supervision event as a named trace event with typed
/// attributes (the structured twin of [`SupervisionEvent`]'s `Display`).
fn supervision_attrs(e: &SupervisionEvent) -> (&'static str, Vec<(String, AttrValue)>) {
    fn a(k: &str, v: impl Into<AttrValue>) -> (String, AttrValue) {
        (k.to_string(), v.into())
    }
    match e {
        SupervisionEvent::Attempt {
            region,
            attempt,
            width,
        } => (
            "supervision.attempt",
            vec![
                a("region", *region),
                a("attempt", u64::from(*attempt)),
                a("width", *width),
            ],
        ),
        SupervisionEvent::Backoff {
            region,
            attempt,
            delay,
            class,
        } => (
            "supervision.backoff",
            vec![
                a("region", *region),
                a("attempt", u64::from(*attempt)),
                a("delay_us", delay.as_micros() as u64),
                a("class", class.to_string()),
            ],
        ),
        SupervisionEvent::Recovered {
            region,
            attempts,
            width,
        } => (
            "supervision.recovered",
            vec![
                a("region", *region),
                a("attempts", u64::from(*attempts)),
                a("width", *width),
            ],
        ),
        SupervisionEvent::WidthDegraded {
            region,
            from,
            to,
            class,
        } => (
            "supervision.width_degraded",
            vec![
                a("region", *region),
                a("from", *from),
                a("to", *to),
                a("class", class.to_string()),
            ],
        ),
        SupervisionEvent::KernelDegraded {
            region,
            nodes,
            class,
        } => (
            "supervision.kernel_degraded",
            vec![
                a("region", *region),
                a("nodes", *nodes),
                a("class", class.to_string()),
            ],
        ),
        SupervisionEvent::FailedOver { region, class } => (
            "supervision.failed_over",
            vec![a("region", *region), a("class", class.to_string())],
        ),
        SupervisionEvent::BreakerOpened {
            fingerprint,
            failures,
        } => (
            "supervision.breaker_opened",
            vec![
                a("fingerprint", format!("{fingerprint:016x}")),
                a("failures", u64::from(*failures)),
            ],
        ),
        SupervisionEvent::BreakerRouted {
            region,
            fingerprint,
        } => (
            "supervision.breaker_routed",
            vec![
                a("region", *region),
                a("fingerprint", format!("{fingerprint:016x}")),
            ],
        ),
        SupervisionEvent::BreakerHalfOpen { fingerprint } => (
            "supervision.breaker_half_open",
            vec![a("fingerprint", format!("{fingerprint:016x}"))],
        ),
        SupervisionEvent::BreakerClosed { fingerprint } => (
            "supervision.breaker_closed",
            vec![a("fingerprint", format!("{fingerprint:016x}"))],
        ),
    }
}

/// Sums the sizes of all files the region reads.
fn region_input_bytes(state: &ShellState, region: &Region) -> u64 {
    let mut total = 0;
    for c in &region.commands {
        if let Some(p) = &c.stdin_redirect {
            if let Ok(m) = state.fs.metadata(p) {
                total += m.size;
            }
        }
        // File operands: a conservative sweep over non-flag args that
        // exist on the filesystem.
        for a in &c.args {
            if a.starts_with('-') {
                continue;
            }
            let p = state.resolve_path(a);
            if let Ok(m) = state.fs.metadata(&p) {
                if !m.is_dir {
                    total += m.size;
                }
            }
        }
    }
    total
}

/// Contiguous split plans: every split gets byte targets proportional to
/// the region input.
fn split_plans(
    dfg: &jash_dataflow::Dfg,
    total_bytes: u64,
) -> HashMap<jash_dataflow::NodeId, Vec<u64>> {
    let mut plans = HashMap::new();
    for n in dfg.node_ids() {
        if let NodeKind::Split { width } = dfg.node(n).kind {
            plans.insert(n, balanced_targets(total_bytes.max(1), width));
        }
    }
    plans
}
