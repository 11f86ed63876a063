//! Fault-sweep harness: crash-equivalence measurement.
//!
//! Where `fig1` measures *speed*, this harness measures *soundness under
//! failure*: it runs one script under a family of deterministic fault
//! plans on all three engines and checks, per fault, that the optimizing
//! engines degrade to exactly the sequential baseline — same exit
//! status, byte-identical stdout, same surviving files, and no
//! transactional staging debris. It is the measurement instrument for
//! the tentpole claim that optimized execution is crash-equivalent to
//! sequential execution.
//!
//! Run it with `cargo run --release -p jash-bench --bin faultsweep`
//! (knobs: `JASH_BENCH_MB`, `JASH_FAULT_SEED`).

use jash_core::{Engine, Jash, RuntimeInfo, TraceEvent};
use jash_cost::{MachineProfile, PlannerOptions};
use jash_expand::ShellState;
use jash_io::{FaultFs, FaultPlan, FsHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One fault scenario in a sweep.
pub struct FaultCase {
    /// Display name.
    pub name: String,
    /// The injected plan (empty for the baseline case).
    pub plan: FaultPlan,
}

/// The default sweep over a single input file of `input_len` bytes:
/// a clean control, read errors at the head / middle / tail (the tail
/// lands in the last parallel branch of a contiguous split), mid-stream
/// truncation, an open failure, benign short reads, and a seeded
/// probabilistic error mix.
pub fn default_sweep(path: &str, input_len: u64, seed: u64) -> Vec<FaultCase> {
    let mk = |name: &str, plan: FaultPlan| FaultCase {
        name: name.to_string(),
        plan,
    };
    vec![
        mk("clean (control)", FaultPlan::new()),
        mk(
            "read error @ head",
            FaultPlan::new().read_error_at(path, input_len / 100, "disk surface error"),
        ),
        mk(
            "read error @ middle",
            FaultPlan::new().read_error_at(path, input_len / 2, "disk surface error"),
        ),
        mk(
            "read error @ tail",
            FaultPlan::new().read_error_at(path, input_len - input_len / 100, "disk surface error"),
        ),
        mk(
            "truncation @ middle",
            FaultPlan::new().truncate_at(path, input_len / 2),
        ),
        mk(
            "open failure",
            FaultPlan::new().open_error(path, "permission denied"),
        ),
        mk(
            "short reads (benign)",
            FaultPlan::new().short_reads(path, 101),
        ),
        mk(
            "probabilistic read errors",
            FaultPlan::new().with_seed(seed).rule(jash_io::fault::FaultRule {
                path: Some(path.to_string()),
                op: jash_io::fault::FaultOp::Read,
                trigger: jash_io::fault::Trigger::Probability(0.02),
                kind: jash_io::fault::FaultKind::Error {
                    kind: std::io::ErrorKind::Other,
                    msg: "injected: probabilistic read error".to_string(),
                },
                once: false,
            }),
        ),
    ]
}

/// One engine's behavior under one fault case.
pub struct SweepRow {
    /// Fault case name.
    pub case: String,
    /// Engine measured.
    pub engine: Engine,
    /// Exit status of the session.
    pub status: i32,
    /// Whether an optimized region faulted and fell back.
    pub failed_over: bool,
    /// Wall time of the run.
    pub wall: Duration,
    /// Status and stdout both equal to the Bash baseline under the same
    /// fault.
    pub matches_baseline: bool,
    /// Whether any `.jash-stage-*` file survived (must never happen).
    pub staging_debris: bool,
}

fn debris(fs: &FsHandle) -> bool {
    for dir in ["/", "/tmp", "/data"] {
        for name in fs.list_dir(dir).unwrap_or_default() {
            if name.contains(".jash-stage-") {
                return true;
            }
        }
    }
    false
}

/// Runs `script` on every engine under every case. `stage` is called
/// with a fresh in-memory fs per run so each run sees identical inputs.
pub fn run_sweep(
    script: &str,
    stage: &dyn Fn(&FsHandle),
    cases: &[FaultCase],
    machine: MachineProfile,
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for case in cases {
        let mut baseline: Option<(i32, Vec<u8>)> = None;
        for engine in Engine::ALL {
            let inner = jash_io::mem_fs();
            stage(&inner);
            let fs: FsHandle = if case.plan.is_empty() {
                Arc::clone(&inner)
            } else {
                FaultFs::wrap(Arc::clone(&inner), case.plan.clone())
            };
            let mut state = ShellState::new(fs);
            let mut shell = Jash::new(engine, machine);
            shell.planner = PlannerOptions {
                min_speedup: 0.0,
                force_width: Some(machine.cores.min(4)),
                ..Default::default()
            };
            let t0 = Instant::now();
            let result = match shell.run_script(&mut state, script) {
                Ok(r) => r,
                Err(e) => jash_interp::RunResult {
                    status: 2,
                    stdout: Vec::new(),
                    stderr: format!("jash: {e}\n").into_bytes(),
                },
            };
            let wall = t0.elapsed();
            let matches_baseline = match &baseline {
                None => {
                    baseline = Some((result.status, result.stdout.clone()));
                    true
                }
                Some((st, out)) => *st == result.status && *out == result.stdout,
            };
            rows.push(SweepRow {
                case: case.name.clone(),
                engine,
                status: result.status,
                failed_over: shell.trace.iter().any(TraceEvent::failed_over),
                wall,
                matches_baseline,
                staging_debris: debris(&inner),
            });
        }
    }
    rows
}

/// Renders the sweep as an aligned text table.
pub fn render(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:<6} {:>6} {:>10} {:>9} {:>8} {:>7}\n",
        "fault", "engine", "status", "failover", "equal", "debris", "ms"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:<6} {:>6} {:>10} {:>9} {:>8} {:>7}\n",
            r.case,
            r.engine.to_string(),
            r.status,
            if r.failed_over { "yes" } else { "-" },
            if r.matches_baseline { "ok" } else { "DIVERGED" },
            if r.staging_debris { "LEAKED" } else { "-" },
            r.wall.as_millis(),
        ));
    }
    out
}

/// Whether the sweep upholds crash-equivalence: every row matches the
/// baseline and no row leaked staging files.
pub fn sweep_holds(rows: &[SweepRow]) -> bool {
    rows.iter().all(|r| r.matches_baseline && !r.staging_debris)
}

/// Which recovery mechanism a supervision case is expected to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Transient fault absorbed by retry-with-backoff: no failover, no
    /// width change.
    Retry,
    /// Resource fault absorbed by stepping down the width ladder: the
    /// region still optimizes, at reduced width.
    Degrade,
    /// Permanent fault repeated until the circuit breaker opens: later
    /// matching regions route straight to the interpreter.
    Breaker,
    /// Fused-kernel fault absorbed one rung down: the kernel is evicted
    /// and the unfused channel-per-stage pipeline completes the region —
    /// no failover, no width change.
    KernelDegrade,
    /// Fused-kernel fault whose unfused rung *also* faults (sticky commit
    /// error): the region walks the whole ladder and lands on the
    /// interpreter.
    KernelFailover,
    /// A fault inside iteration k of a JIT'd loop: that iteration (and
    /// only that iteration) walks kernel → unfused → interpreter; loop
    /// state stays correct, and iteration k+1 re-attempts the cached
    /// plan instead of staying de-optimized.
    LoopRecovery,
}

impl std::fmt::Display for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Recovery::Retry => write!(f, "retry"),
            Recovery::Degrade => write!(f, "degrade"),
            Recovery::Breaker => write!(f, "breaker"),
            Recovery::KernelDegrade => write!(f, "unfuse"),
            Recovery::KernelFailover => write!(f, "unfuse+fo"),
            Recovery::LoopRecovery => write!(f, "loop-iter"),
        }
    }
}

/// One supervised-recovery scenario.
pub struct SupervisionCase {
    /// Display name.
    pub name: String,
    /// The script (cases differ: the breaker needs a repeated shape).
    pub script: String,
    /// The injected plan.
    pub plan: FaultPlan,
    /// The recovery mechanism that must be visible in the log.
    pub expect: Recovery,
    /// Whether the Bash baseline runs under the same fault. Transient
    /// and resource faults are consumed by the retrying JIT, so its
    /// output must equal the *clean* run; sticky faults are visible to
    /// every engine, so the baseline runs faulted.
    pub baseline_faulted: bool,
    /// Injected fused-kernel fault ([`Jash::kernel_fault`]): every fused
    /// kernel in the run fails with this message. Only meaningful with
    /// `force_fusion`.
    pub kernel_fault: Option<String>,
    /// Pin kernel fusion on so the fused rung is actually on the ladder.
    pub force_fusion: bool,
}

/// The default supervised-recovery sweep: one case per rung of the
/// degradation ladder (retry at full width, width degradation, breaker
/// routing to the interpreter, kernel eviction to the unfused pipeline,
/// and the full kernel -> unfused -> interpreter walk).
pub fn default_supervision_sweep(path: &str, input_len: u64) -> Vec<SupervisionCase> {
    let single = format!("cat {path} | tr A-Z a-z | tr -cs a-z '\\n' | sort -u > /out");
    // A chain with a fusible run (`tr|grep|cut`) for the kernel cases.
    let fusible = format!("cat {path} | tr A-Z a-z | grep -v qqqq | cut -c 1-40 > /out");
    vec![
        SupervisionCase {
            name: "transient read fault -> retry".to_string(),
            script: single.clone(),
            plan: FaultPlan::new().rule(jash_io::fault::FaultRule {
                path: Some(path.to_string()),
                op: jash_io::fault::FaultOp::Read,
                trigger: jash_io::fault::Trigger::AtByte(input_len / 2),
                kind: jash_io::fault::FaultKind::Error {
                    kind: std::io::ErrorKind::Other,
                    msg: "injected: transient controller reset".to_string(),
                },
                once: true,
            }),
            expect: Recovery::Retry,
            baseline_faulted: false,
            kernel_fault: None,
            force_fusion: false,
        },
        SupervisionCase {
            name: "resource open faults -> width degradation".to_string(),
            script: single,
            plan: FaultPlan::new().resource_open_errors(path, 2),
            expect: Recovery::Degrade,
            baseline_faulted: false,
            kernel_fault: None,
            force_fusion: false,
        },
        SupervisionCase {
            name: "sticky commit fault -> breaker".to_string(),
            // The same shape five times: fail-overs 1-3 open the breaker,
            // statements 4-5 route to the interpreter.
            script: format!("cat {path} | tr A-Z a-z | sort -u > /out\n").repeat(5),
            plan: FaultPlan::new().rename_error("/out", "media failure on commit"),
            expect: Recovery::Breaker,
            baseline_faulted: true,
            kernel_fault: None,
            force_fusion: false,
        },
        SupervisionCase {
            name: "kernel fault -> unfused pipeline".to_string(),
            script: fusible.clone(),
            plan: FaultPlan::new(),
            expect: Recovery::KernelDegrade,
            baseline_faulted: false,
            kernel_fault: Some("injected: fused kernel fault".to_string()),
            force_fusion: true,
        },
        SupervisionCase {
            name: "kernel fault + sticky commit -> interpreter".to_string(),
            script: fusible,
            plan: FaultPlan::new().rename_error("/out", "media failure on commit"),
            expect: Recovery::KernelFailover,
            baseline_faulted: true,
            kernel_fault: Some("injected: fused kernel fault".to_string()),
            force_fusion: true,
        },
        SupervisionCase {
            name: "loop: iteration-1 fault -> recover next iter".to_string(),
            // Three iterations of a fused chain. The kernel fault hits
            // every fused rung; the once-only commit fault additionally
            // breaks iteration 1's unfused rung — so iteration 1 walks
            // the whole ladder to the interpreter while iterations 2-3
            // stop at the unfused pipeline, re-attempting the plan the
            // cache kept (failures never evict). The trailing echo
            // proves loop state ($f, $?) survived the mid-loop failover.
            script: format!(
                "for f in 1 2 3; do cat {path} | tr A-Z a-z | grep -v qqqq | cut -c 1-40 >> /out; done\n\
                 echo loop-done $f $?"
            ),
            plan: FaultPlan::new().rule(jash_io::fault::FaultRule {
                path: Some("/out".to_string()),
                op: jash_io::fault::FaultOp::Rename,
                trigger: jash_io::fault::Trigger::Always,
                kind: jash_io::fault::FaultKind::Error {
                    kind: std::io::ErrorKind::Other,
                    msg: "injected: media failure on commit".to_string(),
                },
                once: true,
            }),
            expect: Recovery::LoopRecovery,
            baseline_faulted: false,
            kernel_fault: Some("injected: fused kernel fault".to_string()),
            force_fusion: true,
        },
    ]
}

/// The JIT's behavior under one supervision case.
pub struct SupervisionRow {
    /// Case name.
    pub case: String,
    /// Expected mechanism.
    pub expect: Recovery,
    /// Session exit status.
    pub status: i32,
    /// Status, stdout, and `/out` all equal to the baseline run.
    pub matches_baseline: bool,
    /// Whether any `.jash-stage-*` file survived (must never happen).
    pub staging_debris: bool,
    /// Whether the supervision log shows the expected recovery events.
    pub expected_behavior: bool,
    /// Plan-cache hits in the JashJit run (loop cases reuse iteration
    /// 1's plan; failures must not evict it).
    pub plan_cache_hits: u64,
    /// The runtime record of the JashJit run (counters + event log).
    pub runtime: RuntimeInfo,
}

/// Runs the supervision sweep: each case on JashJit under the fault,
/// compared against a Bash baseline (faulted or clean per the case).
pub fn run_supervision_sweep(
    stage: &dyn Fn(&FsHandle),
    cases: &[SupervisionCase],
    machine: MachineProfile,
) -> Vec<SupervisionRow> {
    let planner = PlannerOptions {
        min_speedup: 0.0,
        force_width: Some(machine.cores.min(4)),
        ..Default::default()
    };
    let run = |engine: Engine, plan: Option<FaultPlan>, case: &SupervisionCase| {
        let inner = jash_io::mem_fs();
        stage(&inner);
        let fs: FsHandle = match plan {
            Some(p) if !p.is_empty() => FaultFs::wrap(Arc::clone(&inner), p),
            _ => Arc::clone(&inner),
        };
        let mut state = ShellState::new(fs);
        let mut shell = Jash::new(engine, machine);
        shell.planner = planner;
        shell.planner.force_fusion = case.force_fusion;
        if engine == Engine::JashJit {
            shell.kernel_fault = case.kernel_fault.clone();
        }
        let result = match shell.run_script(&mut state, &case.script) {
            Ok(r) => r,
            Err(e) => jash_interp::RunResult {
                status: 2,
                stdout: Vec::new(),
                stderr: format!("jash: {e}\n").into_bytes(),
            },
        };
        let out_file = jash_io::fs::read_to_vec(inner.as_ref(), "/out").ok();
        let hits = shell.plan_cache.hits;
        (result, out_file, debris(&inner), shell.runtime, hits)
    };

    cases
        .iter()
        .map(|case| {
            let baseline_plan = case.baseline_faulted.then(|| case.plan.clone());
            let (base, base_out, _, _, _) = run(Engine::Bash, baseline_plan, case);
            let (jit, jit_out, jit_debris, runtime, plan_cache_hits) =
                run(Engine::JashJit, Some(case.plan.clone()), case);
            let log = &runtime.supervision;
            let expected_behavior = match case.expect {
                Recovery::Retry => {
                    runtime.regions_failed_over == 0
                        && log.recoveries() >= 1
                        && log.degradations() == 0
                        && log
                            .events
                            .iter()
                            .any(|e| matches!(e, jash_core::SupervisionEvent::Backoff { .. }))
                }
                Recovery::Degrade => {
                    runtime.regions_failed_over == 0
                        && log.recoveries() >= 1
                        && log.degradations() >= 1
                }
                Recovery::Breaker => log.breaker_opens() >= 1 && log.breaker_routed() >= 1,
                Recovery::KernelDegrade => {
                    runtime.regions_failed_over == 0
                        && log.kernel_degradations() >= 1
                        && log.recoveries() >= 1
                }
                Recovery::KernelFailover => {
                    log.kernel_degradations() >= 1 && runtime.regions_failed_over >= 1
                }
                Recovery::LoopRecovery => {
                    // Iteration 1 (and only it) failed over; later
                    // iterations re-attempted the cached plan and
                    // recovered at the unfused rung.
                    runtime.regions_failed_over == 1
                        && log.kernel_degradations() >= 2
                        && runtime.regions_optimized >= 2
                        && log.recoveries() >= 1
                        && plan_cache_hits >= 2
                }
            };
            SupervisionRow {
                case: case.name.clone(),
                expect: case.expect,
                status: jit.status,
                matches_baseline: jit.status == base.status
                    && jit.stdout == base.stdout
                    && jit_out == base_out,
                staging_debris: jit_debris,
                expected_behavior,
                plan_cache_hits,
                runtime,
            }
        })
        .collect()
}

/// Renders the supervision sweep: one summary line per case, followed by
/// that case's full supervision event log (the recovery story, step by
/// step).
pub fn render_supervision(rows: &[SupervisionRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:<8} {:>6} {:>9} {:>8} {:>9}\n",
        "case", "expect", "status", "equal", "debris", "behavior"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<44} {:<8} {:>6} {:>9} {:>8} {:>9}\n",
            r.case,
            r.expect.to_string(),
            r.status,
            if r.matches_baseline { "ok" } else { "DIVERGED" },
            if r.staging_debris { "LEAKED" } else { "-" },
            if r.expected_behavior { "ok" } else { "MISSING" },
        ));
    }
    for r in rows {
        out.push_str(&format!(
            "\n[{}] optimized={} recovered={} failed_over={}\n",
            r.case,
            r.runtime.regions_optimized,
            r.runtime.regions_recovered,
            r.runtime.regions_failed_over
        ));
        for line in r.runtime.supervision.render().lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Whether the supervision sweep holds: every case matches its baseline,
/// leaked nothing, and showed the expected recovery mechanism.
pub fn supervision_holds(rows: &[SupervisionRow]) -> bool {
    rows.iter()
        .all(|r| r.matches_baseline && !r.staging_debris && r.expected_behavior)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_is_crash_equivalent() {
        let docs = crate::documents(64 * 1024, 11);
        let dict = crate::dictionary();
        let len = docs.len() as u64;
        let stage = move |fs: &FsHandle| {
            jash_io::fs::write_file(fs.as_ref(), "/data/docs.txt", &docs).unwrap();
            jash_io::fs::write_file(fs.as_ref(), "/data/dict.txt", &dict).unwrap();
        };
        let script =
            "cat /data/docs.txt | tr A-Z a-z | tr -cs a-z '\\n' | sort -u | comm -13 /data/dict.txt - > /out";
        let machine = MachineProfile {
            cores: 4,
            disk: jash_io::DiskProfile::ramdisk(),
            mem_mb: 4 * 1024,
        };
        let rows = run_sweep(script, &stage, &default_sweep("/data/docs.txt", len, 7), machine);
        assert_eq!(rows.len(), 8 * Engine::ALL.len());
        assert!(sweep_holds(&rows), "\n{}", render(&rows));
        // The injected faults actually made the JIT fail over somewhere.
        assert!(rows
            .iter()
            .any(|r| r.engine == Engine::JashJit && r.failed_over));
    }

    #[test]
    fn supervision_sweep_demonstrates_the_ladder() {
        let docs = crate::documents(64 * 1024, 11);
        let dict = crate::dictionary();
        let len = docs.len() as u64;
        let stage = move |fs: &FsHandle| {
            jash_io::fs::write_file(fs.as_ref(), "/data/docs.txt", &docs).unwrap();
            jash_io::fs::write_file(fs.as_ref(), "/data/dict.txt", &dict).unwrap();
        };
        let machine = MachineProfile {
            cores: 4,
            disk: jash_io::DiskProfile::ramdisk(),
            mem_mb: 4 * 1024,
        };
        let cases = default_supervision_sweep("/data/docs.txt", len);
        let rows = run_supervision_sweep(&stage, &cases, machine);
        assert_eq!(rows.len(), 6);
        assert!(
            supervision_holds(&rows),
            "\n{}",
            render_supervision(&rows)
        );
        // Each case exercised a *different* mechanism.
        assert_eq!(rows[0].expect, Recovery::Retry);
        assert_eq!(rows[1].expect, Recovery::Degrade);
        assert_eq!(rows[2].expect, Recovery::Breaker);
        assert_eq!(rows[3].expect, Recovery::KernelDegrade);
        assert_eq!(rows[4].expect, Recovery::KernelFailover);
        assert_eq!(rows[5].expect, Recovery::LoopRecovery);
        // The loop case's fault hit one iteration; the others recovered
        // on the cached plan.
        assert_eq!(rows[5].runtime.regions_failed_over, 1);
        assert!(rows[5].plan_cache_hits >= 2, "\n{}", render_supervision(&rows));
        // The kernel-eviction story is spelled out in the rendered log.
        assert!(
            render_supervision(&rows).contains("kernel-degrade"),
            "\n{}",
            render_supervision(&rows)
        );
    }
}
