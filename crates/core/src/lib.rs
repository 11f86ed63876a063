//! **Jash** — "Just a shell": the dynamically-triggered optimization
//! regime proposed by *Unix Shell Programming: The Next 50 Years*
//! (HotOS '21, §3.2).
//!
//! A [`Jash`] session interprets scripts statement by statement. For each
//! top-level pipeline it attempts, in order:
//!
//! 1. **region extraction** — purity-check every word (Smoosh-style
//!    effect analysis) and expand the pure ones *early*, against live
//!    shell state;
//! 2. **dataflow compilation** — resolve each stage against the command
//!    specification registry and build a graph;
//! 3. **runtime information** — stat the input files, snapshot the
//!    machine profile;
//! 4. **resource-aware planning** — pick a parallelization width whose
//!    projected makespan clears the no-regression margin;
//! 5. **rewriting and execution** — split/clone/merge on the threaded
//!    executor, delivering byte-identical output.
//!
//! Any step that fails falls back to the interpreter — soundness first.
//! The same type also hosts the two baselines of the paper's Figure 1:
//! [`Engine::Bash`] (never optimize) and [`Engine::PashAot`]
//! (ahead-of-time: only statically-expandable words, fixed width, disk
//! buffering, no resource awareness).
//!
//! # Examples
//!
//! ```
//! use jash_core::{Engine, Jash};
//! use jash_cost::MachineProfile;
//! use jash_expand::ShellState;
//!
//! let fs = jash_io::mem_fs();
//! jash_io::fs::write_file(fs.as_ref(), "/w.txt", b"delta\nalpha\n".repeat(1).as_slice()).unwrap();
//! let mut state = ShellState::new(fs);
//! let mut shell = Jash::new(Engine::JashJit, MachineProfile::laptop());
//! let r = shell.run_script(&mut state, "FILES=/w.txt; cat $FILES | sort | head -n1").unwrap();
//! assert_eq!(r.stdout, b"alpha\n");
//! ```

pub mod engine;
pub mod jit;
pub mod plancache;
pub mod recovery;
pub mod region;
pub mod supervise;

pub use engine::{Action, Engine, RegionFailure, RuntimeInfo, TraceEvent};
pub use recovery::{
    cancel_exit_code, list_run_scopes, recover_serve_root, remove_tree, shutdown_code,
    shutdown_reason, sweep_stage_debris, RecoveredRun, RecoveryReport, ResumePlan, ServeRecovery,
};
pub use jash_exec::{
    classify, ErrorClass, RetryPolicy, SupervisionEvent, SupervisionLog,
};
pub use jit::{Jash, JitCore};
pub use plancache::{byte_bucket, options_signature, PlanCache};
pub use region::{jit_region, static_region, Ineligible};
pub use supervise::{
    cross_run_pressure, degradation_ladder, resource_pressure, BreakerConfig, CircuitBreaker,
    Route,
};

#[cfg(test)]
mod tests {
    use super::*;
    use jash_cost::MachineProfile;
    use jash_expand::ShellState;
    use jash_io::FsHandle;

    fn fs_with(files: &[(&str, &str)]) -> FsHandle {
        let fs = jash_io::mem_fs();
        for (p, c) in files {
            jash_io::fs::write_file(fs.as_ref(), p, c.as_bytes()).unwrap();
        }
        fs
    }

    fn machine() -> MachineProfile {
        // A fixed profile so tests do not depend on the host's core count
        // (CI containers may expose a single CPU).
        MachineProfile {
            cores: 8,
            disk: jash_io::DiskProfile::ramdisk(),
            mem_mb: 8 * 1024,
        }
    }

    /// A planner that optimizes eagerly (tiny test inputs would otherwise
    /// trip the guard — which is itself under test separately).
    fn eager() -> jash_cost::PlannerOptions {
        jash_cost::PlannerOptions {
            min_speedup: 0.0,
            force_width: Some(4),
            ..Default::default()
        }
    }

    fn run_engine(engine: Engine, fs: FsHandle, src: &str) -> (jash_interp::RunResult, Jash) {
        let mut state = ShellState::new(fs);
        let mut shell = Jash::new(engine, machine());
        shell.planner = eager();
        let r = shell.run_script(&mut state, src).unwrap();
        (r, shell)
    }

    const SPELL: &str = r#"
DICT=/dict
FILES="/d/a.txt /d/b.txt"
cat $FILES | tr A-Z a-z | tr -cs A-Za-z '\n' | sort -u | comm -13 $DICT -
"#;

    fn spell_fs() -> FsHandle {
        let doc_a = "The Quick brown FOX liked Rust\n".repeat(300);
        let doc_b = "A lazy dog misspeled wrods here\n".repeat(300);
        fs_with(&[
            ("/d/a.txt", &doc_a),
            ("/d/b.txt", &doc_b),
            (
                "/dict",
                "a\nbrown\ndog\nfox\nhere\nlazy\nliked\nquick\nrust\nthe\n",
            ),
        ])
    }

    #[test]
    fn all_engines_agree_on_spell_output() {
        let (bash, _) = run_engine(Engine::Bash, spell_fs(), SPELL);
        let (pash, _) = run_engine(Engine::PashAot, spell_fs(), SPELL);
        let (jash, _) = run_engine(Engine::JashJit, spell_fs(), SPELL);
        assert_eq!(bash.status, 0);
        assert_eq!(
            String::from_utf8_lossy(&bash.stdout),
            String::from_utf8_lossy(&pash.stdout)
        );
        assert_eq!(bash.stdout, jash.stdout);
        assert_eq!(
            String::from_utf8_lossy(&bash.stdout),
            "misspeled\nwrods\n"
        );
    }

    #[test]
    fn jit_optimizes_the_dynamic_spell_pipeline_but_aot_cannot() {
        // The paper's §3.2 example: `$FILES`/`$DICT` are dynamic, so
        // "neither PaSh nor POSH optimize this script" — but the JIT does.
        let (_, pash) = run_engine(Engine::PashAot, spell_fs(), SPELL);
        assert!(
            !pash.trace.iter().any(TraceEvent::was_optimized),
            "PashAot must not optimize: {:?}",
            pash.trace
        );
        assert!(pash
            .trace
            .iter()
            .any(|t| matches!(&t.action, Action::Interpreted { reason } if reason.contains("AOT"))));

        let (_, jash) = run_engine(Engine::JashJit, spell_fs(), SPELL);
        assert!(
            jash.trace.iter().any(TraceEvent::was_optimized),
            "JashJit must optimize: {:?}",
            jash.trace
        );
    }

    #[test]
    fn aot_optimizes_static_pipelines() {
        let fs = fs_with(&[("/in", &"WORD other\n".repeat(500))]);
        let (r, shell) = run_engine(Engine::PashAot, fs, "cat /in | tr A-Z a-z | sort");
        assert_eq!(r.status, 0);
        assert!(shell.trace.iter().any(TraceEvent::was_optimized));
        // PashAot plans are buffered at core-count width.
        let Action::Optimized { width, buffered, .. } = &shell
            .trace
            .iter()
            .find(|t| t.was_optimized())
            .unwrap()
            .action
        else {
            panic!()
        };
        assert_eq!(*width, machine().cores);
        assert!(buffered);
    }

    #[test]
    fn bash_never_optimizes() {
        let fs = fs_with(&[("/in", "b\na\n")]);
        let (r, shell) = run_engine(Engine::Bash, fs, "cat /in | sort");
        assert_eq!(r.stdout, b"a\nb\n");
        assert!(shell.trace.is_empty());
    }

    #[test]
    fn guard_declines_tiny_inputs() {
        let fs = fs_with(&[("/tiny", "b\na\n")]);
        let mut state = ShellState::new(fs);
        let mut shell = Jash::new(Engine::JashJit, machine());
        // Default planner: real margin.
        let r = shell.run_script(&mut state, "cat /tiny | sort").unwrap();
        assert_eq!(r.stdout, b"a\nb\n");
        assert!(
            !shell.trace.iter().any(TraceEvent::was_optimized),
            "{:?}",
            shell.trace
        );
        assert!(shell.trace.iter().any(
            |t| matches!(&t.action, Action::Interpreted { reason } if reason.contains("declined"))
        ));
    }

    #[test]
    fn optimized_region_writes_file_output() {
        let fs = fs_with(&[("/in", &"Zebra apple\n".repeat(400))]);
        let src = "cat /in | tr A-Z a-z | sort > /out";
        let (r, shell) = run_engine(Engine::JashJit, std::sync::Arc::clone(&fs), src);
        assert_eq!(r.status, 0);
        assert!(r.stdout.is_empty());
        assert!(shell.trace.iter().any(TraceEvent::was_optimized));
        let out = jash_io::fs::read_to_vec(fs.as_ref(), "/out").unwrap();
        let (seq, _) = run_engine(Engine::Bash, fs_with(&[("/in", &"Zebra apple\n".repeat(400))]), "cat /in | tr A-Z a-z | sort");
        assert_eq!(out, seq.stdout);
    }

    #[test]
    fn impure_pipelines_fall_back() {
        let fs = fs_with(&[("/in", "x\n")]);
        let (r, shell) = run_engine(Engine::JashJit, fs, "cat /in $(echo /in) | sort");
        assert_eq!(r.status, 0);
        // Two copies of x (cat ran with both operands) — via interpreter.
        assert_eq!(r.stdout, b"x\nx\n");
        assert!(!shell.trace.iter().any(TraceEvent::was_optimized));
    }

    #[test]
    fn unknown_commands_fall_back_and_fail_normally() {
        let fs = fs_with(&[("/in", "x\n")]);
        let (r, shell) = run_engine(Engine::JashJit, fs, "cat /in | not-a-real-filter");
        assert_eq!(r.status, 127);
        assert!(!shell.trace.iter().any(TraceEvent::was_optimized));
    }

    #[test]
    fn shell_state_flows_around_optimized_regions() {
        let fs = fs_with(&[("/in", &"q W e\n".repeat(300))]);
        let src = "x=1; cat /in | tr A-Z a-z | sort -u; y=$((x+1)); echo $y";
        let (r, shell) = run_engine(Engine::JashJit, fs, src);
        assert_eq!(r.status, 0);
        assert!(shell.trace.iter().any(TraceEvent::was_optimized));
        assert!(String::from_utf8_lossy(&r.stdout).ends_with("2\n"));
    }

    #[test]
    fn exit_status_of_optimized_grep_respected() {
        let fs = fs_with(&[("/in", &"hay\n".repeat(500))]);
        let (r, shell) = run_engine(Engine::JashJit, fs, "cat /in | grep needle");
        assert_eq!(r.status, 1, "{:?}", shell.trace);
    }

    #[test]
    fn temperature_pipeline_all_engines() {
        let mut rec = String::new();
        for i in 0..400 {
            let t = (i * 83) % 700;
            rec.push_str(&"x".repeat(88));
            rec.push_str(&format!("{t:04}xxxx\n"));
        }
        let src = "cut -c 89-92 < /noaa | grep -v 999 | sort -rn | head -n1";
        let mut outputs = Vec::new();
        for e in Engine::ALL {
            let (r, _) = run_engine(e, fs_with(&[("/noaa", &rec)]), src);
            assert_eq!(r.status, 0);
            outputs.push(r.stdout);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn sticky_fault_falls_back_and_matches_bash() {
        // A sticky read fault fires in the optimized attempt *and* in the
        // sequential rerun, so JashJit must degrade to exactly what the
        // Bash engine reports — status and bytes.
        let src = "cat /in | tr A-Z a-z | sort -u";
        let make_fs = || {
            let fs = fs_with(&[("/in", &"Delta Alpha Bravo\n".repeat(300))]);
            let plan =
                jash_io::FaultPlan::new().read_error_at("/in", 256, "disk surface error");
            jash_io::FaultFs::wrap(fs, plan) as FsHandle
        };
        let (bash, _) = run_engine(Engine::Bash, make_fs(), src);
        let (jash, shell) = run_engine(Engine::JashJit, make_fs(), src);
        assert_eq!(jash.status, bash.status, "jash trace: {:?}", shell.trace);
        assert_eq!(jash.stdout, bash.stdout);
        assert!(
            shell.trace.iter().any(TraceEvent::failed_over),
            "{:?}",
            shell.trace
        );
        assert_eq!(shell.runtime.regions_failed_over, 1);
        assert_eq!(shell.runtime.failures.len(), 1);
        assert!(shell.runtime.failures[0]
            .failures
            .iter()
            .any(|f| f.contains("injected")));
    }

    #[test]
    fn shared_cancel_token_lets_watchdog_interrupt_stalled_reads() {
        // `Jash::cancel` is handed to optimized regions as
        // `ExecConfig::cancel`; the stall watchdog cancels it, which must
        // wake a read blocked *inside* the filesystem layer (FaultFs polls
        // the same token) — end to end, a stalled region aborts in
        // milliseconds instead of sleeping out the stall.
        let fs = fs_with(&[("/in", &"Delta Alpha Bravo\n".repeat(300))]);
        let plan = jash_io::FaultPlan::new()
            .stall_reads("/in", std::time::Duration::from_secs(300));
        let token = jash_io::CancelToken::new();
        let faulted = jash_io::FaultFs::wrap_with_cancel(fs, plan, token.clone()) as FsHandle;

        let mut state = ShellState::new(faulted);
        let mut shell = Jash::new(Engine::JashJit, machine());
        shell.planner = eager();
        shell.node_timeout = Some(std::time::Duration::from_millis(100));
        shell.cancel = Some(token);

        let start = std::time::Instant::now();
        let r = shell
            .run_script(&mut state, "cat /in | tr A-Z a-z | sort -u")
            .unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "stalled region should abort fast, took {:?}",
            start.elapsed()
        );
        assert_ne!(r.status, 0);
        assert_eq!(shell.runtime.regions_failed_over, 1);
        assert!(
            shell.runtime.failures[0]
                .failures
                .iter()
                .any(|f| f.contains("watchdog")),
            "{:?}",
            shell.runtime.failures
        );
    }

    #[test]
    fn transient_fault_recovers_via_retry_without_failover() {
        // A `once` transient fault hits only the first optimized attempt;
        // the supervisor classifies it transient, backs off, and re-runs
        // the *optimized* region — which succeeds. No interpreter
        // failover, output identical to a clean run, and the supervision
        // log shows the retry.
        let content = "Delta Alpha Bravo\n".repeat(300);
        let src = "cat /in | tr A-Z a-z | sort -u";
        let fs = fs_with(&[("/in", &content)]);
        let plan = jash_io::FaultPlan::new().rule(jash_io::fault::FaultRule {
            path: Some("/in".into()),
            op: jash_io::fault::FaultOp::Read,
            trigger: jash_io::fault::Trigger::AtByte(128),
            kind: jash_io::fault::FaultKind::Error {
                kind: std::io::ErrorKind::Other,
                msg: "injected: transient controller reset".into(),
            },
            once: true,
        });
        let faulty = jash_io::FaultFs::wrap(fs, plan) as FsHandle;
        let (jash, shell) = run_engine(Engine::JashJit, faulty, src);
        let (clean, _) = run_engine(Engine::Bash, fs_with(&[("/in", &content)]), src);
        assert_eq!(jash.status, 0, "trace: {:?}", shell.trace);
        assert_eq!(jash.stdout, clean.stdout);
        assert!(
            !shell.trace.iter().any(TraceEvent::failed_over),
            "transient fault must be absorbed by retry, not failover: {}",
            shell.runtime.supervision.render()
        );
        assert_eq!(shell.runtime.regions_failed_over, 0);
        assert_eq!(shell.runtime.regions_recovered, 1);
        assert_eq!(shell.runtime.supervision.recoveries(), 1);
        let log = &shell.runtime.supervision.events;
        assert!(
            log.iter()
                .any(|e| matches!(e, SupervisionEvent::Backoff { class: ErrorClass::Transient, .. })),
            "expected a transient backoff event: {}",
            shell.runtime.supervision.render()
        );
        assert!(
            log.iter().any(
                |e| matches!(e, SupervisionEvent::Recovered { attempts: 2, .. })
            ),
            "expected recovery on the second attempt: {}",
            shell.runtime.supervision.render()
        );
    }

    #[test]
    fn resource_fault_recovers_via_width_degradation() {
        // A resource-class fault that keeps firing for the first few
        // opens: the planned width-4 attempt fails, the supervisor steps
        // down the ladder instead of retrying (resource faults don't get
        // backoff), and a narrower rung succeeds — optimized output at
        // reduced width, no failover.
        let content = "Delta Alpha Bravo\n".repeat(300);
        let src = "cat /in | tr A-Z a-z | sort -u";
        let fs = fs_with(&[("/in", &content)]);
        let plan = jash_io::FaultPlan::new().resource_open_errors("/in", 2);
        let faulty = jash_io::FaultFs::wrap(fs, plan) as FsHandle;
        let (jash, shell) = run_engine(Engine::JashJit, faulty, src);
        let (clean, _) = run_engine(Engine::Bash, fs_with(&[("/in", &content)]), src);
        assert_eq!(jash.status, 0, "log: {}", shell.runtime.supervision.render());
        assert_eq!(jash.stdout, clean.stdout);
        assert_eq!(shell.runtime.regions_failed_over, 0);
        assert_eq!(shell.runtime.regions_recovered, 1);
        assert!(
            shell.runtime.supervision.degradations() >= 1,
            "expected width degradation: {}",
            shell.runtime.supervision.render()
        );
        assert!(
            shell
                .runtime
                .supervision
                .events
                .iter()
                .any(|e| matches!(
                    e,
                    SupervisionEvent::WidthDegraded { class: ErrorClass::Resource, .. }
                )),
            "degradations must be resource-classed: {}",
            shell.runtime.supervision.render()
        );
        // The recovery happened at a width below the planned one.
        assert!(
            shell.runtime.supervision.events.iter().any(|e| matches!(
                e,
                SupervisionEvent::Recovered { width, .. } if *width < 4
            )),
            "recovery should land at reduced width: {}",
            shell.runtime.supervision.render()
        );
    }

    #[test]
    fn breaker_quarantines_repeatedly_failing_shape() {
        // A sticky rename fault breaks the optimized path's transactional
        // commit on every attempt — but the interpreter writes /out
        // directly (no rename), so each statement still succeeds after
        // failover and the session keeps going. Statements 1-3 fail over
        // (opening the breaker at the default threshold of 3); statements
        // 4-5 route straight to the interpreter without burning an
        // optimized attempt. Output must match bash under the same fault.
        let content = "Zebra apple\n".repeat(300);
        let src = "cat /in | tr A-Z a-z | sort -u > /out\n".repeat(5);
        let make_fs = || {
            let fs = fs_with(&[("/in", &content)]);
            let plan = jash_io::FaultPlan::new().rename_error("/out", "media failure on commit");
            (
                std::sync::Arc::clone(&fs),
                jash_io::FaultFs::wrap(fs, plan) as FsHandle,
            )
        };
        let (jash_inner, jash_fs) = make_fs();
        let (jash, shell) = run_engine(Engine::JashJit, jash_fs, &src);
        let (bash_inner, bash_fs) = make_fs();
        let (bash, _) = run_engine(Engine::Bash, bash_fs, &src);
        assert_eq!(jash.status, bash.status, "log: {}", shell.runtime.supervision.render());
        assert_eq!(jash.stdout, bash.stdout);
        assert_eq!(
            jash_io::fs::read_to_vec(jash_inner.as_ref(), "/out").ok(),
            jash_io::fs::read_to_vec(bash_inner.as_ref(), "/out").ok(),
            "failover and breaker routing must both produce bash's /out"
        );
        assert_eq!(
            shell.runtime.regions_failed_over, 3,
            "log: {}",
            shell.runtime.supervision.render()
        );
        assert_eq!(shell.runtime.supervision.breaker_opens(), 1);
        assert_eq!(
            shell.runtime.supervision.breaker_routed(),
            2,
            "statements 4-5 must be routed, not attempted: {}",
            shell.runtime.supervision.render()
        );
        // No staging debris anywhere.
        for f in jash_inner.list_dir("/").unwrap() {
            assert!(!f.contains(".jash-stage-"), "debris: {f}");
        }
    }

    #[test]
    fn faulted_file_write_leaves_no_partial_output() {
        // The transactional sink plus fallback: a fault mid-region must
        // not leave /out (or any staging file) behind unless the
        // sequential rerun also produced it.
        let content = "Zebra apple\n".repeat(400);
        let make_fs = || {
            let fs = fs_with(&[("/in", &content)]);
            let plan =
                jash_io::FaultPlan::new().read_error_at("/in", 512, "disk surface error");
            (
                std::sync::Arc::clone(&fs),
                jash_io::FaultFs::wrap(fs, plan) as FsHandle,
            )
        };
        let src = "cat /in | tr A-Z a-z | sort > /out";
        let (bash_inner, bash_fs) = make_fs();
        let (bash, _) = run_engine(Engine::Bash, bash_fs, src);
        let (jash_inner, jash_fs) = make_fs();
        let (jash, shell) = run_engine(Engine::JashJit, jash_fs, src);
        assert_eq!(jash.status, bash.status, "trace: {:?}", shell.trace);
        assert!(shell.trace.iter().any(TraceEvent::failed_over));
        // Whatever the sequential engines left behind, the JIT left the
        // same — and never a staging file.
        assert_eq!(
            jash_io::fs::read_to_vec(bash_inner.as_ref(), "/out").ok(),
            jash_io::fs::read_to_vec(jash_inner.as_ref(), "/out").ok()
        );
        for f in jash_inner.list_dir("/").unwrap() {
            assert!(
                !f.contains(".jash-stage-"),
                "staging debris left behind: {f}"
            );
        }
    }

    #[test]
    fn control_flow_around_regions_still_works() {
        let fs = fs_with(&[("/in", &"A b C\n".repeat(200))]);
        let src = r#"
for pass in 1 2; do
    cat /in | tr A-Z a-z | sort -u
done
echo passes-done
"#;
        let (r, _) = run_engine(Engine::JashJit, fs, src);
        assert_eq!(r.status, 0);
        let text = String::from_utf8_lossy(&r.stdout);
        assert!(text.ends_with("passes-done\n"));
        // Pipeline inside the loop runs twice (offered to the JIT at its
        // expansion boundary each iteration), producing two identical
        // `a b c` lines either way.
        assert_eq!(text.matches("a b c\n").count(), 2);
    }

    #[test]
    fn loop_bodies_jit_compile_and_reuse_the_cached_plan() {
        // The tentpole contract: every iteration's body pipeline is
        // offered at its expansion boundary (so `$f` is already bound),
        // iteration 1 plans, iterations 2..N hit the plan cache.
        let content = "Zebra Apple Mango\n".repeat(200);
        let files = &[
            ("/d/a.txt", content.as_str()),
            ("/d/b.txt", content.as_str()),
            ("/d/c.txt", content.as_str()),
        ];
        let src = r#"
for f in /d/a.txt /d/b.txt /d/c.txt; do
    cat $f | tr A-Z a-z | sort -u
done
"#;
        let (r, shell) = run_engine(Engine::JashJit, fs_with(files), src);
        assert_eq!(r.status, 0);
        let optimized = shell.trace.iter().filter(|t| t.was_optimized()).count();
        assert_eq!(
            optimized, 3,
            "each iteration's body must be optimized: {:?}",
            shell.trace
        );
        assert_eq!(shell.plan_cache.misses, 1, "only iteration 1 plans");
        assert_eq!(shell.plan_cache.hits, 2, "iterations 2..N reuse the plan");
        let (bash, _) = run_engine(Engine::Bash, fs_with(files), src);
        assert_eq!(r.stdout, bash.stdout, "optimized loop must match bash");
    }

    #[test]
    fn input_scale_change_invalidates_the_cached_plan() {
        // Same dataflow shape, radically different input size: the log2
        // byte bucket in the cache key moves, so iteration 2 re-plans
        // instead of reusing a decision made for a different regime.
        let small = "a b\n".repeat(4);
        let large = "Zebra Apple Mango\n".repeat(4000);
        let src = r#"
for f in /small.txt /large.txt; do
    cat $f | tr A-Z a-z | sort -u
done
"#;
        let (r, shell) = run_engine(
            Engine::JashJit,
            fs_with(&[("/small.txt", &small), ("/large.txt", &large)]),
            src,
        );
        assert_eq!(r.status, 0);
        assert_eq!(shell.plan_cache.hits, 0);
        assert_eq!(shell.plan_cache.misses, 2);
        assert_eq!(
            shell.plan_cache.invalidations, 1,
            "the stale small-input entry must be dropped"
        );
    }

    #[test]
    fn cached_plan_respects_a_no_fuse_options_change() {
        // A serve host may retune the planner mid-session; a fused plan
        // cached under fusion-era options must not leak into a --no-fuse
        // configuration — the options signature forces a re-plan.
        let content = "Zebra Apple Mango\n".repeat(300);
        let files = &[
            ("/d/a.txt", content.as_str()),
            ("/d/b.txt", content.as_str()),
        ];
        let src = "for f in /d/a.txt /d/b.txt; do cat $f | tr A-Z a-z | grep -v qq | cut -c 1-20; done";
        let mut state = ShellState::new(fs_with(files));
        let mut shell = Jash::new(Engine::JashJit, machine());
        shell.planner = jash_cost::PlannerOptions {
            force_fusion: true,
            ..eager()
        };
        let r1 = shell.run_script(&mut state, src).unwrap();
        assert_eq!(r1.status, 0);
        assert!(
            shell.trace.iter().any(
                |t| matches!(t.action, Action::Optimized { fused: true, .. })
            ),
            "first pass must run fused: {:?}",
            shell.trace
        );
        assert_eq!(shell.plan_cache.hits, 1);

        // Retune: fusion off. The cached fused plan must not be reused.
        shell.planner = jash_cost::PlannerOptions {
            allow_fusion: false,
            force_fusion: false,
            ..eager()
        };
        let mark = shell.trace.len();
        let r2 = shell.run_script(&mut state, src).unwrap();
        assert_eq!(r2.status, 0);
        assert_eq!(r1.stdout, r2.stdout);
        assert!(
            shell.trace[mark..]
                .iter()
                .filter(|t| t.was_optimized())
                .all(|t| matches!(t.action, Action::Optimized { fused: false, .. })),
            "--no-fuse pass must never run a cached fused plan: {:?}",
            &shell.trace[mark..]
        );
    }

    #[test]
    fn cached_plan_respects_pressure_forced_sequential() {
        // Under full resource pressure the planner forces width 1; a
        // relaxed-era cached plan (width 4) must miss, and the pressured
        // decision (sequential → interpret) must win.
        let content = "Zebra Apple Mango\n".repeat(300);
        let files = &[
            ("/d/a.txt", content.as_str()),
            ("/d/b.txt", content.as_str()),
        ];
        let src = "for f in /d/a.txt /d/b.txt; do cat $f | tr A-Z a-z | sort -u; done";
        let mut state = ShellState::new(fs_with(files));
        let mut shell = Jash::new(Engine::JashJit, machine());
        shell.planner = eager();
        let r1 = shell.run_script(&mut state, src).unwrap();
        assert_eq!(r1.status, 0);
        assert!(shell.trace.iter().any(TraceEvent::was_optimized));

        shell.planner = shell.planner.under_pressure(1.0);
        let mark = shell.trace.len();
        let r2 = shell.run_script(&mut state, src).unwrap();
        assert_eq!(r2.status, 0);
        assert_eq!(r1.stdout, r2.stdout);
        assert!(
            !shell.trace[mark..].iter().any(TraceEvent::was_optimized),
            "pressure-forced sequential must interpret, not reuse width 4: {:?}",
            &shell.trace[mark..]
        );
    }

    #[test]
    fn disabled_plan_cache_replans_every_iteration() {
        let content = "Zebra Apple Mango\n".repeat(200);
        let files = &[
            ("/d/a.txt", content.as_str()),
            ("/d/b.txt", content.as_str()),
            ("/d/c.txt", content.as_str()),
        ];
        let src = "for f in /d/a.txt /d/b.txt /d/c.txt; do cat $f | tr A-Z a-z | sort -u; done";
        let mut state = ShellState::new(fs_with(files));
        let mut shell = Jash::new(Engine::JashJit, machine());
        shell.planner = eager();
        shell.plan_cache.set_enabled(false);
        let r = shell.run_script(&mut state, src).unwrap();
        assert_eq!(r.status, 0);
        assert_eq!(shell.plan_cache.hits, 0);
        assert_eq!(
            shell
                .trace
                .iter()
                .filter(|t| t.was_optimized())
                .count(),
            3,
            "disabling the cache changes planning cost, never behavior"
        );
    }

    #[test]
    fn while_loop_bodies_hit_the_plan_cache_too() {
        let content = "Delta Echo Foxtrot\n".repeat(200);
        let files = &[("/w.txt", content.as_str())];
        let src = r#"
i=0
while [ $i -lt 4 ]; do
    cat /w.txt | tr A-Z a-z | sort -u
    i=$((i+1))
done
echo done $i
"#;
        let (r, shell) = run_engine(Engine::JashJit, fs_with(files), src);
        assert_eq!(r.status, 0, "{:?}", shell.trace);
        assert!(String::from_utf8_lossy(&r.stdout).ends_with("done 4\n"));
        assert_eq!(
            shell
                .trace
                .iter()
                .filter(|t| t.was_optimized() && t.pipeline.contains("tr A-Z"))
                .count(),
            4,
            "every iteration's body must be optimized: {:?}",
            shell.trace
        );
        // Two planned shapes (the body chain and the trailing echo), each
        // planned once; the body's three further iterations hit.
        assert_eq!(shell.plan_cache.misses, 2);
        assert_eq!(shell.plan_cache.hits, 3);
        let (bash, _) = run_engine(Engine::Bash, fs_with(files), src);
        assert_eq!(r.stdout, bash.stdout);
    }

    #[test]
    fn loop_fault_degrades_one_iteration_and_recovers_the_next() {
        // A once-only fault inside iteration 2 of a JIT'd loop: that
        // iteration degrades through the ladder, loop state ($f, $?) stays
        // correct, and iteration 3 re-attempts the cached plan cleanly.
        let content = "Zebra Apple Mango\n".repeat(300);
        let make_fs = || {
            let fs = fs_with(&[
                ("/d/a.txt", &content),
                ("/d/b.txt", &content),
                ("/d/c.txt", &content),
            ]);
            let plan = jash_io::FaultPlan::new().rule(jash_io::fault::FaultRule {
                path: Some("/d/b.txt".into()),
                op: jash_io::fault::FaultOp::Read,
                trigger: jash_io::fault::Trigger::AtByte(128),
                kind: jash_io::fault::FaultKind::Error {
                    kind: std::io::ErrorKind::Other,
                    msg: "injected: transient controller reset".into(),
                },
                once: true,
            });
            jash_io::FaultFs::wrap(fs, plan) as FsHandle
        };
        let src = r#"
for f in /d/a.txt /d/b.txt /d/c.txt; do
    cat $f | tr A-Z a-z | sort -u
done
echo loop-done $f $?
"#;
        let (jash, shell) = run_engine(Engine::JashJit, make_fs(), src);
        // The once-fault fires inside a speculative optimized attempt,
        // whose staged effects are discarded — so the JIT's final output
        // must equal a run with no fault at all.
        let clean_fs = fs_with(&[
            ("/d/a.txt", &content),
            ("/d/b.txt", &content),
            ("/d/c.txt", &content),
        ]);
        let (bash, _) = run_engine(Engine::Bash, clean_fs, src);
        assert_eq!(jash.status, 0, "log: {}", shell.runtime.supervision.render());
        assert_eq!(jash.stdout, bash.stdout, "loop state must survive the fault");
        assert!(String::from_utf8_lossy(&jash.stdout).ends_with("loop-done /d/c.txt 0\n"));
        assert_eq!(
            shell
                .trace
                .iter()
                .filter(|t| t.was_optimized() && t.pipeline.contains("tr A-Z"))
                .count(),
            3,
            "the faulted iteration recovers optimized, the next re-attempts the cached plan: {}",
            shell.runtime.supervision.render()
        );
        assert!(shell.runtime.supervision.recoveries() >= 1);
        // The fault must not evict the cached plan: the body misses once
        // (the trailing echo is the second miss), iterations 2..3 hit.
        assert_eq!(shell.plan_cache.misses, 2);
        assert_eq!(shell.plan_cache.hits, 2);
    }

    /// Runs `src` with a journal attached under `/.jash` and returns what
    /// attach reported. The default planner declines tiny inputs, so only
    /// an `eager` run has optimized regions.
    fn run_journaled(fs: &FsHandle, src: &str, eager_plans: bool) -> RecoveryReport {
        let mut shell = Jash::new(Engine::JashJit, machine());
        if eager_plans {
            shell.planner = eager();
        }
        let report = shell.attach_journal(fs, "/.jash", false).unwrap();
        let mut state = ShellState::new(std::sync::Arc::clone(fs));
        assert_eq!(shell.run_script(&mut state, src).unwrap().status, 0);
        report
    }

    #[test]
    fn a_run_without_an_optimized_region_writes_no_journal() {
        let fs = fs_with(&[("/in", "b\na\n")]);
        for _ in 0..2 {
            let report = run_journaled(&fs, "echo hi; x=1; cat /in | sort", false);
            assert!(!report.interrupted, "a region-less run is not an interruption");
            assert!(!fs.exists("/.jash/journal"));
        }
    }

    #[test]
    fn a_region_journals_run_start_with_its_first_record_in_order() {
        use jash_io::JournalRecord as R;
        let fs = fs_with(&[("/in", &"Zebra Apple\n".repeat(400))]);
        run_journaled(&fs, "cat /in | tr A-Z a-z | sort > /out", true);
        let replay = jash_io::Journal::replay(fs.as_ref(), "/.jash/journal").unwrap();
        assert!(
            matches!(
                &replay.records[..],
                [
                    R::RunStart { epoch: 1 },
                    R::RegionStart { .. },
                    R::StageCommitted { path },
                    R::RegionDone { clean: true, status: 0, .. },
                    R::RunComplete,
                ] if path == "/out"
            ),
            "{:?}",
            replay.records
        );
    }

    #[test]
    fn attach_over_an_interrupted_journal_opens_the_new_epoch_eagerly() {
        use jash_io::JournalRecord as R;
        let fs = fs_with(&[("/in", "b\na\n")]);
        let dead = jash_io::Journal::open(std::sync::Arc::clone(&fs), "/.jash/journal", false);
        dead.append(&R::RunStart { epoch: 1 }).unwrap();
        dead.append(&R::RegionStart {
            fingerprint: 7,
            inputs: vec!["/in".into()],
        })
        .unwrap();
        // The successor journals nothing itself, yet its epoch is on
        // record from attach on, and it completes it.
        let report = run_journaled(&fs, "echo hi", false);
        assert!(report.interrupted);
        assert_eq!(report.epoch, 2);
        let replay = jash_io::Journal::replay(fs.as_ref(), "/.jash/journal").unwrap();
        assert_eq!(
            replay.records[2..],
            [R::RunStart { epoch: 2 }, R::RunComplete]
        );
        assert!(!run_journaled(&fs, "echo hi", false).interrupted);
    }
}
