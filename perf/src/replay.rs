//! The traced pass's replay: a workload's script driven stage by stage
//! through the public calls of each layer — parse, expand, compile, plan,
//! rewrite, execute (or interpret, where the planner declines) — with a
//! span around every call, and then once more
//! command by command through `coreutils`, each stage's output feeding the
//! next. `jash-core` is not in the loop: this is what the layers cost when
//! called directly, to set beside what the binary costs end to end.

use crate::spans::Recorder;
use jash_ast::{AndOrList, Command, CommandKind, ListItem, Pipeline, Program, RedirectOp};
use jash_cost::{choose_plan_with, InputInfo, MachineProfile, PlanShape, PlannerOptions};
use jash_dataflow::{
    compile, fuse_kernels, parallelize_all, Dfg, ExpandedCommand, NodeKind, Region,
};
use jash_exec::{balanced_targets, execute_with_retry, ExecConfig, RetryPolicy, SupervisionLog};
use jash_expand::{expand_word_fields, expand_words, NoSubst, ShellState};
use jash_io::FsHandle;
use jash_spec::Registry;

/// What a replay of one script produced and counted.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Everything the script's unredirected pipelines printed, in order,
    /// from the `execute` pass.
    pub stdout: Vec<u8>,
    /// The same from the command-by-command pass.
    pub staged_stdout: Vec<u8>,
    /// Files the command-by-command pass would have written (the `execute`
    /// pass writes the real ones).
    pub staged_files: Vec<(String, Vec<u8>)>,
    pub regions: u64,
    /// Regions the planner left sequential and unfused; like the binary,
    /// the replay runs those under the interpreter.
    pub declined: u64,
    /// Live dataflow nodes after the rewrite, summed over executed regions.
    pub nodes: u64,
    /// Attempts beyond the first that `execute_with_retry` needed.
    pub retries: u64,
    pub errors: Vec<String>,
}

/// One expanded pipeline, ready for the layer probes to time again.
pub struct RegionSample {
    /// Shell state as the pipeline met it (a loop variable already bound).
    pub state: ShellState,
    pub pipeline: Pipeline,
    pub region: Region,
    pub input_bytes: u64,
    pub shape: PlanShape,
}

pub struct Replayer {
    pub fs: FsHandle,
    pub registry: Registry,
    pub machine: MachineProfile,
    pub planner: PlannerOptions,
    /// The first region of the most recent script (for a loop, its body's
    /// first iteration): the sample the per-call timings reuse.
    pub sample: Option<RegionSample>,
}

impl Replayer {
    /// Plans the way the binary does by default: the laptop profile and
    /// default planner options.
    pub fn new(fs: FsHandle) -> Replayer {
        Replayer {
            fs,
            registry: Registry::builtin(),
            machine: MachineProfile::laptop(),
            planner: PlannerOptions::default(),
            sample: None,
        }
    }

    pub fn run(&mut self, rec: &mut Recorder, script: &str) -> Replayed {
        let mut out = Replayed::default();
        self.sample = None;
        let prog = match rec.span("parser.parse", |_| jash_parser::parse(script)) {
            Ok(p) => p,
            Err(e) => {
                out.errors.push(format!("parse: {e}"));
                return out;
            }
        };
        let mut state = ShellState::new(self.fs.clone());
        self.program(rec, &mut state, &prog, &mut out);
        out
    }

    /// Walks the forms the workload scripts use: plain pipelines and
    /// `for` loops over them. Anything else is reported, not guessed at.
    fn program(
        &mut self,
        rec: &mut Recorder,
        state: &mut ShellState,
        prog: &Program,
        out: &mut Replayed,
    ) {
        for item in &prog.items {
            let pl = &item.and_or.first;
            if !item.and_or.rest.is_empty() || item.background || pl.negated {
                out.errors
                    .push("replay: only plain pipelines and for loops".into());
                continue;
            }
            match pl.commands.as_slice() {
                [Command {
                    kind: CommandKind::For(clause),
                    redirects,
                    ..
                }] if redirects.is_empty() => {
                    let words = clause.words.clone().unwrap_or_default();
                    let values =
                        rec.span("expand.glob", |_| expand_words(state, &mut NoSubst, &words));
                    match values {
                        Ok(values) => {
                            for v in values {
                                state.set_var(&clause.var, v);
                                self.program(rec, state, &clause.body, out);
                            }
                        }
                        Err(e) => out.errors.push(format!("expand: {e}")),
                    }
                }
                _ => self.pipeline(rec, state, pl, out),
            }
        }
    }

    fn pipeline(
        &mut self,
        rec: &mut Recorder,
        state: &mut ShellState,
        pl: &Pipeline,
        out: &mut Replayed,
    ) {
        let before = self.sample.is_none().then(|| state.clone());
        let region = match rec.span("expand.words", |_| extract_region(state, pl)) {
            Ok(r) => r,
            Err(e) => {
                out.errors.push(e);
                return;
            }
        };
        out.regions += 1;
        let compiled = match rec.span("dataflow.compile", |_| compile(&region, &self.registry)) {
            Ok(c) => c,
            Err(e) => {
                out.errors.push(format!("compile: {e}"));
                return;
            }
        };
        let input_bytes = region_input_bytes(state, &region);
        let decision = rec.span("cost.choose_plan", |_| {
            choose_plan_with(
                &compiled.dfg,
                &self.machine,
                InputInfo {
                    total_bytes: input_bytes,
                },
                &self.planner,
                None,
            )
        });
        let shape = decision.shape;
        if shape.width <= 1 && !shape.fused {
            // Declined: the binary hands the pipeline to the interpreter,
            // so the replay does too.
            out.declined += 1;
            let prog = Program {
                items: vec![ListItem {
                    and_or: AndOrList::single(pl.clone()),
                    background: false,
                }],
            };
            let ran = rec.span("interp.run", |_| {
                jash_interp::Interpreter::new().run_program_captured(state, &prog)
            });
            match ran {
                Ok(r) => out.stdout.extend_from_slice(&r.stdout),
                Err(e) => out.errors.push(format!("interpret: {e}")),
            }
        } else {
            let dfg = rec.span("dataflow.rewrite", |_| rewrite(&compiled.dfg, shape));
            out.nodes += live_nodes(&dfg);
            let mut cfg = ExecConfig::new(self.fs.clone());
            cfg.split_targets = dfg
                .node_ids()
                .filter_map(|n| match dfg.node(n).kind {
                    NodeKind::Split { width } => {
                        Some((n, balanced_targets(input_bytes.max(1), width)))
                    }
                    _ => None,
                })
                .collect();
            let mut log = SupervisionLog::default();
            let policy = RetryPolicy::default();
            let ran = rec.span("exec.execute", |_| {
                execute_with_retry(&dfg, &cfg, &policy, out.regions, shape.width, &mut log)
            });
            match ran {
                Ok(r) => {
                    out.retries += u64::from(r.attempts.saturating_sub(1));
                    if !r.outcome.is_clean() {
                        out.errors
                            .push(format!("execute: {}", r.outcome.failures.join("; ")));
                    }
                    out.stdout.extend_from_slice(&r.outcome.stdout);
                }
                Err(e) => out.errors.push(format!("execute refused: {e}")),
            }
        }

        rec.span("stages", |rec| self.stages(rec, &region, out));

        if let Some(state) = before {
            self.sample = Some(RegionSample {
                state,
                pipeline: pl.clone(),
                region,
                input_bytes,
                shape,
            });
        }
    }

    /// The same region one command at a time, in memory.
    fn stages(&self, rec: &mut Recorder, region: &Region, out: &mut Replayed) {
        let ctx = jash_coreutils::UtilCtx::new(self.fs.clone());
        let mut data = Vec::new();
        for (i, c) in region.commands.iter().enumerate() {
            if let Some(path) = &c.stdin_redirect {
                match rec.span("io.read", |_| {
                    jash_io::fs::read_to_vec(self.fs.as_ref(), path)
                }) {
                    Ok(d) => data = d,
                    Err(e) => out.errors.push(format!("{path}: {e}")),
                }
            }
            let ran = rec.span(&format!("coreutils.{}", c.name), |_| {
                run_stage(&ctx, &c.name, &c.args, &data)
            });
            match ran {
                Ok((_status, stdout)) => data = stdout,
                Err(e) => {
                    out.errors.push(format!("stage {i} ({}): {e}", c.name));
                    data = Vec::new();
                }
            }
            if let Some((path, _append)) = &c.stdout_redirect {
                out.staged_files
                    .push((path.clone(), std::mem::take(&mut data)));
            }
        }
        out.staged_stdout.extend_from_slice(&data);
    }
}

/// `data` as a stream of the chunks a file or pipe would deliver. One
/// whole-input chunk would not do: line framing costs grow with the
/// chunk, so a stage must be fed the sizes it meets in a real run.
pub fn chunked(data: &[u8]) -> jash_io::MemStream {
    jash_io::MemStream::from_chunks(
        data.chunks(jash_io::DEFAULT_CHUNK)
            .map(bytes::Bytes::copy_from_slice)
            .collect(),
    )
}

/// Runs one utility over in-memory input, returning its status and stdout.
pub fn run_stage(
    ctx: &jash_coreutils::UtilCtx,
    name: &str,
    args: &[String],
    input: &[u8],
) -> std::io::Result<(i32, Vec<u8>)> {
    let mut stdin = chunked(input);
    let mut stdout = jash_io::VecSink::new();
    let mut stderr = jash_io::VecSink::new();
    let mut io = jash_coreutils::UtilIo {
        stdin: &mut stdin,
        stdout: &mut stdout,
        stderr: &mut stderr,
    };
    let status = jash_coreutils::run_utility(name, args, &mut io, ctx)?;
    Ok((status, stdout.data))
}

/// The graph the executor runs for `shape`: widened, then fused.
pub fn rewrite(base: &Dfg, shape: PlanShape) -> Dfg {
    let mut dfg = base.clone();
    if shape.width > 1 {
        parallelize_all(&mut dfg, shape.width);
    }
    if shape.fused {
        fuse_kernels(&mut dfg);
    }
    dfg
}

/// Nodes a rewrite left connected (fusion tombstones the interiors it
/// absorbs by detaching them).
pub fn live_nodes(dfg: &Dfg) -> u64 {
    dfg.node_ids()
        .filter(|&n| jash_dataflow::is_live(dfg, n))
        .count() as u64
}

/// Expands a pipeline of simple commands into a region against live
/// state: words to argv, `<` and `>`/`>>` to the stage's redirects.
pub fn extract_region(state: &mut ShellState, pl: &Pipeline) -> Result<Region, String> {
    let mut commands = Vec::new();
    for cmd in &pl.commands {
        let CommandKind::Simple(sc) = &cmd.kind else {
            return Err("replay: stage is not a simple command".into());
        };
        if !sc.assignments.is_empty() {
            return Err("replay: stage has assignments".into());
        }
        let mut argv = expand_words(state, &mut NoSubst, &sc.words).map_err(|e| e.to_string())?;
        if argv.is_empty() {
            return Err("replay: empty command".into());
        }
        let mut stage = ExpandedCommand {
            name: argv.remove(0),
            args: argv,
            stdin_redirect: None,
            stdout_redirect: None,
        };
        for r in &cmd.redirects {
            let fields =
                expand_word_fields(state, &mut NoSubst, &r.target).map_err(|e| e.to_string())?;
            let [target] = fields.as_slice() else {
                return Err("replay: redirect target is not one word".into());
            };
            let target = state.resolve_path(target);
            match (r.effective_fd(), r.op) {
                (0, RedirectOp::Read) => stage.stdin_redirect = Some(target),
                (1, RedirectOp::Write | RedirectOp::Clobber) => {
                    stage.stdout_redirect = Some((target, false));
                }
                (1, RedirectOp::Append) => stage.stdout_redirect = Some((target, true)),
                _ => return Err("replay: unsupported redirect".into()),
            }
        }
        commands.push(stage);
    }
    Ok(Region { commands })
}

/// Bytes the region reads: its `<` files and every operand that names a
/// file (the runtime information the planner is given).
pub fn region_input_bytes(state: &ShellState, region: &Region) -> u64 {
    let size = |p: &str| match state.fs.metadata(p) {
        Ok(m) if !m.is_dir => m.size,
        _ => 0,
    };
    region
        .commands
        .iter()
        .map(|c| {
            c.stdin_redirect.as_deref().map_or(0, size)
                + c.args
                    .iter()
                    .filter(|a| !a.starts_with('-'))
                    .map(|a| size(&state.resolve_path(a)))
                    .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(files: &[(&str, &[u8])]) -> FsHandle {
        let fs = jash_io::mem_fs();
        for (path, data) in files {
            jash_io::fs::write_file(fs.as_ref(), path, data).unwrap();
        }
        fs
    }

    #[test]
    fn replays_a_pipeline_through_every_layer_and_both_passes_agree() {
        let script = "cat /in.txt | tr A-Z a-z | sort > /out.txt";
        // Once with the planner forced to widen, so `execute` runs; once as
        // planned for six bytes, which the planner declines.
        for (force, data_plane) in [(Some(2), "exec.execute"), (None, "interp.run")] {
            let fs = mem(&[("/in.txt", b"b\nA\nc\n")]);
            let mut rec = Recorder::new("t");
            let mut r = Replayer::new(fs.clone());
            if force.is_some() {
                r.planner.force_width = force;
                r.planner.min_speedup = 0.0;
            }
            let got = r.run(&mut rec, script);
            assert!(got.errors.is_empty(), "{:?}", got.errors);
            assert_eq!((got.regions, got.declined), (1, u64::from(force.is_none())));
            assert_eq!(
                jash_io::fs::read_to_vec(fs.as_ref(), "/out.txt").unwrap(),
                b"a\nb\nc\n"
            );
            assert_eq!(
                got.staged_files,
                vec![("/out.txt".to_string(), b"a\nb\nc\n".to_vec())]
            );
            let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
            for want in [
                "parser.parse",
                "expand.words",
                "dataflow.compile",
                "cost.choose_plan",
                data_plane,
                "coreutils.cat",
                "coreutils.tr",
                "coreutils.sort",
            ] {
                assert!(names.contains(&want), "{want} missing from {names:?}");
            }
            assert_eq!(names.contains(&"dataflow.rewrite"), force.is_some());
            assert_eq!(got.nodes > 0, force.is_some());
            assert_eq!(r.sample.as_ref().unwrap().input_bytes, 6);
        }
    }

    #[test]
    fn replays_a_loop_with_the_variable_bound_per_iteration() {
        let fs = mem(&[("/d/a.log", b"x 1\ny 2\n"), ("/d/b.log", b"z 3\n")]);
        let mut rec = Recorder::new("t");
        let mut r = Replayer::new(fs.clone());
        let got = r.run(
            &mut rec,
            "for f in /d/*.log; do grep -v q \"$f\" | cut -d ' ' -f 1 | tr a-z A-Z > \"$f.out\"; done; cat /d/*.out | wc -l",
        );
        assert!(got.errors.is_empty(), "{:?}", got.errors);
        assert_eq!(got.regions, 3);
        assert_eq!(
            jash_io::fs::read_to_vec(fs.as_ref(), "/d/a.log.out").unwrap(),
            b"X\nY\n"
        );
        assert_eq!(
            jash_io::fs::read_to_vec(fs.as_ref(), "/d/b.log.out").unwrap(),
            b"Z\n"
        );
        assert_eq!(String::from_utf8_lossy(&got.stdout).trim(), "3");
        assert_eq!(String::from_utf8_lossy(&got.staged_stdout).trim(), "3");
    }

    #[test]
    fn unsupported_forms_are_reported_not_guessed() {
        let mut rec = Recorder::new("t");
        let mut r = Replayer::new(mem(&[]));
        assert!(!r.run(&mut rec, "true && false").errors.is_empty());
        assert!(!r
            .run(&mut rec, "if true; then echo; fi | cat")
            .errors
            .is_empty());
        assert!(!r.run(&mut rec, "echo 'open").errors.is_empty());
    }
}
