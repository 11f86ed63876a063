//! The four workloads that run the `jash` binary as a user would:
//! `jash --root R -c SCRIPT`, default flags (journal on, durable on),
//! against generated files in a scratch root.
//!
//! Inputs are sized so that one run of `--seconds 15` fits at least five
//! repetitions of both engines; when a workload's `jit_wall_s` falls under
//! half a second, a later *benchmark* change enlarges its input (README,
//! "regrow rule").

use crate::bench::{debris, remove_tree, Env, Metric, Opts, Pass, CHILD_TIMEOUT};
use crate::child::Report;
use crate::proc::{self, RunOutput};
use crate::replay::Replayer;
use crate::spans::{self, Recorder};
use crate::{gen, reference};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Files as the script names them (`/in.txt`) and their contents.
pub type Files = Vec<(String, Vec<u8>)>;

/// What a correct run prints and leaves.
#[derive(Default)]
pub struct Expected {
    pub stdout: Vec<u8>,
    pub files: Files,
}

pub struct Cli {
    pub name: &'static str,
    pub script: &'static str,
    /// The inputs for a seed, at full or quick size.
    generate: fn(&Opts) -> Files,
    /// The reference answer for those inputs, computed natively.
    expected: fn(&Files) -> Expected,
}

impl Cli {
    pub fn generate(&self, opts: &Opts) -> Files {
        (self.generate)(opts)
    }

    pub fn expected(&self, inputs: &Files) -> Expected {
        (self.expected)(inputs)
    }
}

const WORDSORT_BYTES: usize = 1 << 20;
const FUSEDCHAIN_BYTES: usize = 24 << 20;
const TEMPERATURE_LINES: usize = 160_000;
const LOOPSMALL_FILES: usize = 192;
const LOOPSMALL_FILE_BYTES: usize = 4096;

/// A script that reads one file and writes `/out.txt`.
fn one_output(inputs: &Files, reference: fn(&[u8]) -> Vec<u8>) -> Expected {
    Expected {
        stdout: Vec::new(),
        files: vec![("/out.txt".into(), reference(&inputs[0].1))],
    }
}

pub const WORDSORT: Cli = Cli {
    name: "wordsort",
    script: "cat /in.txt | tr -cs A-Za-z '\\n' | sort > /out.txt",
    generate: |o| {
        vec![(
            "/in.txt".into(),
            gen::word_corpus(o.seed, o.scaled(WORDSORT_BYTES)),
        )]
    },
    expected: |inputs| one_output(inputs, reference::wordsort),
};
pub const FUSEDCHAIN: Cli = Cli {
    name: "fusedchain",
    script: "cat /in.txt | tr A-Z a-z | grep -v the | cut -c 1-20 > /out.txt",
    generate: |o| {
        vec![(
            "/in.txt".into(),
            gen::word_corpus(o.seed, o.scaled(FUSEDCHAIN_BYTES)),
        )]
    },
    expected: |inputs| one_output(inputs, reference::fusedchain),
};
pub const TEMPERATURE: Cli = Cli {
    name: "temperature",
    script: "cut -c 89-92 < /noaa.txt | grep -v 999 | sort -rn | head -n1",
    generate: |o| {
        vec![(
            "/noaa.txt".into(),
            gen::noaa_records(o.seed, o.scaled(TEMPERATURE_LINES)),
        )]
    },
    expected: |inputs| Expected {
        stdout: reference::temperature(&inputs[0].1),
        files: Vec::new(),
    },
};
pub const LOOPSMALL: Cli = Cli {
    name: "loopsmall",
    script: "for f in /logs/*.log; do grep -v ' 200$' \"$f\" | cut -d ' ' -f 1,4 | tr a-z A-Z > \"$f.out\"; done; cat /logs/*.out | wc -l",
    generate: |o| {
        (0..o.scaled(LOOPSMALL_FILES))
            .map(|i| {
                (
                    format!("/logs/{}", gen::log_name(i)),
                    gen::access_log(o.seed, i, LOOPSMALL_FILE_BYTES),
                )
            })
            .collect()
    },
    expected: |inputs| {
        let outs: Vec<Vec<u8>> = inputs
            .iter()
            .map(|(_, d)| reference::loopsmall_file(d))
            .collect();
        Expected {
            stdout: reference::loopsmall_stdout(&outs),
            files: inputs
                .iter()
                .zip(outs)
                .map(|((path, _), out)| (format!("{path}.out"), out))
                .collect(),
        }
    },
};

fn host(root: &Path, virtual_path: &str) -> PathBuf {
    root.join(virtual_path.trim_start_matches('/'))
}

pub fn write_files(root: &Path, files: &Files) -> Result<(), String> {
    for (path, data) in files {
        let at = host(root, path);
        if let Some(dir) = at.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        write_in_place(&at, data).map_err(|e| format!("{}: {e}", at.display()))?;
    }
    Ok(())
}

/// Writes `data` to `path` without truncating first: over an existing file
/// of the same length this touches no filesystem metadata but the times.
fn write_in_place(path: &Path, data: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.write_all(data)?;
    if file.metadata()?.len() != data.len() as u64 {
        file.set_len(data.len() as u64)?;
    }
    Ok(())
}

/// A workload ready to run: its inputs on disk and the answer in memory.
pub struct SetUp {
    pub root: PathBuf,
    pub expected: Expected,
    pub input_bytes: usize,
    /// How long each repetition of the set-up took.
    pub seconds: Vec<f64>,
}

/// Everything that must happen before a first run can be measured and
/// checked — generate the inputs, write them into a fresh scratch root,
/// compute the reference answer — timed: set-up is measured like anything
/// else. (The reference is most of it; without it wordsort's set-up is 3 ms
/// and two processes disagree by 40 %.)
pub fn set_up(env: &Env, opts: &Opts, w: &Cli) -> Result<SetUp, String> {
    let mut set_up = SetUp {
        root: env.scratch(w.name)?,
        expected: Expected::default(),
        input_bytes: 0,
        seconds: Vec::new(),
    };
    set_up.again(opts, w)?;
    Ok(set_up)
}

impl SetUp {
    /// The same set-up over the same root, timed again. Only the first time
    /// creates the files; the rest write over them in place. Creating,
    /// truncating or unlinking hundreds of files a second measures the
    /// filesystem's journal and its `discard` queue (8 ms or 55 ms for
    /// loopsmall's 192 logs, by the minute), not the harness.
    pub fn again(&mut self, opts: &Opts, w: &Cli) -> Result<(), String> {
        let start = Instant::now();
        let inputs = w.generate(opts);
        write_files(&self.root, &inputs)?;
        self.expected = w.expected(&inputs);
        self.seconds.push(start.elapsed().as_secs_f64());
        self.input_bytes = inputs.iter().map(|(_, d)| d.len()).sum();
        Ok(())
    }

    /// A round's share of set-ups: up to `SETUPS_A_ROUND`, fewer when one
    /// takes long. They are spread over the run, not done in a row at its
    /// start, because the shared host changes speed by a third every ten
    /// seconds or so: nine set-ups within the first tenth of a second gave
    /// medians that two runs a minute apart disagreed on by 20 % to 40 %.
    pub fn again_for_a_round(&mut self, opts: &Opts, w: &Cli) -> Result<(), String> {
        let start = Instant::now();
        for _ in 0..SETUPS_A_ROUND {
            self.again(opts, w)?;
            if start.elapsed() > SETUP_SLICE {
                break;
            }
        }
        Ok(())
    }
}

const SETUPS_A_ROUND: usize = 5;
const SETUP_SLICE: Duration = Duration::from_millis(80);

/// Removes what a run leaves — the journal and every output — so each
/// repetition starts from the inputs alone.
pub fn clean(root: &Path, expected: &Expected) -> Result<(), String> {
    remove_tree(&root.join(".jash"))?;
    for (path, _) in &expected.files {
        match std::fs::remove_file(host(root, path)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{path}: {e}"));
            }
            _ => {}
        }
    }
    // Flush the deletions now. Left pending, they ride along with the next
    // run's first fsync (one journal commit carries everything before it),
    // and the run would be charged for the harness's own clean-up.
    sync_dir(root)
}

fn sync_dir(dir: &Path) -> Result<(), String> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("{}: {e}", dir.display()))
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// The default: the JIT, journaled and durable.
    Jit,
    /// `--engine bash`: the interpreter alone.
    Interp,
}

pub fn run_binary(
    env: &Env,
    root: &Path,
    w: &Cli,
    engine: Engine,
    trace: Option<&Path>,
) -> Result<RunOutput, String> {
    let mut cmd = Command::new(&env.jash);
    if engine == Engine::Interp {
        cmd.args(["--engine", "bash"]);
    }
    cmd.arg("--root").arg(root);
    if let Some(file) = trace {
        cmd.arg("--trace").arg(file);
    }
    cmd.args(["-c", w.script]);
    proc::run(&mut cmd, CHILD_TIMEOUT).map_err(|e| format!("{}: {e}", env.jash.display()))
}

/// Holds a finished run to the reference: status, stdout, every output
/// file, and nothing left behind that should not be.
pub fn check(root: &Path, expected: &Expected, out: &RunOutput) -> Result<(), String> {
    if out.timed_out {
        return Err("timed out".into());
    }
    if out.exit.code != 0 {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("exit {}: {}", out.exit.code, stderr.trim()));
    }
    check_outputs(root, expected, &out.stdout)
}

pub fn check_outputs(root: &Path, expected: &Expected, stdout: &[u8]) -> Result<(), String> {
    if stdout != expected.stdout {
        return Err("stdout differs from the reference".into());
    }
    for (path, want) in &expected.files {
        let got = std::fs::read(host(root, path)).map_err(|e| format!("{path}: {e}"))?;
        if &got != want {
            return Err(format!("{path} differs from the reference"));
        }
    }
    match debris(root).as_slice() {
        [] => Ok(()),
        left => Err(format!("debris: {}", left.join(", "))),
    }
}

/// The untraced pass: both engines, alternated, until the time is used.
pub fn end_to_end(env: &Env, opts: &Opts, w: &Cli) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut set_up = set_up(env, opts, w)?;
    let root = set_up.root.clone();

    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rss = Vec::new();
    // The interpreter can be far quicker than the JIT (wordsort); it then
    // runs several times a round, within half the JIT's time, so its median
    // rests on more than a handful of very short runs.
    let mut interp_per_round = 1usize;
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        let round_start = Instant::now();
        if !opts.quick {
            set_up.again_for_a_round(opts, w)?;
        }
        let expected = &set_up.expected;
        let order = if rounds.is_multiple_of(2) {
            [Engine::Jit, Engine::Interp]
        } else {
            [Engine::Interp, Engine::Jit]
        };
        for engine in order {
            let times = if engine == Engine::Interp {
                interp_per_round
            } else {
                1
            };
            for _ in 0..times {
                clean(&root, expected)?;
                let out = run_binary(env, &root, w, engine, None)?;
                walls[engine as usize].push(out.wall.as_secs_f64());
                if engine == Engine::Jit {
                    rss.push(out.exit.peak_rss_mib);
                }
                pass.attempt(
                    check(&root, expected, &out)
                        .map_err(|e| format!("{} ({engine:?}): {e}", w.name)),
                );
            }
        }
        rounds += 1;
        if rounds == 1 {
            let ratio = walls[Engine::Jit as usize][0] / walls[Engine::Interp as usize][0];
            interp_per_round = ((ratio / 2.0) as usize).clamp(1, 8);
        }
        if !opts.another_round(rounds, start, round_start, opts.seconds) {
            break;
        }
    }
    let [jit, interp] = walls;
    pass.info = vec![
        ("input_bytes", set_up.input_bytes as f64),
        ("rounds", rounds as f64),
        ("setups", set_up.seconds.len() as f64),
        ("jit_runs", jit.len() as f64),
        ("interp_runs", interp.len() as f64),
    ];
    pass.push(Metric::median_of("jit_wall_s", jit));
    pass.push(Metric::median_of("interp_wall_s", interp));
    pass.push(Metric::median_of("peak_rss_mb", rss));
    pass.push(Metric::median_of("setup_s", set_up.seconds));
    remove_tree(&root)?;
    Ok(pass)
}

/// The child's half of the traced pass: replays the script over the inputs
/// the parent wrote under `root` — first, while the heap is fresh — then
/// regenerates those inputs from the seed and holds both replay passes to
/// the reference.
pub fn replay(opts: &Opts, w: &Cli, root: &Path) -> Result<Report, String> {
    let fs: jash_io::FsHandle = std::sync::Arc::new(jash_io::RealFs::new(root));
    let mut rec = Recorder::new(w.name);
    let mut replayer = Replayer::new(fs);
    let replayed = rec.span("replay", |rec| replayer.run(rec, w.script));

    let expected = w.expected(&w.generate(opts));
    let executed = match replayed.errors.first() {
        Some(e) => Err(format!("{} replay: {e}", w.name)),
        None => check_outputs(root, &expected, &replayed.stdout)
            .map_err(|e| format!("{} replay (execute): {e}", w.name)),
    };
    let mut staged = replayed.staged_files;
    staged.sort();
    let mut want = expected.files;
    want.sort();
    let stage_by_stage = if staged == want && replayed.staged_stdout == expected.stdout {
        Ok(())
    } else {
        Err(format!(
            "{} replay (stage by stage): output differs from the reference",
            w.name
        ))
    };

    let mut metrics = crate::layers::region_timings(&replayer, w.script)?;
    let spans = rec.into_spans();
    metrics.push(Metric::single("dataflow.nodes", replayed.nodes as f64));
    metrics.push(Metric::single("exec.retries", replayed.retries as f64));
    metrics.push(Metric::single(
        "exec.execute_s",
        spans::self_seconds(&spans, 0, &["exec.execute"]),
    ));
    Ok(Report {
        layer_seconds: spans::self_seconds(&spans, 0, &spans::LAYER_CALLS),
        spans,
        verdicts: vec![executed, stage_by_stage],
        metrics,
    })
}

/// What the traced pass learns from one CLI workload: the replay through
/// the layers, and the binary run with and without `--trace`.
pub struct Traced {
    pub replay: Report,
    /// Median untraced and traced wall of the JIT engine, seconds.
    pub untraced_s: f64,
    pub traced_s: f64,
    /// The binary's own trace, parsed.
    pub records: Vec<jash_trace::Record>,
}

pub fn traced(env: &Env, opts: &Opts, w: &Cli, pass: &mut Pass) -> Result<Traced, String> {
    let SetUp {
        root,
        expected,
        input_bytes,
        ..
    } = set_up(env, opts, w)?;
    pass.info.push(("input_bytes", input_bytes as f64));

    let replay = crate::child::replay(opts, w.name, &root)?;
    for verdict in &replay.verdicts {
        pass.attempt(verdict.clone());
    }

    // The binary, with and without its own tracing, alternated.
    let trace_file = root.join("trace.jsonl");
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    let mut records = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    loop {
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for tracing in order {
            clean(&root, &expected)?;
            let trace = tracing.then_some(trace_file.as_path());
            let out = run_binary(env, &root, w, Engine::Jit, trace)?;
            pass.attempt(
                check(&root, &expected, &out)
                    .map_err(|e| format!("{} (trace={tracing}): {e}", w.name)),
            );
            if tracing {
                with_trace.push(out.wall.as_secs_f64());
                let text =
                    std::fs::read_to_string(&trace_file).map_err(|e| format!("trace file: {e}"))?;
                records = jash_trace::parse_jsonl(&text).map_err(|e| format!("trace file: {e}"))?;
            } else {
                plain.push(out.wall.as_secs_f64());
            }
        }
        round += 1;
        if opts.quick || (round >= 2 && start.elapsed().as_secs_f64() >= opts.seconds * 0.4) {
            break;
        }
    }
    remove_tree(&root)?;
    Ok(Traced {
        replay,
        untraced_s: crate::stats::median(&plain),
        traced_s: crate::stats::median(&with_trace),
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> Opts {
        Opts {
            seed,
            seconds: 1.0,
            quick: true,
        }
    }

    #[test]
    fn inputs_are_deterministic_and_expectations_have_the_scripts_shape() {
        for w in [&WORDSORT, &FUSEDCHAIN, &TEMPERATURE, &LOOPSMALL] {
            let a = w.generate(&opts(5));
            assert_eq!(a, w.generate(&opts(5)), "{}", w.name);
            assert_ne!(a, w.generate(&opts(6)), "{}", w.name);
            let e = w.expected(&a);
            assert!(!e.stdout.is_empty() || !e.files.is_empty());
            assert!(e.files.iter().all(|(_, d)| !d.is_empty()), "{}", w.name);
        }
        let logs = LOOPSMALL.generate(&opts(5));
        assert_eq!(logs.len(), LOOPSMALL_FILES / 8);
        let e = LOOPSMALL.expected(&logs);
        assert_eq!(e.files[0].0, "/logs/a0000.log.out");
        let lines: usize = e.files.iter().map(|(_, d)| reference::count_lines(d)).sum();
        assert_eq!(e.stdout, format!("{lines}\n").into_bytes());
        assert_eq!(
            TEMPERATURE
                .expected(&TEMPERATURE.generate(&opts(5)))
                .stdout
                .len(),
            5
        );
    }

    #[test]
    fn check_outputs_reports_the_first_difference() {
        let root = std::env::temp_dir().join(format!("jash-perf-cli-{}", std::process::id()));
        remove_tree(&root).unwrap();
        let expected = Expected {
            stdout: b"3\n".to_vec(),
            files: vec![("/d/out.txt".into(), b"abc\n".to_vec())],
        };
        write_files(&root, &expected.files).unwrap();
        assert!(check_outputs(&root, &expected, b"3\n").is_ok());
        assert!(check_outputs(&root, &expected, b"4\n")
            .unwrap_err()
            .contains("stdout"));
        std::fs::write(root.join("d/out.txt.jash-stage-2"), b"x").unwrap();
        assert!(check_outputs(&root, &expected, b"3\n")
            .unwrap_err()
            .contains("debris"));
        clean(&root, &expected).unwrap();
        assert!(check_outputs(&root, &expected, b"3\n")
            .unwrap_err()
            .contains("/d/out.txt"));
        remove_tree(&root).unwrap();
    }
}
