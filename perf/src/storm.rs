//! `servestorm`: a real `jash serve` daemon on a scratch root, driven from
//! this process through `jash_serve::client`.
//!
//! The traffic is a seeded mix — 60 % `echo`, 30 % read-only `grep -c`
//! over a 64 KiB file, 10 % keyed writes (`tr | sort -u | head > /oN.txt`)
//! — so the ledger and commit path runs beside the read-only path and a
//! gain on one that costs the other shows. Two loops use it: a closed one
//! (callers that wait for a reply, which is what `jash submit` is) and an
//! open, paced one (independent users), each request of which is timed
//! from the moment it was *due*.

use crate::bench::{debris, remove_tree, Env, Metric, Opts, Pass, CHILD_TIMEOUT};
use crate::child::Report;
use crate::gen::{word_corpus, Rng};
use crate::proc::{self, Exit};
use crate::spans::{self, Recorder};
use crate::{reference, stats};
use jash_serve::client::{self, Request, RunReply};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const DATA_BYTES: usize = 64 * 1024;
/// A reply slower than this counts as failed, whatever it says. Replies
/// take about 10 ms; the limit is set where a growing backlog or a hung
/// worker crosses it at once but a single stalled fsync on a shared host
/// (a few hundred milliseconds, seen about once in ten runs) does not.
pub const LATENCY_LIMIT: Duration = Duration::from_secs(1);
/// Connections this process keeps open at once (the sandbox has 2 cores).
pub const CLIENTS: usize = 2;

/// One request of the mix and the answer it must get.
#[derive(Debug, Clone)]
pub struct Planned {
    pub script: String,
    pub key: String,
    pub stdout: Vec<u8>,
    /// Host path and contents of the file a keyed write must leave.
    pub file: Option<(PathBuf, Vec<u8>)>,
}

/// The 64 KiB file every `grep` and keyed write reads.
pub fn data_file(seed: u64) -> Vec<u8> {
    word_corpus(seed ^ 0x7365_7276, DATA_BYTES)
}

/// `n` requests of the mix in a seeded order. The shares are exact (of
/// every ten requests six are `echo`, three `grep`, one a keyed write), not
/// drawn: a `grep` costs 3 ms of interpreter and an `echo` next to none, so
/// a drawn mix moved a batch of 300 by 8 % on its own. `tag` keeps keys and
/// output files of different phases apart: a key is never reused, so
/// nothing replays.
pub fn plan_requests(seed: u64, tag: &str, n: usize, data: &[u8], root: &Path) -> Vec<Planned> {
    let mut rng = Rng::new(tag.bytes().fold(seed, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    }));
    // Words that certainly occur: the first word of a spread of lines.
    let lines: Vec<&[u8]> = data
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let words: Vec<(String, Vec<u8>)> = (0..24)
        .map(|i| {
            let line = lines[i * lines.len() / 24];
            let word = line
                .split(|&b| !b.is_ascii_alphabetic())
                .next()
                .unwrap_or(line);
            let word = String::from_utf8_lossy(word).into_owned();
            let count = reference::grep_count(data, word.as_bytes());
            (word, count)
        })
        .collect();
    let mut kinds: Vec<usize> = (0..n).map(|i| i % 10).collect();
    for i in (1..n).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..n)
        .map(|i| match kinds[i] {
            0..=5 => {
                let token = format!("req-{tag}-{i}-{:08x}", rng.next_u64() as u32);
                Planned {
                    script: format!("echo {token}"),
                    key: String::new(),
                    stdout: format!("{token}\n").into_bytes(),
                    file: None,
                }
            }
            6..=8 => {
                let (word, count) = rng.pick(&words);
                Planned {
                    script: format!("grep -c {word} /data.txt"),
                    key: String::new(),
                    stdout: count.clone(),
                    file: None,
                }
            }
            _ => {
                let k = rng.range(3, 10) as usize;
                let name = format!("o-{tag}-{i}.txt");
                Planned {
                    script: format!("tr A-Z a-z < /data.txt | sort -u | head -n {k} > /{name}"),
                    key: format!("key-{tag}-{i}"),
                    stdout: Vec::new(),
                    file: Some((root.join(name), reference::keyed_head(data, k))),
                }
            }
        })
        .collect()
}

/// Checks a finished request against its plan and removes the file a
/// keyed write left, so phases do not pile files up in the root.
pub fn verify(plan: &Planned, status: Option<i32>, stdout: &[u8]) -> Result<(), String> {
    let what = &plan.script;
    if status != Some(0) {
        return Err(format!("`{what}`: status {status:?}"));
    }
    if stdout != plan.stdout {
        return Err(format!("`{what}`: stdout differs from the reference"));
    }
    if let Some((path, want)) = &plan.file {
        let got = std::fs::read(path).map_err(|e| format!("`{what}`: {}: {e}", path.display()))?;
        let _ = std::fs::remove_file(path);
        if &got != want {
            return Err(format!(
                "`{what}`: {} differs from the reference",
                path.display()
            ));
        }
    }
    Ok(())
}

fn verify_reply(plan: &Planned, reply: std::io::Result<RunReply>) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("`{}`: {e}", plan.script))?;
    if let Some((code, _, _, reason)) = &reply.rejected {
        return Err(format!("`{}`: rejected ({code}): {reason}", plan.script));
    }
    verify(plan, reply.status, &reply.stdout)
}

fn request(plan: &Planned) -> Request {
    Request::new(plan.script.clone())
        .with_tenant("perf")
        .with_key(plan.key.clone())
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    pub socket: PathBuf,
    pub root: PathBuf,
}

/// How a daemon ended.
pub struct Stopped {
    pub exit: Exit,
    /// Reasons the shutdown was not the clean one a SIGTERM must give.
    pub problems: Vec<String>,
}

impl Daemon {
    /// Starts `jash serve --workers 2 --queue 16` on `root` with default
    /// durability, and returns once it accepts a connection.
    pub fn start(env: &Env, root: &Path, trace_dir: Option<&str>) -> Result<Daemon, String> {
        let socket = root.join("sock");
        let mut cmd = Command::new(&env.jash);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--root")
            .arg(root)
            .args(["--workers", "2", "--queue", "16"]);
        if let Some(dir) = trace_dir {
            cmd.args(["--trace-dir", dir]);
        }
        let start = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", env.jash.display()))?;
        let daemon = Daemon {
            child,
            socket,
            root: root.to_path_buf(),
        };
        while UnixStream::connect(&daemon.socket).is_err() {
            if start.elapsed() > CHILD_TIMEOUT {
                proc::send_signal(&daemon.child, proc::SIGKILL);
                let _ = proc::reap(&daemon.child);
                return Err("daemon did not accept a connection in time".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(daemon)
    }

    /// Runs `f`, which talks to this daemon, under a watchdog: clients block
    /// on their sockets, so a daemon that stops answering would hang the
    /// harness. Past the timeout the daemon is killed, every connection
    /// closes, and `f`'s requests fail instead of waiting.
    fn guarded<T>(&self, f: impl FnOnce() -> T) -> T {
        let (done, wait) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                if wait.recv_timeout(CHILD_TIMEOUT) == Err(mpsc::RecvTimeoutError::Timeout) {
                    proc::send_signal(&self.child, proc::SIGKILL);
                }
            });
            let out = f();
            let _ = done.send(());
            out
        })
    }

    /// SIGTERMs the daemon and holds it to a clean drain: exit 143,
    /// nothing in flight, shed or straggling, `completed` runs served, no
    /// debris, no socket file. A daemon that does not exit is killed.
    pub fn stop(self, completed: u64) -> Stopped {
        // Read while the daemon still has an address space to ask about.
        let peak_rss_mib = proc::peak_rss_mib(self.child.id()).unwrap_or(0.0);
        proc::send_signal(&self.child, proc::SIGTERM);
        let (code, stderr) = match proc::finish(self.child, Instant::now(), CHILD_TIMEOUT) {
            Ok(out) => (
                out.exit.code,
                String::from_utf8_lossy(&out.stderr).into_owned(),
            ),
            Err(e) => (-1, e.to_string()),
        };
        let exit = Exit { code, peak_rss_mib };
        let mut problems = Vec::new();
        if exit.code != 128 + proc::SIGTERM {
            problems.push(format!(
                "daemon exited {} after SIGTERM, not 143",
                exit.code
            ));
        }
        let want =
            format!("drained: 0 in flight, 0 shed, 0 straggler(s), {completed} run(s) completed");
        if !stderr.contains(&want) {
            let got = stderr
                .lines()
                .find(|l| l.contains("drained:"))
                .unwrap_or("no drain line");
            problems.push(format!("drain report `{got}`, expected `{want}`"));
        }
        if self.socket.exists() {
            problems.push(format!("socket file {} left behind", self.socket.display()));
        }
        problems.extend(
            debris(&self.root)
                .into_iter()
                .map(|d| format!("debris: {d}")),
        );
        Stopped { exit, problems }
    }
}

/// One request's timing, as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// Closed loop: send to `Done`. Paced loop: *due* time to `Done`.
    pub latency: Duration,
    /// Paced loop only: how long after its due time the request was sent.
    pub sent_late: Duration,
    pub run_id: Option<u64>,
    pub rejected: bool,
    pub result: Result<(), String>,
}

/// What a phase measured.
pub struct Phase {
    /// First send to last reply.
    pub wall: Duration,
    pub served: Vec<Served>,
}

impl Phase {
    /// Every request's verdict, a reply over the latency limit counting as
    /// a failure.
    pub fn verdicts(&self) -> impl Iterator<Item = Result<(), String>> + '_ {
        self.served.iter().map(|s| {
            s.result.clone()?;
            if s.latency > LATENCY_LIMIT {
                return Err(format!(
                    "reply took {:.1} ms",
                    s.latency.as_secs_f64() * 1e3
                ));
            }
            Ok(())
        })
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.served
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Runs `plans` from `CLIENTS` threads that share one cursor. With
/// `rate` the loop is open: request `i` is due `i / rate` seconds in and
/// is sent then, or as soon after as a sender is free. Without it the
/// loop is closed: each sender submits its next request when the previous
/// one is done.
pub fn drive(daemon: &Daemon, plans: &[Planned], rate: Option<f64>) -> Phase {
    daemon.guarded(|| drive_unguarded(&daemon.socket, plans, rate))
}

fn drive_unguarded(socket: &Path, plans: &[Planned], rate: Option<f64>) -> Phase {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let mut served: Vec<(usize, Served)> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = plans.get(i) else { break };
                        let mut origin = Instant::now();
                        let mut sent_late = Duration::ZERO;
                        if let Some(rate) = rate {
                            let due = start + Duration::from_secs_f64(i as f64 / rate);
                            if let Some(wait) = due.checked_duration_since(origin) {
                                std::thread::sleep(wait);
                            }
                            sent_late = Instant::now().saturating_duration_since(due);
                            origin = due;
                        }
                        let reply = client::submit(socket, &request(plan));
                        let latency = origin.elapsed();
                        let run_id = reply.as_ref().ok().and_then(|r| r.run_id);
                        let rejected = reply.as_ref().is_ok_and(|r| r.rejected.is_some());
                        mine.push((
                            i,
                            Served {
                                latency,
                                sent_late,
                                run_id,
                                rejected,
                                result: verify_reply(plan, reply),
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    served.sort_by_key(|(i, _)| *i);
    Phase {
        wall,
        served: served.into_iter().map(|(_, s)| s).collect(),
    }
}

/// Connect to `Accepted`, in milliseconds, for each plan; the rest of each
/// reply is then collected and checked like any other.
pub fn accepted_latencies(
    daemon: &Daemon,
    plans: &[Planned],
) -> (Vec<f64>, Vec<Result<(), String>>) {
    daemon.guarded(|| accepted_unguarded(&daemon.socket, plans))
}

fn accepted_unguarded(socket: &Path, plans: &[Planned]) -> (Vec<f64>, Vec<Result<(), String>>) {
    let mut ms = Vec::new();
    let mut verdicts = Vec::new();
    for plan in plans {
        let t0 = Instant::now();
        let verdict = match client::submit_detached(socket, &request(plan)) {
            Ok(Ok((mut conn, run_id))) => {
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let mut reply = RunReply {
                    run_id: Some(run_id),
                    ..RunReply::default()
                };
                let collected = client::collect(&mut conn, &mut reply).map(|()| reply);
                verify_reply(plan, collected)
            }
            Ok(Err(rejected)) => verify_reply(plan, Ok(rejected)),
            Err(e) => Err(format!("`{}`: {e}", plan.script)),
        };
        verdicts.push(verdict);
    }
    (ms, verdicts)
}

/// Cuts the output of a script of `plans` into one reply a plan, by the
/// length each reference has, and checks each. Output left over is the
/// last request's fault.
fn verify_script(plans: &[Planned], code: i32, stdout: &[u8]) -> Vec<Result<(), String>> {
    let mut rest = stdout;
    let mut verdicts: Vec<Result<(), String>> = plans
        .iter()
        .map(|plan| {
            let (reply, tail) = rest.split_at(plan.stdout.len().min(rest.len()));
            rest = tail;
            verify(plan, Some(code), reply)
        })
        .collect();
    if !rest.is_empty() {
        if let Some(last) = verdicts.last_mut() {
            *last = Err(format!(
                "{} bytes of output beyond the last reply",
                rest.len()
            ));
        }
    }
    verdicts
}

/// The no-daemon baseline: the plans as the lines of one script, run by one
/// `jash --engine bash -c` process. Not a process a request: a start takes
/// 1.5 ms, most of it `exec` and page faults, and a hundred of them in a row
/// measure the shared host (0.23 s to 0.40 s within one run), not `jash`;
/// what a start costs is `core.startup_ms`. Returns the wall time of the
/// process and each request's verdict.
pub fn one_script(
    env: &Env,
    root: &Path,
    plans: &[Planned],
) -> (Duration, Vec<Result<(), String>>) {
    let script: Vec<&str> = plans.iter().map(|p| p.script.as_str()).collect();
    let mut cmd = Command::new(&env.jash);
    cmd.args(["--engine", "bash", "--root"])
        .arg(root)
        .args(["-c", &script.join("\n")]);
    let all = |e: String| plans.iter().map(|_| Err(e.clone())).collect();
    let out = match proc::run(&mut cmd, CHILD_TIMEOUT) {
        Ok(out) if out.timed_out => return (out.wall, all("script timed out".into())),
        Ok(out) => out,
        Err(e) => return (Duration::ZERO, all(e.to_string())),
    };
    let verdicts = verify_script(plans, out.exit.code, &out.stdout);
    (out.wall, verdicts)
}

/// Paced requests a second: about half of what two closed-loop clients
/// reach on the 2-core sandbox in a quiet hour (190), so a queue forms now
/// and then but never grows, also when the shared host runs a third slower
/// (at 125 a busy hour left no headroom: the backlog after one stall took
/// ten seconds to drain and hundreds of replies crossed the latency limit).
pub const RATE: f64 = 100.0;
const CLOSED_REQUESTS: usize = 250;
/// Lines of one baseline script: about a third of a second of interpreter.
const SCRIPT_REQUESTS: usize = 300;
/// Enough that the 99th percentile has ten samples beyond it.
const PACED_REQUESTS: usize = 1000;

/// Smoke mode sends a fifth of the requests.
fn quick_count(opts: &Opts, full: usize) -> usize {
    if opts.quick {
        full / 5
    } else {
        full
    }
}

pub fn write_data(root: &Path, data: &[u8]) -> Result<(), String> {
    std::fs::write(root.join("data.txt"), data).map_err(|e| format!("data.txt: {e}"))
}

fn attempt_all(pass: &mut Pass, verdicts: impl Iterator<Item = Result<(), String>>) {
    for v in verdicts {
        pass.attempt(v.map_err(|e| format!("servestorm: {e}")));
    }
}

/// Set-up, timed: generate the file, write it into `root`, start the
/// daemon, wait for its first accept.
fn set_up(env: &Env, opts: &Opts, root: &Path) -> Result<(f64, Vec<u8>, Daemon), String> {
    let start = Instant::now();
    let data = data_file(opts.seed);
    write_data(root, &data)?;
    let daemon = Daemon::start(env, root, None)?;
    Ok((start.elapsed().as_secs_f64(), data, daemon))
}

/// Set-ups repeated each round, on a root of their own beside the idle
/// daemon under test. They are spread over the run because the shared host
/// changes speed by a third every ten seconds or so, and nine 3 ms set-ups
/// in a row at the start of a run all meet the same speed.
const SETUPS_A_ROUND: usize = 3;

fn set_up_aside(env: &Env, opts: &Opts, pass: &mut Pass) -> Result<f64, String> {
    let root = env.scratch("storm-setup")?;
    let (seconds, data, daemon) = set_up(env, opts, &root)?;
    // One request before the SIGTERM: a daemon signalled in the instant
    // between binding its socket and installing its handlers dies without
    // draining, which is not what this measures.
    let warm = plan_requests(opts.seed, "setup", 1, &data, &root);
    attempt_all(pass, drive(&daemon, &warm, None).verdicts());
    for p in daemon.stop(1).problems {
        pass.fail(p);
    }
    remove_tree(&root)?;
    Ok(seconds)
}

/// The untraced pass. `jit_wall_s` is the wall time of one closed-loop
/// phase of a fixed number of requests (throughput is that number over
/// it); `interp_wall_s` is the no-daemon baseline, the same mix as one
/// script under `jash --engine bash -c`; `peak_rss_mb` is the
/// daemon's. A paced phase then holds every reply to the latency limit.
pub fn end_to_end(env: &Env, opts: &Opts) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let q = |full: usize| quick_count(opts, full);

    let root = env.scratch("servestorm")?;
    let (first_set_up, data, daemon) = set_up(env, opts, &root)?;
    let mut setups = vec![first_set_up];

    // A baseline script takes a quarter of the time of a closed phase, so
    // each round runs three of them.
    const SCRIPTS_PER_ROUND: usize = 3;
    let start = Instant::now();
    let (mut closed, mut scripts) = (Vec::new(), Vec::new());
    let mut served = 0u64;
    let mut rounds = 0usize;
    loop {
        let round_start = Instant::now();
        for _ in 0..if opts.quick { 0 } else { SETUPS_A_ROUND } {
            setups.push(set_up_aside(env, opts, &mut pass)?);
        }
        for daemon_first in [rounds.is_multiple_of(2), !rounds.is_multiple_of(2)] {
            if daemon_first {
                let plans = plan_requests(
                    opts.seed,
                    &format!("closed{rounds}"),
                    q(CLOSED_REQUESTS),
                    &data,
                    &root,
                );
                let phase = drive(&daemon, &plans, None);
                served += plans.len() as u64;
                closed.push(phase.wall.as_secs_f64());
                attempt_all(&mut pass, phase.verdicts());
                continue;
            }
            for batch in 0..if opts.quick { 1 } else { SCRIPTS_PER_ROUND } {
                let tag = format!("script{rounds}-{batch}");
                let plans = plan_requests(opts.seed, &tag, q(SCRIPT_REQUESTS), &data, &root);
                let (wall, verdicts) = one_script(env, &root, &plans);
                scripts.push(wall.as_secs_f64());
                attempt_all(&mut pass, verdicts.into_iter());
            }
        }
        rounds += 1;
        if !opts.another_round(rounds, start, round_start, opts.seconds * 0.8) {
            break;
        }
    }

    let left = (opts.seconds - start.elapsed().as_secs_f64()).max(1.0);
    let paced_n = if opts.quick {
        100
    } else {
        (left * RATE) as usize
    };
    let plans = plan_requests(opts.seed, "paced", paced_n, &data, &root);
    let phase = drive(&daemon, &plans, Some(RATE));
    served += plans.len() as u64;
    attempt_all(&mut pass, phase.verdicts());

    let stopped = daemon.stop(served);
    for p in stopped.problems {
        pass.fail(p);
    }
    pass.info = vec![
        ("input_bytes", data.len() as f64),
        ("rounds", rounds as f64),
        ("closed_requests", q(CLOSED_REQUESTS) as f64),
        ("script_requests", q(SCRIPT_REQUESTS) as f64),
        ("paced_requests", paced_n as f64),
        ("paced_rate_rps", RATE),
        ("clients", CLIENTS as f64),
    ];
    pass.push(Metric::median_of("jit_wall_s", closed));
    pass.push(Metric::median_of("interp_wall_s", scripts));
    pass.push(Metric::single("peak_rss_mb", stopped.exit.peak_rss_mib));
    pass.push(Metric::median_of("setup_s", setups));
    remove_tree(&root)?;
    Ok(pass)
}

/// What the traced pass's daemon probe found.
pub struct Probe {
    pub metrics: Vec<Metric>,
    /// Every run's trace, from `--trace-dir`, concatenated.
    pub records: Vec<jash_trace::Record>,
    /// Wall time of the same closed-loop phase against an untraced and a
    /// traced daemon, seconds.
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Mean closed-loop latency against the untraced daemon, seconds.
    pub mean_latency_s: f64,
}

/// The daemon probe every traced pass runs: an untraced daemon gives
/// connect-to-`Accepted`, closed-loop throughput and paced latencies; a
/// second daemon under `--trace-dir` gives the run spans that split each
/// reply into queue wait, run, and everything else.
pub fn probe(env: &Env, opts: &Opts, rec: &mut Recorder, pass: &mut Pass) -> Result<Probe, String> {
    let q = |full: usize| quick_count(opts, full);
    let root = env.scratch("storm-probe")?;
    let data = data_file(opts.seed);
    write_data(&root, &data)?;
    let mut metrics = Vec::new();

    let daemon = Daemon::start(env, &root, None)?;
    let plans = plan_requests(opts.seed, "accept", q(100), &data, &root);
    let (accepted_ms, verdicts) = rec.span("storm.accept", |_| accepted_latencies(&daemon, &plans));
    attempt_all(pass, verdicts.into_iter());
    let mut served = plans.len() as u64;

    let plans = plan_requests(opts.seed, "probe-plain", q(CLOSED_REQUESTS), &data, &root);
    let plain = rec.span("storm.closed", |_| drive(&daemon, &plans, None));
    attempt_all(pass, plain.verdicts());
    served += plans.len() as u64;

    let plans = plan_requests(opts.seed, "probe-paced", q(PACED_REQUESTS), &data, &root);
    let paced = rec.span("storm.paced", |_| drive(&daemon, &plans, Some(RATE)));
    attempt_all(pass, paced.verdicts());
    served += plans.len() as u64;
    for p in daemon.stop(served).problems {
        pass.fail(p);
    }

    let daemon = Daemon::start(env, &root, Some("/traces"))?;
    let plans = plan_requests(opts.seed, "probe-traced", q(CLOSED_REQUESTS), &data, &root);
    let traced = rec.span("storm.closed_traced", |_| drive(&daemon, &plans, None));
    attempt_all(pass, traced.verdicts());
    for p in daemon.stop(plans.len() as u64).problems {
        pass.fail(p);
    }

    // Each run's trace: the run span carries its wall time and how long
    // the job sat queued.
    let mut records = Vec::new();
    let (mut queue_wait_ms, mut run_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    for s in &traced.served {
        let Some(id) = s.run_id else { continue };
        let path = root.join(format!("traces/run-{id}.jsonl"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = jash_trace::parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for r in &run {
            if let jash_trace::Record::Span { kind, wall_us, .. } = r {
                if kind == "run" {
                    let ms = *wall_us as f64 / 1e3;
                    run_ms.push(ms);
                    queue_wait_ms.push(r.attr_u64("queue_wait_ms").unwrap_or(0) as f64);
                    overhead_ms.push(s.latency.as_secs_f64() * 1e3 - ms);
                }
            }
        }
        records.extend(run);
    }
    if run_ms.is_empty() || accepted_ms.is_empty() {
        return Err("servestorm: the daemon probe got no replies to measure".into());
    }
    if run_ms.len() != traced.served.len() {
        pass.fail(format!(
            "servestorm: {} run spans for {} traced requests",
            run_ms.len(),
            traced.served.len()
        ));
    }

    let latency = paced.latencies_ms();
    let late: Vec<f64> = paced
        .served
        .iter()
        .map(|s| s.sent_late.as_secs_f64() * 1e3)
        .collect();
    let tail = stats::tail_percentile(latency.len());
    let rejected = [&plain, &paced, &traced]
        .iter()
        .flat_map(|p| &p.served)
        .filter(|s| s.rejected)
        .count();
    pass.info
        .push(("storm_paced_requests", latency.len() as f64));
    pass.info.push(("storm_tail_percentile", tail));
    metrics.push(Metric::single(
        "serve.throughput_rps",
        plain.served.len() as f64 / plain.wall.as_secs_f64(),
    ));
    metrics.push(Metric::single(
        "serve.latency_p50_ms",
        stats::percentile(&latency, 50.0),
    ));
    metrics.push(Metric::single(
        "serve.latency_p99_ms",
        stats::percentile(&latency, tail),
    ));
    metrics.push(Metric::single(
        "serve.accepted_ms_p50",
        stats::median(&accepted_ms),
    ));
    metrics.push(Metric::single(
        "serve.queue_wait_ms_p99",
        stats::percentile(&queue_wait_ms, stats::tail_percentile(queue_wait_ms.len())),
    ));
    metrics.push(Metric::single("serve.run_ms_p50", stats::median(&run_ms)));
    metrics.push(Metric::single(
        "serve.overhead_ms_p50",
        stats::median(&overhead_ms),
    ));
    metrics.push(Metric::single("serve.rejected", rejected as f64));
    metrics.push(Metric::single(
        "bench.pacer_late_ms_p99",
        stats::percentile(&late, tail),
    ));
    remove_tree(&root)?;
    let mean_latency_s = plain
        .served
        .iter()
        .map(|s| s.latency.as_secs_f64())
        .sum::<f64>()
        / plain.served.len() as f64;
    Ok(Probe {
        metrics,
        records,
        untraced_s: plain.wall.as_secs_f64(),
        traced_s: traced.wall.as_secs_f64(),
        mean_latency_s,
    })
}

/// The child's half of the traced pass for this workload: replays one
/// request of each kind over the `data.txt` the parent wrote under `root`
/// and checks what each printed and wrote. The report's layer seconds are
/// those of one request of the mix, weighted by the kinds' shares.
pub fn replay(opts: &Opts, root: &Path) -> Result<Report, String> {
    let data = data_file(opts.seed);
    let plans = plan_requests(opts.seed, "replay", 200, &data, root);
    let fs: jash_io::FsHandle = std::sync::Arc::new(jash_io::RealFs::new(root));
    let mut rec = Recorder::new("servestorm");
    let mut replayer = crate::replay::Replayer::new(fs);
    let (mut nodes, mut retries, mut execute_s, mut layer_seconds) = (0, 0, 0.0, 0.0);
    let mut metrics = Vec::new();
    let mut verdicts = Vec::new();
    // The keyed write comes last so its region is the one the per-call
    // timings use.
    for (prefix, share) in [("echo ", 0.6), ("grep -c ", 0.3), ("tr A-Z", 0.1)] {
        let plan = plans
            .iter()
            .find(|p| p.script.starts_with(prefix))
            .ok_or_else(|| format!("no `{prefix}` request among 200"))?;
        let first = rec.spans().len();
        let replayed = rec.span("replay", |rec| replayer.run(rec, &plan.script));
        nodes += replayed.nodes;
        retries += replayed.retries;
        execute_s += spans::self_seconds(rec.spans(), first, &["exec.execute"]);
        layer_seconds += share * spans::self_seconds(rec.spans(), first, &spans::LAYER_CALLS);
        verdicts.push(match replayed.errors.first() {
            Some(e) => Err(format!("servestorm replay: {e}")),
            None if replayed.staged_stdout != plan.stdout => Err(format!(
                "servestorm replay (stage by stage) of `{}`: output differs",
                plan.script
            )),
            None => verify(plan, Some(0), &replayed.stdout)
                .map_err(|e| format!("servestorm replay: {e}")),
        });
        metrics = crate::layers::region_timings(&replayer, &plan.script)?;
    }
    metrics.push(Metric::single("dataflow.nodes", nodes as f64));
    metrics.push(Metric::single("exec.retries", retries as f64));
    metrics.push(Metric::single("exec.execute_s", execute_s));
    Ok(Report {
        spans: rec.into_spans(),
        verdicts,
        metrics,
        layer_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_deterministic_and_has_all_three_kinds_in_proportion() {
        let data = data_file(3);
        assert!(data.len() >= DATA_BYTES);
        let root = Path::new("/r");
        let a = plan_requests(3, "closed", 1000, &data, root);
        let b = plan_requests(3, "closed", 1000, &data, root);
        assert_eq!(
            a.iter().map(|p| &p.script).collect::<Vec<_>>(),
            b.iter().map(|p| &p.script).collect::<Vec<_>>()
        );
        let other = plan_requests(3, "paced", 1000, &data, root);
        assert_ne!(a[0].script, other[0].script);
        let count = |prefix: &str| a.iter().filter(|p| p.script.starts_with(prefix)).count();
        let (echo, grep, keyed) = (count("echo "), count("grep -c "), count("tr A-Z"));
        assert_eq!(echo + grep + keyed, 1000);
        assert_eq!((echo, grep, keyed), (600, 300, 100));
        assert!(a[..100].iter().any(|p| p.script.starts_with("tr A-Z")));
        // Keys are unique, only writes carry one, and every grep matches.
        let mut keys: Vec<&str> = a
            .iter()
            .filter(|p| !p.key.is_empty())
            .map(|p| p.key.as_str())
            .collect();
        assert_eq!(keys.len(), keyed);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), keyed);
        assert!(a
            .iter()
            .filter(|p| p.script.starts_with("grep"))
            .all(|p| p.stdout != b"0\n"));
    }

    #[test]
    fn a_scripts_output_is_cut_into_one_reply_a_request() {
        let plan = |out: &str| Planned {
            script: format!("echo {out}"),
            key: String::new(),
            stdout: out.as_bytes().to_vec(),
            file: None,
        };
        let plans = [plan("a\n"), plan(""), plan("bcd\n")];
        let ok = |v: &[Result<(), String>]| v.iter().map(Result::is_ok).collect::<Vec<_>>();
        assert_eq!(
            ok(&verify_script(&plans, 0, b"a\nbcd\n")),
            [true, true, true]
        );
        assert_eq!(
            ok(&verify_script(&plans, 0, b"a\nbcX\n")),
            [true, true, false]
        );
        assert_eq!(ok(&verify_script(&plans, 0, b"a\n")), [true, true, false]);
        assert_eq!(
            ok(&verify_script(&plans, 0, b"a\nbcd\nmore")),
            [true, true, false]
        );
        assert_eq!(
            ok(&verify_script(&plans, 1, b"a\nbcd\n")),
            [false, false, false]
        );
    }

    #[test]
    fn verify_catches_status_output_and_file_mismatches() {
        let dir = std::env::temp_dir().join(format!("jash-perf-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("o.txt");
        let plan = Planned {
            script: "w".into(),
            key: "k".into(),
            stdout: b"ok\n".to_vec(),
            file: Some((path.clone(), b"want\n".to_vec())),
        };
        std::fs::write(&path, b"want\n").unwrap();
        assert!(verify(&plan, Some(0), b"ok\n").is_ok());
        assert!(!path.exists(), "a verified file is removed");
        assert!(verify(&plan, Some(0), b"ok\n")
            .unwrap_err()
            .contains("o.txt"));
        std::fs::write(&path, b"other\n").unwrap();
        assert!(verify(&plan, Some(0), b"ok\n")
            .unwrap_err()
            .contains("differs"));
        assert!(verify(&plan, Some(1), b"ok\n")
            .unwrap_err()
            .contains("status"));
        assert!(verify(&plan, None, b"ok\n").unwrap_err().contains("status"));
        assert!(verify(&plan, Some(0), b"no\n")
            .unwrap_err()
            .contains("stdout"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
