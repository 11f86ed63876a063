//! Layer probes: each times calls into one layer's public functions, from
//! outside, over the same seeded data on every workload. They are the
//! "work done, time busy" numbers a change to one layer should move first;
//! the workload replay (`replay.rs`) shows what the layer then saves a
//! whole run.
//!
//! Rates are MB/s (10^6 bytes) over the probe's own input, medians of at
//! least three runs; per-call times are medians of at least 200 calls.
//! Data reaches line-oriented code in `jash_io::DEFAULT_CHUNK` pieces, as
//! files and pipes deliver it, except where a probe says otherwise.

use crate::bench::{Env, Metric, Opts};
use crate::cli::{FUSEDCHAIN, LOOPSMALL, WORDSORT};
use crate::replay::{chunked, extract_region, rewrite, run_stage, Replayer};
use crate::spans::Recorder;
use crate::{gen, reference, stats};
use jash_cost::{choose_plan_with, InputInfo, MachineProfile, PlannerOptions};
use jash_dataflow::{compile, ExpandedCommand, Region};
use jash_expand::{expand_word_fields, NoSubst, ShellState};
use jash_io::{ByteStream, FsHandle, Sink};
use jash_serve::proto::{read_frame, write_frame, Frame};
use jash_spec::{Aggregator, Registry, SortKeySpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median microseconds per call of `f`, over `calls` calls.
pub fn per_call_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// Median nanoseconds per call of `f`, for calls too short to time one at
/// a time: 200 batches of 64 calls each.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    const BATCH: usize = 64;
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / BATCH as f64
        })
        .collect();
    stats::median(&samples)
}

/// Median MB/s of `f` moving `bytes` bytes, over `runs` runs.
fn mb_per_s(bytes: usize, runs: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            bytes as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// A sink that counts and discards.
#[derive(Default)]
struct NullSink {
    bytes: u64,
}

impl Sink for NullSink {
    fn write_chunk(&mut self, chunk: bytes::Bytes) -> std::io::Result<()> {
        self.bytes += chunk.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The per-call timings of one expanded region: what `jash-core` pays at
/// every expansion boundary, taken here around the same public calls.
pub fn region_timings(replayer: &Replayer, script: &str) -> Result<Vec<Metric>, String> {
    let sample = replayer
        .sample
        .as_ref()
        .ok_or("replay produced no region to time")?;
    let mut state = sample.state.clone();
    let compiled = compile(&sample.region, &replayer.registry).map_err(|e| e.to_string())?;
    let input = InputInfo {
        total_bytes: sample.input_bytes,
    };
    Ok(vec![
        Metric::single(
            "parser.parse_us",
            per_call_us(200, || {
                black_box(jash_parser::parse(black_box(script)).is_ok());
            }),
        ),
        Metric::single(
            "expand.words_us",
            per_call_us(200, || {
                black_box(extract_region(&mut state, &sample.pipeline).is_ok());
            }),
        ),
        Metric::single(
            "dataflow.compile_us",
            per_call_us(200, || {
                black_box(compile(&sample.region, &replayer.registry).is_ok());
            }),
        ),
        Metric::single(
            "dataflow.rewrite_us",
            per_call_us(200, || {
                black_box(rewrite(&compiled.dfg, sample.shape));
            }),
        ),
        Metric::single(
            "cost.choose_plan_us",
            per_call_us(200, || {
                black_box(choose_plan_with(
                    &compiled.dfg,
                    &replayer.machine,
                    input,
                    &replayer.planner,
                    None,
                ));
            }),
        ),
    ])
}

/// Every workload-independent probe. `rec` gets one span per layer so the
/// written trace shows where the probe pass itself spent its time.
pub fn probe(env: &Env, opts: &Opts, rec: &mut Recorder) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let corpus = gen::word_corpus(opts.seed, opts.scaled(2 << 20));
    let words = reference::squeeze_words(&corpus);
    let root = env.scratch("layers")?;
    let real: FsHandle = Arc::new(jash_io::RealFs::new(&root));

    rec.span("probe.parser", |_| parser(&mut out));
    rec.span("probe.expand", |_| expand(&real, &mut out))?;
    rec.span("probe.cost", |_| cost(&mut out))?;
    rec.span("probe.exec", |_| exec(&corpus, &words, opts, &mut out))?;
    rec.span("probe.io", |_| io(&real, &corpus, &mut out))?;
    rec.span("probe.coreutils", |_| {
        coreutils(&corpus, &words, opts, &mut out)
    })?;
    rec.span("probe.interp", |_| interp(&corpus, &mut out))?;
    rec.span("probe.serve", |_| serve_codec(&mut out))?;
    rec.span("probe.trace", |_| trace(&mut out))?;
    rec.span("probe.core", |_| startup(env, &root, &mut out))?;
    crate::bench::remove_tree(&root)?;
    Ok(out)
}

fn parser(out: &mut Vec<Metric>) {
    // A long script of loop bodies: tokens and nodes per second.
    let mut script = String::new();
    while script.len() < 256 * 1024 {
        script.push_str(LOOPSMALL.script);
        script.push('\n');
    }
    out.push(Metric::single(
        "parser.parse_mb_per_s",
        mb_per_s(script.len(), 5, || {
            black_box(jash_parser::parse(&script).is_ok());
        }),
    ));
}

fn expand(real: &FsHandle, out: &mut Vec<Metric>) -> Result<(), String> {
    for i in 0..512 {
        jash_io::fs::write_file(
            real.as_ref(),
            &format!("/globdir/{}", gen::log_name(i)),
            b"",
        )
        .map_err(|e| e.to_string())?;
    }
    let prog = jash_parser::parse("echo /globdir/*.log").map_err(|e| e.to_string())?;
    let jash_ast::CommandKind::Simple(cmd) = &prog.items[0].and_or.first.commands[0].kind else {
        return Err("glob probe: not a simple command".into());
    };
    let word = &cmd.words[1];
    let mut state = ShellState::new(real.clone());
    let matched = expand_word_fields(&mut state, &mut NoSubst, word).map_err(|e| e.to_string())?;
    if matched.len() != 512 {
        return Err(format!(
            "glob probe matched {} of 512 entries",
            matched.len()
        ));
    }
    out.push(Metric::single(
        "expand.glob_us",
        per_call_us(200, || {
            black_box(expand_word_fields(&mut state, &mut NoSubst, word).is_ok());
        }),
    ));
    Ok(())
}

/// The Figure 1 decision without sleeping: the width the planner picks
/// for the wordsort pipeline over the paper's 3 GB on each disk profile.
fn cost(out: &mut Vec<Metric>) -> Result<(), String> {
    let prog = jash_parser::parse(WORDSORT.script).map_err(|e| e.to_string())?;
    let mut state = ShellState::new(jash_io::mem_fs());
    let region = extract_region(&mut state, &prog.items[0].and_or.first)?;
    let dfg = compile(&region, &Registry::builtin())
        .map_err(|e| e.to_string())?
        .dfg;
    // The paper's 8-core instance, with only the disk varied.
    let ramdisk = MachineProfile {
        disk: jash_io::DiskProfile::ramdisk(),
        ..MachineProfile::standard_ec2()
    };
    for (name, machine) in [
        ("cost.width_ramdisk", ramdisk),
        ("cost.width_gp2", MachineProfile::standard_ec2()),
        ("cost.width_gp3", MachineProfile::io_opt_ec2()),
    ] {
        let input = InputInfo {
            total_bytes: 3_000_000_000,
        };
        let d = choose_plan_with(&dfg, &machine, input, &PlannerOptions::default(), None);
        out.push(Metric::single(name, d.shape.width as f64));
    }
    Ok(())
}

fn null_sinks(n: usize) -> Vec<Box<dyn Sink>> {
    (0..n)
        .map(|_| Box::new(NullSink::default()) as Box<dyn Sink>)
        .collect()
}

fn exec(corpus: &[u8], words: &[u8], opts: &Opts, out: &mut Vec<Metric>) -> Result<(), String> {
    // One word a line, as `tr` hands them to wordsort's second split.
    let lines = &words[..line_boundary(words, opts.scaled(128 * 1024))];
    let mut failed = None;
    out.push(Metric::single(
        "exec.split_mb_per_s",
        mb_per_s(lines.len(), 3, || {
            let mut sinks = null_sinks(2);
            let targets = jash_exec::balanced_targets(lines.len() as u64, 2);
            if let Err(e) = jash_exec::split_contiguous(&mut chunked(lines), &mut sinks, &targets) {
                failed = Some(e.to_string());
            }
        }),
    ));

    // Wordsort's merge: two sorted halves into one.
    let (a, b) = lines.split_at(line_boundary(lines, lines.len() / 2));
    let halves = [sorted_lines(a), sorted_lines(b)];
    let merged_len = lines.len();
    let agg = Aggregator::MergeSort {
        key: SortKeySpec::default(),
    };
    out.push(Metric::single(
        "exec.merge_sort_mb_per_s",
        mb_per_s(merged_len, 3, || {
            let inputs: Vec<Box<dyn ByteStream>> = halves
                .iter()
                .map(|h| Box::new(chunked(h)) as Box<dyn ByteStream>)
                .collect();
            let mut sink = NullSink::default();
            match jash_exec::run_merge(&agg, inputs, &mut sink) {
                Ok(()) if sink.bytes == merged_len as u64 => {}
                Ok(()) => {
                    failed = Some(format!("merge wrote {} of {merged_len} bytes", sink.bytes))
                }
                Err(e) => failed = Some(e.to_string()),
            }
        }),
    ));

    let (a, b) = corpus.split_at(corpus.len() / 2);
    out.push(Metric::single(
        "exec.merge_concat_mb_per_s",
        mb_per_s(corpus.len(), 5, || {
            let inputs: Vec<Box<dyn ByteStream>> = vec![Box::new(chunked(a)), Box::new(chunked(b))];
            let mut sink = NullSink::default();
            if let Err(e) = jash_exec::run_merge(&Aggregator::Concat, inputs, &mut sink) {
                failed = Some(e.to_string());
            }
        }),
    ));

    // Four unfused stages that do nothing: what a pipe hop costs.
    const HOPS: usize = 4;
    let fs = jash_io::mem_fs();
    jash_io::fs::write_file(fs.as_ref(), "/hop.txt", corpus).map_err(|e| e.to_string())?;
    let mut commands = vec![ExpandedCommand::new("cat", &["/hop.txt"])];
    commands.extend((1..HOPS).map(|_| ExpandedCommand::new("cat", &[])));
    let dfg = compile(&Region { commands }, &Registry::builtin())
        .map_err(|e| e.to_string())?
        .dfg;
    let cfg = jash_exec::ExecConfig::new(fs);
    out.push(Metric::single(
        "exec.hop_mb_per_s",
        mb_per_s(corpus.len() * HOPS, 3, || {
            match jash_exec::execute(&dfg, &cfg) {
                Ok(o) if o.is_clean() && o.stdout.len() == corpus.len() => {}
                Ok(o) => {
                    failed = Some(format!(
                        "hop probe: {} bytes out, {:?}",
                        o.stdout.len(),
                        o.failures
                    ))
                }
                Err(e) => failed = Some(e.to_string()),
            }
        }),
    ));
    failed.map_or(Ok(()), Err)
}

/// The largest prefix of `data` no longer than `limit` that ends on a
/// line boundary.
fn line_boundary(data: &[u8], limit: usize) -> usize {
    let limit = limit.min(data.len());
    data[..limit]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(limit, |i| i + 1)
}

fn sorted_lines(data: &[u8]) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = data.split_inclusive(|&b| b == b'\n').collect();
    lines.sort_unstable();
    lines.concat()
}

fn io(real: &FsHandle, corpus: &[u8], out: &mut Vec<Metric>) -> Result<(), String> {
    let text = &corpus[..line_boundary(corpus, 512 * 1024)];
    let drain = |lb: &mut jash_io::LineBuffer| {
        let mut n = 0usize;
        while let Some(line) = lb.next_line() {
            n += line.len();
        }
        lb.mark_scanned();
        n
    };
    out.push(Metric::single(
        "io.lines_mb_per_s",
        mb_per_s(text.len(), 3, || {
            let mut lb = jash_io::LineBuffer::new();
            let mut n = 0;
            for chunk in text.chunks(jash_io::DEFAULT_CHUNK) {
                lb.push(chunk);
                n += drain(&mut lb);
            }
            assert_eq!(n, text.len());
        }),
    ));
    // The same layer used differently: the same bytes arriving as one
    // chunk, as an in-memory capture or a large pipe write delivers them.
    out.push(Metric::single(
        "io.lines_bigchunk_mb_per_s",
        mb_per_s(text.len(), 3, || {
            let mut lb = jash_io::LineBuffer::new();
            lb.push(text);
            assert_eq!(drain(&mut lb), text.len());
        }),
    ));

    const PIPE_BYTES: usize = 64 << 20;
    let chunk = bytes::Bytes::copy_from_slice(&corpus[..jash_io::DEFAULT_CHUNK.min(corpus.len())]);
    let mut failed = None;
    out.push(Metric::single(
        "io.pipe_mb_per_s",
        mb_per_s(PIPE_BYTES, 3, || {
            let (mut tx, mut rx) = jash_io::pipe(jash_io::DEFAULT_PIPE_DEPTH);
            let moved = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    for _ in 0..PIPE_BYTES / chunk.len() {
                        tx.write_chunk(chunk.clone())?;
                    }
                    tx.finish()
                });
                let mut moved = 0usize;
                while let Ok(Some(c)) = rx.next_chunk() {
                    moved += c.len();
                }
                writer.join().expect("pipe writer panicked").map(|()| moved)
            });
            match moved {
                Ok(n) if n == PIPE_BYTES / chunk.len() * chunk.len() => {}
                Ok(n) => failed = Some(format!("pipe moved {n} bytes")),
                Err(e) => failed = Some(e.to_string()),
            }
        }),
    ));

    // A durable commit as the executor does it: stage, sync, rename, sync
    // the directory.
    let block = &corpus[..4096];
    let mut step = |what: &str, r: std::io::Result<()>| {
        if let Err(e) = r {
            failed = Some(format!("{what}: {e}"));
        }
    };
    out.push(Metric::single(
        "io.commit_us",
        per_call_us(200, || {
            step(
                "write",
                jash_io::fs::write_file(real.as_ref(), "/commit/out.stage", block),
            );
            step("sync", real.sync("/commit/out.stage"));
            step("rename", real.rename("/commit/out.stage", "/commit/out"));
            step("sync_dir", real.sync_dir("/commit"));
        }),
    ));

    let record = jash_io::JournalRecord::RegionStart {
        fingerprint: 0x7eeb_3cab_0a2c_ea26,
        inputs: vec!["/in.txt".into()],
    };
    for (name, durable) in [
        ("io.journal_append_us", true),
        ("io.journal_append_nodurable_us", false),
    ] {
        let journal =
            jash_io::Journal::open(real.clone(), format!("/journal-{durable}/journal"), durable);
        out.push(Metric::single(
            name,
            per_call_us(200, || step("journal", journal.append(&record))),
        ));
    }
    let ledger = jash_io::Ledger::open(real.clone(), "/ledger/ledger", true);
    let mut run_id = 0;
    out.push(Metric::single(
        "io.ledger_append_us",
        per_call_us(200, || {
            run_id += 1;
            let record = jash_io::LedgerRecord::Accepted {
                run_id,
                key: format!("key-{run_id}"),
                tenant: "perf".into(),
                timeout_ms: 0,
                script_hash: 0x1234_5678,
                script: "tr A-Z a-z < /data.txt | sort -u | head -n 5 > /o.txt".into(),
            };
            step("ledger", ledger.append(&record));
        }),
    ));

    let memo = jash_io::Memo::new(real.clone(), "/memo");
    let entry = jash_io::memo::Entry {
        input_len: block.len() as u64,
        input_hash: jash_io::fnv1a(block),
        output: block.to_vec(),
    };
    let mut key = 0u64;
    out.push(Metric::single(
        "io.memo_put_us",
        per_call_us(200, || {
            key += 1;
            step("memo put", memo.put(key, &entry));
        }),
    ));
    let mut key = 0u64;
    out.push(Metric::single(
        "io.memo_get_us",
        per_call_us(200, || {
            key += 1;
            match memo.get(key) {
                Ok(Some(e)) if e == entry => {}
                Ok(_) => step(
                    "memo get",
                    Err(std::io::Error::other("entry missing or changed")),
                ),
                Err(e) => step("memo get", Err(e)),
            }
        }),
    ));
    failed.map_or(Ok(()), Err)
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn coreutils(
    corpus: &[u8],
    words: &[u8],
    opts: &Opts,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let ctx = jash_coreutils::UtilCtx::new(jash_io::mem_fs());
    let text = &corpus[..line_boundary(corpus, 1 << 20)];
    let lower = text.to_ascii_lowercase();
    let temps: Vec<u8> = gen::noaa_records(opts.seed, opts.scaled(100_000))
        .chunks(100)
        .flat_map(|line| [&line[88..92], b"\n"].concat())
        .collect();
    let mut failed = None;
    let mut stage = |name: &'static str, cmd: &str, args: &[&str], input: &[u8], want: &[u8]| {
        let args = strings(args);
        let rate = mb_per_s(input.len(), 3, || {
            match run_stage(&ctx, cmd, &args, input) {
                Ok((_, got)) if got == want => {}
                Ok(_) => failed = Some(format!("{name}: output differs from the reference")),
                Err(e) => failed = Some(format!("{name}: {e}")),
            }
        });
        out.push(Metric::single(name, rate));
    };
    stage(
        "coreutils.tr_mb_per_s",
        "tr",
        &["-cs", "A-Za-z", "\\n"],
        corpus,
        words,
    );
    let wordlist = &words[..line_boundary(words, 1 << 20)];
    stage(
        "coreutils.sort_mb_per_s",
        "sort",
        &[],
        wordlist,
        &sorted_lines(wordlist),
    );
    let mut by_value: Vec<&[u8]> = temps.split_inclusive(|&b| b == b'\n').collect();
    by_value.sort_unstable_by(|a, b| b.cmp(a));
    stage(
        "coreutils.sort_rn_mb_per_s",
        "sort",
        &["-rn"],
        &temps,
        &by_value.concat(),
    );
    let kept: Vec<u8> = lower
        .split_inclusive(|&b| b == b'\n')
        .filter(|l| !l.windows(3).any(|w| w == b"the"))
        .flatten()
        .copied()
        .collect();
    stage(
        "coreutils.grep_mb_per_s",
        "grep",
        &["-v", "the"],
        &lower,
        &kept,
    );
    let cut: Vec<u8> = text
        .split_inclusive(|&b| b == b'\n')
        .flat_map(|l| [&l[..(l.len() - 1).min(20)], b"\n"].concat())
        .collect();
    stage("coreutils.cut_mb_per_s", "cut", &["-c", "1-20"], text, &cut);

    // Fusedchain's three stages as one kernel, fed chunk by chunk.
    let stages: Vec<(&str, Vec<String>)> = vec![
        ("tr", strings(&["A-Z", "a-z"])),
        ("grep", strings(&["-v", "the"])),
        ("cut", strings(&["-c", "1-20"])),
    ];
    let want = reference::fusedchain(corpus);
    let mut lines = 0;
    let rate = mb_per_s(
        corpus.len(),
        3,
        || match jash_coreutils::kernel::Kernel::build(&stages) {
            Ok(mut kernel) => {
                let mut got = Vec::with_capacity(want.len());
                for chunk in corpus.chunks(jash_io::DEFAULT_CHUNK) {
                    if !kernel.feed(chunk, &mut got) {
                        break;
                    }
                }
                kernel.finish(&mut got);
                lines = kernel.lines();
                if got != want {
                    failed = Some("kernel: output differs from the reference".into());
                }
            }
            Err(e) => failed = Some(e),
        },
    );
    out.push(Metric::single("coreutils.kernel_mb_per_s", rate));
    out.push(Metric::single("coreutils.kernel_lines", lines as f64));
    failed.map_or(Ok(()), Err)
}

fn interp(corpus: &[u8], out: &mut Vec<Metric>) -> Result<(), String> {
    let text = &corpus[..line_boundary(corpus, 1 << 20)];
    let want = reference::fusedchain(text);
    let mut failed = None;
    let rate = mb_per_s(text.len(), 3, || {
        let fs = jash_io::mem_fs();
        let ran = jash_io::fs::write_file(fs.as_ref(), "/in.txt", text)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                jash_interp::run(fs.clone(), FUSEDCHAIN.script).map_err(|e| e.to_string())
            })
            .and_then(|r| {
                let got =
                    jash_io::fs::read_to_vec(fs.as_ref(), "/out.txt").map_err(|e| e.to_string())?;
                if r.status == 0 && got == want {
                    Ok(())
                } else {
                    Err(format!("interp probe: status {}, output differs", r.status))
                }
            });
        if let Err(e) = ran {
            failed = Some(e);
        }
    });
    out.push(Metric::single("interp.run_mb_per_s", rate));

    // Control flow with builtins only: the interpreter's own speed.
    const ITERS: usize = 20_000;
    let script = format!(
        "i=0; n=0; while [ $i -lt {ITERS} ]; do i=$((i+1)); case $i in *7) n=$((n+1));; esac; done; echo $n"
    );
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            match jash_interp::run(jash_io::mem_fs(), &script) {
                Ok(r) if r.stdout == format!("{}\n", ITERS / 10).into_bytes() => {}
                Ok(r) => {
                    failed = Some(format!(
                        "loop probe printed {:?}",
                        String::from_utf8_lossy(&r.stdout)
                    ))
                }
                Err(e) => failed = Some(e.to_string()),
            }
            ITERS as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    out.push(Metric::single(
        "interp.loop_iters_per_s",
        stats::median(&samples),
    ));
    failed.map_or(Ok(()), Err)
}

fn serve_codec(out: &mut Vec<Metric>) -> Result<(), String> {
    let submit = Frame::Submit {
        script: "grep -c word /data.txt # ".to_string() + &"x".repeat(1000),
        timeout_ms: 0,
        tenant: "perf".into(),
        key: "key-1".into(),
        fault: None,
    };
    let stdout = Frame::Stdout(vec![b'x'; 64 * 1024]);
    let mut wire = Vec::new();
    for f in [&submit, &stdout] {
        write_frame(&mut wire, f).map_err(|e| e.to_string())?;
    }
    let mut buf = Vec::with_capacity(wire.len());
    out.push(Metric::single(
        "serve.frame_encode_ns",
        per_call_ns(|| {
            buf.clear();
            let _ = write_frame(&mut buf, &submit);
            let _ = write_frame(&mut buf, &stdout);
            black_box(&buf);
        }),
    ));
    let mut decoded = true;
    out.push(Metric::single(
        "serve.frame_decode_ns",
        per_call_ns(|| {
            let mut r = wire.as_slice();
            let a = read_frame(&mut r);
            let b = read_frame(&mut r);
            decoded &= matches!(
                (a, b),
                (Ok(Some(Frame::Submit { .. })), Ok(Some(Frame::Stdout(_))))
            );
        }),
    ));
    if !decoded {
        return Err("frame probe: frames did not decode to what was encoded".into());
    }

    let mut sched: jash_serve::Scheduler<u64> =
        jash_serve::Scheduler::new(jash_serve::TenantPolicy::default());
    let tenants = ["a", "b", "c", "d"];
    let mut job = 0u64;
    let mut popped = 0u64;
    out.push(Metric::single(
        "serve.sched_push_pop_ns",
        per_call_ns(|| {
            let now = Instant::now();
            let tenant = tenants[(job % 4) as usize];
            sched.push(tenant, job, now);
            job += 1;
            if let Some(p) = sched.pop(now) {
                sched.complete(&p.tenant);
                popped += 1;
            }
        }),
    ));
    if popped != job {
        return Err(format!("scheduler probe popped {popped} of {job} jobs"));
    }
    Ok(())
}

fn trace(out: &mut Vec<Metric>) -> Result<(), String> {
    let tracer = jash_trace::Tracer::new();
    out.push(Metric::single(
        "trace.span_ns",
        per_call_ns(|| {
            let id = tracer.start("node", "sort -rn", None);
            tracer.set_attr(id, "bytes_in", 4096u64);
            tracer.end(id);
        }),
    ));
    // Serializing drains the tracer, so each sample refills it first.
    let mut text = String::new();
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            tracer.drain();
            for i in 0..1000u64 {
                let id = tracer.start("node", "tr -cs A-Za-z \\n", None);
                tracer.set_attr(id, "bytes_in", i * 4096);
                tracer.set_attr(id, "cmd", "tr");
                tracer.end(id);
            }
            let t = Instant::now();
            text = tracer.to_jsonl();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(Metric::single(
        "trace.to_jsonl_us_per_kspan",
        stats::median(&samples),
    ));
    let mut parsed = 0;
    out.push(Metric::single(
        "trace.parse_mb_per_s",
        mb_per_s(text.len(), 5, || {
            parsed = jash_trace::parse_jsonl(&text).map_or(0, |r| r.len());
        }),
    ));
    if parsed < 1000 {
        return Err(format!("trace probe parsed {parsed} of 1000 spans back"));
    }
    Ok(())
}

/// `jash -c :` from spawn to exit — journal attach included — which every
/// CLI run pays before its first region.
fn startup(env: &Env, root: &std::path::Path, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut failed = None;
    let ms = per_call_us(50, || {
        let mut cmd = std::process::Command::new(&env.jash);
        cmd.arg("--root").arg(root).args(["-c", ":"]);
        match crate::proc::run(&mut cmd, crate::bench::CHILD_TIMEOUT) {
            Ok(o) if o.exit.code == 0 => {}
            Ok(o) => failed = Some(format!("`jash -c :` exited {}", o.exit.code)),
            Err(e) => failed = Some(e.to_string()),
        }
    }) / 1e3;
    out.push(Metric::single("core.startup_ms", ms));
    failed.map_or(Ok(()), Err)
}
