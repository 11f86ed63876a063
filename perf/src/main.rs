//! `jash-perf`: a host-time benchmark of the real `jash` binary and
//! `jash serve` daemon. No machine model is in the loop; every output is
//! checked against a reference this harness computes itself.
//!
//! ```text
//! jash-perf --workload NAME --seed N --seconds S --trace 0|1   one pass, one JSON line
//! jash-perf run [--seed N] [--seconds S] [--out DIR] [--quick] every workload, both passes
//! jash-perf compare A/results.json B/results.json              regressions between two runs
//! ```
//!
//! See README.md for the workloads, the metrics and how they interact.

mod bench;
mod child;
mod cli;
mod gen;
mod json;
mod layers;
mod proc;
mod reference;
mod replay;
mod report;
mod spans;
mod stats;
mod storm;

use bench::{Env, Metric, Opts, Pass, PER_LAYER};
use json::Value;
use spans::Recorder;
use std::path::{Path, PathBuf};

/// The workloads, in `BENCHMARK.json`'s order.
pub const WORKLOADS: [&str; 5] = [
    "wordsort",
    "fusedchain",
    "temperature",
    "loopsmall",
    "servestorm",
];

fn cli_workload(name: &str) -> Option<&'static cli::Cli> {
    [
        &cli::WORDSORT,
        &cli::FUSEDCHAIN,
        &cli::TEMPERATURE,
        &cli::LOOPSMALL,
    ]
    .into_iter()
    .find(|w| w.name == name)
}

/// The untraced pass: end-to-end metrics only.
fn end_to_end(env: &Env, opts: &Opts, workload: &str) -> Result<Pass, String> {
    match cli_workload(workload) {
        Some(w) => cli::end_to_end(env, opts, w),
        None => storm::end_to_end(env, opts),
    }
}

/// Counts from the binary's own `--trace` / `--trace-dir` records: what
/// the JIT decided, region by region.
fn core_metrics(records: &[jash_trace::Record]) -> Vec<Metric> {
    use jash_trace::Record;
    let regions: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r, Record::Span { kind, .. } if kind == "region"))
        .collect();
    let with_action = |a: &str| {
        regions
            .iter()
            .filter(|r| r.attr_str("action") == Some(a))
            .count() as f64
    };
    let counter = |name: &str| -> f64 {
        records
            .iter()
            .map(|r| match r {
                Record::Counter { name: n, value } if n == name => *value as f64,
                Record::Gauge { name: n, value } if n == name => *value as f64,
                _ => 0.0,
            })
            .sum()
    };
    let n = regions.len() as f64;
    let optimized = with_action("optimized");
    vec![
        Metric::single("core.regions", n),
        Metric::single("core.regions_optimized", optimized),
        Metric::single("core.regions_failed_over", with_action("failed_over")),
        Metric::single(
            "core.optimized_share",
            if n > 0.0 { optimized / n } else { 0.0 },
        ),
        Metric::single("core.plan_cache_hits", counter("jit.plan_cache.hits")),
        Metric::single(
            "core.fsyncs_per_region",
            if n > 0.0 {
                counter("journal.fsyncs") / n
            } else {
                0.0
            },
        ),
    ]
}

/// The traced pass: this workload's replay through the layers (in a child
/// process), the binary under its own tracing, the layer probes and the
/// daemon probe.
fn per_layer(env: &Env, opts: &Opts, workload: &str) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut rec = Recorder::new(workload);
    let (replay, binary) = match cli_workload(workload) {
        Some(w) => {
            let t = cli::traced(env, opts, w, &mut pass)?;
            (t.replay, Some((t.records, t.untraced_s, t.traced_s)))
        }
        None => {
            let root = env.scratch("storm-replay")?;
            storm::write_data(&root, &storm::data_file(opts.seed))?;
            let replay = child::replay(opts, workload, &root)?;
            for verdict in &replay.verdicts {
                pass.attempt(verdict.clone());
            }
            bench::remove_tree(&root)?;
            (replay, None)
        }
    };
    rec.adopt(replay.spans);
    let mut metrics = replay.metrics;
    metrics.extend(layers::probe(env, opts, &mut rec)?);
    let probe = storm::probe(env, opts, &mut rec, &mut pass)?;
    metrics.extend(probe.metrics);

    // What the replay is set beside: a CLI run of the binary, or one
    // request of the mix at the daemon's mean closed-loop latency.
    let (records, untraced_s, traced_s, whole_s) = match binary {
        Some((records, untraced_s, traced_s)) => (records, untraced_s, traced_s, untraced_s),
        None => (
            probe.records,
            probe.untraced_s,
            probe.traced_s,
            probe.mean_latency_s,
        ),
    };
    metrics.extend(core_metrics(&records));
    metrics.push(Metric::single(
        "trace.overhead_share",
        traced_s / untraced_s - 1.0,
    ));
    metrics.push(Metric::single(
        "bench.unattributed_share",
        1.0 - replay.layer_seconds / whole_s,
    ));

    // Report in the table's order, and exactly the table's names.
    for &(name, _, _) in PER_LAYER {
        let at = metrics
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("per-layer metric `{name}` was not measured"))?;
        pass.push(metrics.swap_remove(at));
    }
    if let Some(extra) = metrics.first() {
        return Err(format!(
            "metric `{}` is not in the per-layer table",
            extra.name
        ));
    }
    pass.spans = rec.into_spans();
    Ok(pass)
}

fn print_pass(workload: &str, title: &str, pass: &Pass) {
    println!(
        "{workload}: {title} — {} attempted, {} failed",
        pass.attempted, pass.failed
    );
    for m in &pass.metrics {
        let unit = bench::unit_of(m.name);
        if m.samples.is_empty() {
            println!("  {:<34} {:>14.4} {unit}", m.name, m.value);
        } else {
            let s = stats::summarize(&m.samples);
            println!(
                "  {:<34} {:>14.4} {unit}  [q1 {:.4}, q3 {:.4}, n {}]",
                m.name, m.value, s.q1, s.q3, s.n
            );
        }
    }
    for f in &pass.failures {
        println!("  FAILED: {f}");
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, both passes; prints every metric, writes
/// `results.json` and `trace.jsonl`. Returns whether every check passed.
fn run_all(env: &Env, opts: &Opts, out_dir: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut workloads = Vec::new();
    let mut spans = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let untraced = end_to_end(env, opts, name)?;
        print_pass(name, "end to end (tracing off)", &untraced);
        let mut traced = per_layer(env, opts, name)?;
        print_pass(name, "per layer (traced pass)", &traced);
        all_correct &= untraced.failed == 0 && traced.failed == 0;
        // One file holds every workload's spans; parents stay indices into
        // it.
        let offset = spans.len();
        spans.extend(std::mem::take(&mut traced.spans).into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        workloads.push((
            name.to_string(),
            Value::obj(vec![
                ("end_to_end", report::pass_value(&untraced)),
                ("per_layer", report::pass_value(&traced)),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Value::obj(vec![
        ("schema", Value::Num(1.0)),
        (
            "host",
            Value::obj(vec![
                ("nproc", Value::Num(nproc as f64)),
                ("rustc", Value::str(command_output("rustc", &["-V"]))),
                (
                    "commit",
                    Value::str(command_output("git", &["rev-parse", "HEAD"])),
                ),
                ("seed", Value::Num(opts.seed as f64)),
                ("seconds", Value::Num(opts.seconds)),
                ("quick", Value::Bool(opts.quick)),
            ]),
        ),
        ("workloads", Value::Obj(workloads)),
    ]);
    let write = |name: &str, text: String| {
        let path = out_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("results.json", results.to_json_pretty())?;
    let trace = spans::to_jsonl(&spans);
    // A trace that does not read back is as good as none.
    if spans::parse_jsonl(&trace)? != spans {
        return Err("trace.jsonl does not read back as the spans that were recorded".into());
    }
    write("trace.jsonl", trace)?;
    Ok(all_correct)
}

const USAGE: &str = "usage: jash-perf --workload NAME --seed N --seconds S --trace 0|1
       jash-perf run [--seed N] [--seconds S] [--out DIR] [--quick]
       jash-perf compare BASE/results.json NEW/results.json
workloads: wordsort fusedchain temperature loopsmall servestorm";

struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
        root: None,
    };
    let mut argv = argv.peekable();
    if argv.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = argv.next();
    }
    while let Some(a) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 170.0)
                    .ok_or("--seconds needs a number between 0 and 170")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--root" => args.root = Some(PathBuf::from(value("a directory")?)),
            "--quick" => args.quick = true,
            file if !file.starts_with("--") && args.command.as_deref() == Some("compare") => {
                args.files.push(file.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    match (args.command.as_deref(), &args.workload) {
        (Some("compare"), _) => {
            let [base, new] = args.files.as_slice() else {
                return Err("compare needs two results.json files".into());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (table, regressed) = report::compare(&read(base)?, &read(new)?)?;
            print!("{table}");
            Ok(!regressed)
        }
        (Some("replay-child"), Some(workload)) => {
            // Internal: the parent's traced pass runs this (see child.rs).
            let root = args.root.ok_or("replay-child needs --root")?;
            let report = match cli_workload(workload) {
                Some(w) => cli::replay(&opts, w, &root)?,
                None => storm::replay(&opts, &root)?,
            };
            print!("{}", report.to_text());
            Ok(true)
        }
        (Some("run"), _) => {
            let env = Env::discover()?;
            env.build()?;
            let out = args.out.unwrap_or_else(|| env.work.join("out"));
            run_all(&env, &opts, &out)
        }
        (None, Some(workload)) => {
            let env = Env::discover()?;
            env.build()?;
            let pass = if args.trace {
                let pass = per_layer(&env, &opts, workload)?;
                let path = env.work.join(format!("{workload}-trace.jsonl"));
                std::fs::write(&path, spans::to_jsonl(&pass.spans))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                pass
            } else {
                end_to_end(&env, &opts, workload)?
            };
            print_pass(
                workload,
                if args.trace {
                    "per layer (traced pass)"
                } else {
                    "end to end (tracing off)"
                },
                &pass,
            );
            // The result is reported even when checks failed: `correct`
            // says so, and the exit code stays 0 so the line is read.
            println!("{}", pass.result_line());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("jash-perf: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn driver_arguments_parse_and_bad_ones_are_refused() {
        let a = args("--workload wordsort --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("wordsort"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.command),
            (7, 10.0, true, None)
        );
        let a = args("run --quick --out /tmp/x").unwrap();
        assert_eq!(
            (a.command.as_deref(), a.quick, a.seed),
            (Some("run"), true, 1)
        );
        let a = args("compare a.json b.json").unwrap();
        assert_eq!(a.files, vec!["a.json", "b.json"]);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seconds 1000",
            "--seed x",
            "--seed",
            "run stray",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn core_metrics_count_regions_by_action_and_sum_counters() {
        let text = "\
{\"v\":1,\"t\":\"span\",\"kind\":\"region\",\"id\":1,\"parent\":0,\"name\":\"a\",\"start_us\":1,\"wall_us\":5,\"attrs\":{\"action\":\"optimized\"}}
{\"v\":1,\"t\":\"span\",\"kind\":\"region\",\"id\":2,\"parent\":0,\"name\":\"b\",\"start_us\":1,\"wall_us\":5,\"attrs\":{\"action\":\"interpreted\"}}
{\"v\":1,\"t\":\"span\",\"kind\":\"region\",\"id\":3,\"parent\":0,\"name\":\"c\",\"start_us\":1,\"wall_us\":5,\"attrs\":{\"action\":\"failed_over\"}}
{\"v\":1,\"t\":\"span\",\"kind\":\"region\",\"id\":4,\"parent\":0,\"name\":\"d\",\"start_us\":1,\"wall_us\":5,\"attrs\":{\"action\":\"optimized\"}}
{\"v\":1,\"t\":\"span\",\"kind\":\"run\",\"id\":0,\"name\":\"run\",\"start_us\":0,\"wall_us\":9,\"attrs\":{}}
{\"v\":1,\"t\":\"counter\",\"name\":\"jit.plan_cache.hits\",\"value\":3}
{\"v\":1,\"t\":\"gauge\",\"name\":\"journal.fsyncs\",\"value\":12}
";
        let records = jash_trace::parse_jsonl(text).unwrap();
        let got: Vec<(&str, f64)> = core_metrics(&records)
            .iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(
            got,
            vec![
                ("core.regions", 4.0),
                ("core.regions_optimized", 2.0),
                ("core.regions_failed_over", 1.0),
                ("core.optimized_share", 0.5),
                ("core.plan_cache_hits", 3.0),
                ("core.fsyncs_per_region", 3.0),
            ]
        );
        assert_eq!(core_metrics(&[])[3].value, 0.0);
    }
}
