//! What every workload shares: where things live, what a pass reports,
//! and the metric tables `BENCHMARK.json` mirrors.

use crate::json::Value;
use crate::spans::Span;
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// A CLI run or a daemon start that takes longer than this is killed and
/// counted as failed.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// End-to-end metrics: name, unit, direction, and the share of the
/// baseline's median by which a later change may worsen it. Every
/// workload reports every one of them, with tracing off.
///
/// The wall-time bounds are as wide as they are because the sandbox is:
/// between a quiet quarter of an hour and a busy one the same commit's
/// medians moved by up to 18 % (README, "How steady the numbers are").
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("jit_wall_s", "s", Better::Lower, 0.25),
    ("interp_wall_s", "s", Better::Lower, 0.25),
    ("peak_rss_mb", "MiB", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics: name, unit, direction. Reported by the traced pass
/// only; none has a bound. README.md says which end-to-end metric each
/// should move, and on which workload.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("parser.parse_us", "us", Better::Lower),
    ("parser.parse_mb_per_s", "MB/s", Better::Higher),
    ("expand.words_us", "us", Better::Lower),
    ("expand.glob_us", "us", Better::Lower),
    ("dataflow.compile_us", "us", Better::Lower),
    ("dataflow.rewrite_us", "us", Better::Lower),
    ("dataflow.nodes", "count", Better::Lower),
    ("cost.choose_plan_us", "us", Better::Lower),
    ("cost.width_ramdisk", "count", Better::Higher),
    ("cost.width_gp2", "count", Better::Higher),
    ("cost.width_gp3", "count", Better::Higher),
    ("exec.split_mb_per_s", "MB/s", Better::Higher),
    ("exec.merge_sort_mb_per_s", "MB/s", Better::Higher),
    ("exec.merge_concat_mb_per_s", "MB/s", Better::Higher),
    ("exec.execute_s", "s", Better::Lower),
    ("exec.hop_mb_per_s", "MB/s", Better::Higher),
    ("exec.retries", "count", Better::Lower),
    ("io.lines_mb_per_s", "MB/s", Better::Higher),
    ("io.lines_bigchunk_mb_per_s", "MB/s", Better::Higher),
    ("io.pipe_mb_per_s", "MB/s", Better::Higher),
    ("io.commit_us", "us", Better::Lower),
    ("io.journal_append_us", "us", Better::Lower),
    ("io.journal_append_nodurable_us", "us", Better::Lower),
    ("io.ledger_append_us", "us", Better::Lower),
    ("io.memo_put_us", "us", Better::Lower),
    ("io.memo_get_us", "us", Better::Lower),
    ("coreutils.tr_mb_per_s", "MB/s", Better::Higher),
    ("coreutils.sort_mb_per_s", "MB/s", Better::Higher),
    ("coreutils.sort_rn_mb_per_s", "MB/s", Better::Higher),
    ("coreutils.grep_mb_per_s", "MB/s", Better::Higher),
    ("coreutils.cut_mb_per_s", "MB/s", Better::Higher),
    ("coreutils.kernel_mb_per_s", "MB/s", Better::Higher),
    ("coreutils.kernel_lines", "count", Better::Higher),
    ("interp.run_mb_per_s", "MB/s", Better::Higher),
    ("interp.loop_iters_per_s", "1/s", Better::Higher),
    ("core.startup_ms", "ms", Better::Lower),
    ("core.regions", "count", Better::Lower),
    ("core.regions_optimized", "count", Better::Higher),
    ("core.regions_failed_over", "count", Better::Lower),
    ("core.optimized_share", "ratio", Better::Higher),
    ("core.plan_cache_hits", "count", Better::Higher),
    ("core.fsyncs_per_region", "count", Better::Lower),
    ("serve.frame_encode_ns", "ns", Better::Lower),
    ("serve.frame_decode_ns", "ns", Better::Lower),
    ("serve.sched_push_pop_ns", "ns", Better::Lower),
    ("serve.throughput_rps", "1/s", Better::Higher),
    ("serve.latency_p50_ms", "ms", Better::Lower),
    ("serve.latency_p99_ms", "ms", Better::Lower),
    ("serve.accepted_ms_p50", "ms", Better::Lower),
    ("serve.queue_wait_ms_p99", "ms", Better::Lower),
    ("serve.run_ms_p50", "ms", Better::Lower),
    ("serve.overhead_ms_p50", "ms", Better::Lower),
    ("serve.rejected", "count", Better::Lower),
    ("trace.span_ns", "ns", Better::Lower),
    ("trace.to_jsonl_us_per_kspan", "us", Better::Lower),
    ("trace.parse_mb_per_s", "MB/s", Better::Higher),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("bench.unattributed_share", "ratio", Better::Lower),
    ("bench.pacer_late_ms_p99", "ms", Better::Lower),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"))
}

/// One reported number and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Empty for counts and single measurements.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn single(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            samples: Vec::new(),
        }
    }

    /// The median of `samples`; panics when there are none, because a
    /// pass that measured nothing has no business reporting.
    pub fn median_of(name: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            value: stats::median(&samples),
            samples,
        }
    }

    /// `{value, unit}`: what the driver's result line carries.
    fn brief(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(unit_of(self.name))),
        ]
    }

    /// The same with quartiles, count and the samples themselves, for
    /// `results.json`.
    pub fn to_value(&self) -> Value {
        let mut pairs = self.brief();
        if !self.samples.is_empty() {
            let s = stats::summarize(&self.samples);
            pairs.push(("q1", Value::Num(s.q1)));
            pairs.push(("q3", Value::Num(s.q3)));
            pairs.push(("n", Value::Num(s.n as f64)));
            let samples = self.samples.iter().map(|&x| Value::Num(x)).collect();
            pairs.push(("samples", Value::Arr(samples)));
        }
        Value::obj(pairs)
    }
}

/// What one pass over one workload found.
#[derive(Debug, Default)]
pub struct Pass {
    /// Runs or requests tried, and how many of them failed: wrong status,
    /// output different from the reference, timeout, rejection, debris
    /// left behind, or a reply slower than the latency limit.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the person reading the log.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// Input sizes and repetition counts, recorded in `results.json`.
    pub info: Vec<(&'static str, f64)>,
}

impl Pass {
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Counts a failure that is not itself an attempt (debris, a daemon
    /// that exited badly).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// The line a driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), Value::obj(m.brief())))
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// How long the measured part of a pass may take.
    pub seconds: f64,
    /// Smoke mode: one repetition, inputs an eighth the size.
    pub quick: bool,
}

impl Opts {
    /// Whether a time-boxed loop that has done `rounds` rounds since
    /// `start`, the last of them begun at `round_start`, should do another:
    /// always three, then for as long as at least half of one more fits
    /// into `budget_s` seconds. Quick mode does one round.
    pub fn another_round(
        &self,
        rounds: usize,
        start: std::time::Instant,
        round_start: std::time::Instant,
        budget_s: f64,
    ) -> bool {
        let next_round_ends = start.elapsed() + round_start.elapsed().mul_f64(0.5);
        !self.quick && (rounds < 3 || next_round_ends.as_secs_f64() < budget_s)
    }

    /// Scales an input size down in quick mode.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(1)
        } else {
            full
        }
    }
}

/// Where the binary under test and the scratch space are.
#[derive(Debug, Clone)]
pub struct Env {
    pub jash: PathBuf,
    /// Scratch root, `<target dir>/perf-work`, relative to the current
    /// directory when it can be so socket paths stay short.
    pub work: PathBuf,
}

impl Env {
    /// Expects to run from the root of a jash checkout.
    pub fn discover() -> Result<Env, String> {
        for needed in ["Cargo.toml", "crates/core", "src/bin/jash.rs"] {
            if !Path::new(needed).exists() {
                return Err(format!(
                    "`{needed}` not found: run jash-perf from the root of a jash checkout"
                ));
            }
        }
        let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let target = target
            .strip_prefix(&cwd)
            .map(Path::to_path_buf)
            .unwrap_or(target);
        Ok(Env {
            jash: target.join("release").join("jash"),
            work: target.join("perf-work"),
        })
    }

    /// Builds the release `jash` binary from this checkout's sources. A
    /// fresh build is a no-op for cargo, so this always runs: the binary
    /// measured is never older than the sources beside it.
    pub fn build(&self) -> Result<(), String> {
        let target = self
            .jash
            .parent()
            .and_then(Path::parent)
            .expect("target/release/jash");
        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "--bin", "jash"])
            .env("CARGO_TARGET_DIR", target)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cargo build: {e}"))?;
        if !status.success() || !self.jash.exists() {
            return Err(format!(
                "cargo build --release --bin jash failed ({status})"
            ));
        }
        Ok(())
    }

    /// A fresh, empty scratch root for `name`.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        remove_tree(&dir)?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

pub fn remove_tree(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", dir.display())),
    }
}

/// Files and directories under `root` that a clean run must not leave:
/// executor staging files and daemon run scopes.
pub fn debris(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
            if name.contains(".jash-stage-") || (is_dir && name.starts_with("run-")) {
                found.push(entry.path().display().to_string());
            } else if is_dir {
                stack.push(entry.path());
            }
        }
    }
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for n in names {
            assert!(
                n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_reports() {
        let manifest = crate::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            manifest
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |rows: Vec<(&str, &str, Better)>| -> Vec<(String, String, String)> {
            rows.into_iter()
                .map(|(n, u, b)| {
                    let better = if b == Better::Lower {
                        "lower"
                    } else {
                        "higher"
                    };
                    (n.to_string(), u.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END.iter().map(|&(n, u, b, _)| (n, u, b)).collect())
        );
        assert_eq!(listed("per_layer"), own(PER_LAYER.to_vec()));
        let bounds: Vec<f64> = manifest
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.iter().map(|m| m.3).collect::<Vec<_>>());
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_every_digit() {
        let mut pass = Pass::default();
        pass.attempt(Ok(()));
        pass.attempt(Err("wrong output".into()));
        pass.push(Metric::median_of("jit_wall_s", vec![1.25, 1.2034567, 1.5]));
        let line = pass.result_line();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":\
             {\"jit_wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        assert_eq!(pass.failures, vec!["wrong output"]);
    }

    #[test]
    fn debris_finds_stage_files_and_run_scopes_only() {
        let dir = std::env::temp_dir().join(format!("jash-perf-debris-{}", std::process::id()));
        remove_tree(&dir).unwrap();
        std::fs::create_dir_all(dir.join(".jash-serve/run-7")).unwrap();
        std::fs::create_dir_all(dir.join("logs")).unwrap();
        std::fs::write(dir.join("logs/out.txt.jash-stage-3"), b"x").unwrap();
        std::fs::write(dir.join("logs/run-notes.txt"), b"x").unwrap();
        let found = debris(&dir);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].ends_with("run-7") && found[1].ends_with("jash-stage-3"));
        remove_tree(&dir).unwrap();
        assert!(debris(&dir).is_empty());
    }
}
