//! The replay runs in a child process of its own.
//!
//! The layer calls are timed to be set beside the binary's end-to-end wall,
//! and the binary starts with a fresh heap. This process does not: by the
//! time it could replay anything it has generated inputs, computed
//! references and run probes, and glibc's allocator remembers — the same
//! `execute` call measures 20 to 50 % slower here than in a new process. So
//! the harness re-executes itself (`jash-perf replay-child …`), the child
//! replays *first* and verifies afterwards, and hands back its spans,
//! verdicts and numbers on stdout: span JSONL, then one JSON line.

use crate::bench::{Metric, Opts, CHILD_TIMEOUT, PER_LAYER};
use crate::json::{self, Value};
use crate::spans::{self, Span};
use std::path::Path;

/// What a replay found.
#[derive(Debug)]
pub struct Report {
    pub spans: Vec<Span>,
    pub verdicts: Vec<Result<(), String>>,
    pub metrics: Vec<Metric>,
    /// Self time of the layer calls, the stage-by-stage pass left out.
    pub layer_seconds: f64,
}

impl Report {
    pub fn to_text(&self) -> String {
        let verdicts = self
            .verdicts
            .iter()
            .map(|v| v.as_ref().err().map_or(Value::Null, Value::str))
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), Value::Num(m.value)))
            .collect();
        let tail = Value::obj(vec![
            ("verdicts", Value::Arr(verdicts)),
            ("metrics", Value::Obj(metrics)),
            ("layer_seconds", Value::Num(self.layer_seconds)),
        ]);
        format!("{}{}\n", spans::to_jsonl(&self.spans), tail.to_json())
    }

    pub fn from_text(text: &str) -> Result<Report, String> {
        let text = text.trim_end();
        let (span_lines, tail) = text.rsplit_once('\n').unwrap_or(("", text));
        let tail = json::parse(tail)?;
        let missing = |what: &str| format!("replay child: no `{what}` in its report");
        let verdicts = tail
            .get("verdicts")
            .and_then(Value::as_arr)
            .ok_or_else(|| missing("verdicts"))?
            .iter()
            .map(|v| match v {
                Value::Str(e) => Err(e.clone()),
                _ => Ok(()),
            })
            .collect();
        let metrics = tail
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| missing("metrics"))?
            .iter()
            .map(|(name, v)| {
                let name = PER_LAYER
                    .iter()
                    .map(|m| m.0)
                    .find(|n| n == name)
                    .ok_or_else(|| format!("replay child: unknown metric `{name}`"))?;
                let value = v
                    .as_f64()
                    .ok_or_else(|| format!("replay child: `{name}` is not a number"))?;
                Ok(Metric::single(name, value))
            })
            .collect::<Result<_, String>>()?;
        Ok(Report {
            spans: spans::parse_jsonl(span_lines)?,
            verdicts,
            metrics,
            layer_seconds: tail
                .get("layer_seconds")
                .and_then(Value::as_f64)
                .ok_or_else(|| missing("layer_seconds"))?,
        })
    }
}

/// Replays `workload` over the inputs already written under `root`, in a
/// fresh process.
pub fn replay(opts: &Opts, workload: &str, root: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "replay-child",
        "--workload",
        workload,
        "--seed",
        &opts.seed.to_string(),
        "--root",
    ])
    .arg(root);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out =
        crate::proc::run(&mut cmd, CHILD_TIMEOUT).map_err(|e| format!("replay child: {e}"))?;
    if out.timed_out || out.exit.code != 0 {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "replay child exited {}: {}",
            out.exit.code,
            stderr.trim()
        ));
    }
    Report::from_text(&String::from_utf8_lossy(&out.stdout))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_survives_the_trip_between_processes() {
        let report = Report {
            spans: vec![
                Span {
                    name: "replay".into(),
                    start_ns: 5,
                    end_ns: 900,
                    parent: None,
                    workload: "w".into(),
                },
                Span {
                    name: "exec.execute".into(),
                    start_ns: 10,
                    end_ns: 800,
                    parent: Some(0),
                    workload: "w".into(),
                },
            ],
            verdicts: vec![Ok(()), Err("out.txt differs\nfrom the reference".into())],
            metrics: vec![
                Metric::single("exec.execute_s", 0.79),
                Metric::single("dataflow.nodes", 6.0),
            ],
            layer_seconds: 0.8123,
        };
        let back = Report::from_text(&report.to_text()).unwrap();
        assert_eq!(back.spans, report.spans);
        assert_eq!(back.verdicts, report.verdicts);
        assert_eq!(back.layer_seconds, report.layer_seconds);
        let pairs: Vec<(&str, f64)> = back.metrics.iter().map(|m| (m.name, m.value)).collect();
        assert_eq!(
            pairs,
            vec![("exec.execute_s", 0.79), ("dataflow.nodes", 6.0)]
        );

        let no_spans = Report {
            spans: Vec::new(),
            ..report
        };
        assert!(Report::from_text(&no_spans.to_text())
            .unwrap()
            .spans
            .is_empty());
        assert!(
            Report::from_text("{\"metrics\":{\"made.up\":1},\"verdicts\":[]}")
                .unwrap_err()
                .contains("made.up")
        );
        assert!(Report::from_text("").is_err());
    }
}
