//! `results.json`: what a full run writes, and `compare`, which reads two
//! of them and says which end-to-end metrics moved beyond their bounds.

use crate::bench::{Better, Pass, END_TO_END};
use crate::json::{self, Value};
use std::fmt::Write as _;

/// One pass as it is stored: counts, every metric with its quartiles and
/// samples, and the sizes the pass ran at.
pub fn pass_value(pass: &Pass) -> Value {
    let metrics = pass
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.to_value()))
        .collect();
    Value::obj(vec![
        ("attempted", Value::Num(pass.attempted as f64)),
        ("failed", Value::Num(pass.failed as f64)),
        (
            "failed_share",
            Value::Num(pass.failed as f64 / pass.attempted.max(1) as f64),
        ),
        (
            "failures",
            Value::Arr(pass.failures.iter().map(Value::str).collect()),
        ),
        ("metrics", Value::Obj(metrics)),
        (
            "info",
            Value::Obj(
                pass.info
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Value::Num(v)))
                    .collect(),
            ),
        ),
    ])
}

/// One metric of one workload, read back from a results file.
#[derive(Debug, Clone, PartialEq)]
struct Reading {
    median: f64,
    q1: f64,
    q3: f64,
    samples: Vec<f64>,
}

impl Reading {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn reading(results: &Value, workload: &str, metric: &str) -> Option<Reading> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    let median = m.get("value")?.as_f64()?;
    let samples: Vec<f64> = m
        .get("samples")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    Some(Reading {
        median,
        q1: m.get("q1").and_then(Value::as_f64).unwrap_or(median),
        q3: m.get("q3").and_then(Value::as_f64).unwrap_or(median),
        samples,
    })
}

fn failed_share(results: &Value, workload: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("failed_share")?
        .as_f64()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Regressed,
    Unchanged,
    /// The runs of one side differ among themselves by more than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn judge(base: &Reading, new: &Reading, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => new.median / base.median - 1.0,
        Better::Higher => 1.0 - new.median / base.median,
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    if base.spread().max(new.spread()) <= bound {
        return Verdict::Unchanged;
    }
    // A wide spread still resolves when every run of the new side reads
    // better than every run of the base.
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let all_better = !base.samples.is_empty()
        && !new.samples.is_empty()
        && match better {
            Better::Lower => max(&new.samples) < min(&base.samples),
            Better::Higher => min(&new.samples) > max(&base.samples),
        };
    if all_better {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

/// The comparison table and whether anything regressed (a metric beyond
/// its bound, or a higher share of failed runs).
pub fn compare(base_text: &str, new_text: &str) -> Result<(String, bool), String> {
    let base = json::parse(base_text).map_err(|e| format!("first file: {e}"))?;
    let new = json::parse(new_text).map_err(|e| format!("second file: {e}"))?;
    let workloads = base
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("first file: no `workloads`")?;
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>12} {:>22} {:>12} {:>22} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "[q1, q3]", "new", "[q1, q3]", "new/base", "bound"
    );
    for (workload, _) in workloads {
        for &(metric, unit, better, bound) in END_TO_END {
            let (Some(b), Some(n)) = (
                reading(&base, workload, metric),
                reading(&new, workload, metric),
            ) else {
                return Err(format!(
                    "{workload}/{metric}: missing from one of the files"
                ));
            };
            let verdict = judge(&b, &n, better, bound);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<12} {:<14} {:>12} {:>22} {:>12} {:>22} {:>9.4} {:>5.0}%  {}",
                workload,
                metric,
                format!("{:.4} {unit}", b.median),
                format!("[{:.4}, {:.4}]", b.q1, b.q3),
                format!("{:.4} {unit}", n.median),
                format!("[{:.4}, {:.4}]", n.q1, n.q3),
                n.median / b.median,
                bound * 100.0,
                verdict.as_str(),
            );
        }
        let (fb, fn_) = (
            failed_share(&base, workload)
                .ok_or_else(|| format!("{workload}: no failed_share in the first file"))?,
            failed_share(&new, workload)
                .ok_or_else(|| format!("{workload}: no failed_share in the second file"))?,
        );
        let rose = fn_ > fb;
        regressed |= rose;
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>12} {:>22} {:>12} {:>22} {:>9} {:>6}  {}",
            workload,
            "failed_share",
            format!("{fb:.4}"),
            "",
            format!("{fn_:.4}"),
            "",
            "",
            "0",
            if rose { "regressed" } else { "unchanged" },
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Metric;

    fn results(jit: &[f64], failed: u64) -> String {
        let mut pass = Pass::default();
        for i in 0..10 {
            pass.attempt(if i < failed {
                Err("bad".into())
            } else {
                Ok(())
            });
        }
        pass.push(Metric::median_of("jit_wall_s", jit.to_vec()));
        pass.push(Metric::median_of("interp_wall_s", vec![0.5, 0.5, 0.5]));
        pass.push(Metric::single("peak_rss_mb", 20.0));
        pass.push(Metric::median_of("setup_s", vec![0.1, 0.1, 0.1]));
        Value::obj(vec![(
            "workloads",
            Value::obj(vec![(
                "wordsort",
                Value::obj(vec![("end_to_end", pass_value(&pass))]),
            )]),
        )])
        .to_json_pretty()
    }

    fn verdict_of(table: &str, metric: &str) -> String {
        let row = table.lines().find(|l| l.contains(metric)).unwrap();
        row.split_whitespace().last().unwrap().to_string()
    }

    #[test]
    fn identical_files_are_unchanged_in_both_directions() {
        let a = results(&[1.00, 1.01, 1.02, 0.99, 1.00], 0);
        let (table, regressed) = compare(&a, &a).unwrap();
        assert!(!regressed, "{table}");
        for m in [
            "jit_wall_s",
            "interp_wall_s",
            "peak_rss_mb",
            "setup_s",
            "failed_share",
        ] {
            assert_eq!(verdict_of(&table, m), "unchanged", "{table}");
        }
        assert!(table.contains("1.0000 s") && table.contains("25%"));
    }

    #[test]
    fn a_median_beyond_the_bound_regresses_and_only_in_that_direction() {
        let a = results(&[1.00, 1.01, 1.02, 0.99, 1.00], 0);
        let b = results(&[1.40, 1.41, 1.42, 1.39, 1.40], 0);
        let (table, regressed) = compare(&a, &b).unwrap();
        assert!(regressed);
        assert_eq!(verdict_of(&table, "jit_wall_s"), "regressed");
        assert_eq!(verdict_of(&table, "interp_wall_s"), "unchanged");
        let (table, regressed) = compare(&b, &a).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(verdict_of(&table, "jit_wall_s"), "unchanged");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = results(&[1.0, 1.5, 0.6, 1.4, 0.7], 0);
        let (table, regressed) = compare(&noisy, &noisy).unwrap();
        assert!(!regressed);
        assert_eq!(verdict_of(&table, "jit_wall_s"), "unresolved");
        let clearly_faster = results(&[0.3, 0.5, 0.2, 0.4, 0.25], 0);
        let (table, _) = compare(&noisy, &clearly_faster).unwrap();
        assert_eq!(verdict_of(&table, "jit_wall_s"), "unchanged", "{table}");
    }

    #[test]
    fn any_rise_in_failed_share_regresses() {
        let a = results(&[1.0, 1.0, 1.0], 0);
        let b = results(&[1.0, 1.0, 1.0], 1);
        let (table, regressed) = compare(&a, &b).unwrap();
        assert!(regressed);
        assert_eq!(verdict_of(&table, "failed_share"), "regressed");
        assert!(!compare(&b, &a).unwrap().1);
    }

    #[test]
    fn damaged_or_mismatched_files_are_errors() {
        let a = results(&[1.0], 0);
        assert!(compare("{", &a).unwrap_err().contains("first file"));
        assert!(compare(&a, "[]").unwrap_err().contains("missing"));
        assert!(compare("{}", &a).unwrap_err().contains("workloads"));
    }
}
