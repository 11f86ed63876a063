//! The harness's own span recorder: spans are taken from outside, around
//! the public call into each layer, kept in memory, and written as JSONL
//! when the run ends.

use crate::json::{self, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub workload: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread; the innermost open span is the
/// parent of the next one opened.
pub struct Recorder {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Takes in spans another process recorded, as if they had all been
    /// recorded here just now: times shift onto this recorder's clock,
    /// parents onto its indices.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len();
        let total = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let shift = self.now_ns().saturating_sub(total);
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of it its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// The layer calls of a replayed script, its stage-by-stage second pass
/// left out: the part of a run the probes account for.
pub const LAYER_CALLS: [&str; 8] = [
    "parser.parse",
    "expand.glob",
    "expand.words",
    "dataflow.compile",
    "cost.choose_plan",
    "dataflow.rewrite",
    "exec.execute",
    "interp.run",
];

/// Seconds of self time, among the spans recorded from index `from` on, in
/// spans named in `names`.
pub fn self_seconds(spans: &[Span], from: usize, names: &[&str]) -> f64 {
    self_times_ns(spans)
        .iter()
        .zip(spans)
        .skip(from)
        .filter(|(_, s)| names.contains(&s.name.as_str()))
        .map(|(&ns, _)| ns as f64 / 1e9)
        .sum()
}

pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let line = Value::obj(vec![
            ("id", Value::Num(id as f64)),
            ("name", Value::str(&s.name)),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
            ),
            ("workload", Value::str(&s.workload)),
        ]);
        out.push_str(&line.to_json());
        out.push('\n');
    }
    out
}

pub fn parse_jsonl(src: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (n, line) in src.lines().enumerate() {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("line {}: no `{k}`", n + 1));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("line {}: `{k}` is not a number", n + 1))
        };
        let text = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: `{k}` is not a string", n + 1))
        };
        let parent = match field("parent")? {
            Value::Null => None,
            p => Some(
                p.as_f64()
                    .ok_or_else(|| format!("line {}: bad parent", n + 1))? as usize,
            ),
        };
        if parent.is_some_and(|p| p >= n) {
            return Err(format!("line {}: parent does not precede its child", n + 1));
        }
        spans.push(Span {
            name: text("name")?,
            start_ns: num("start_ns")? as u64,
            end_ns: num("end_ns")? as u64,
            parent,
            workload: text("workload")?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            workload: "w".to_string(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("replay", 0, 1000, None),
            span("exec.execute", 100, 700, Some(0)),
            span("io.commit", 500, 650, Some(1)),
            span("parser.parse", 700, 800, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![300, 450, 150, 100]);
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_one() {
        let mut rec = Recorder::new("demo");
        let got = rec.span("outer", |r| {
            r.span("first", |_| ());
            r.span("second", |r| r.span("leaf", |_| 7))
        });
        assert_eq!(got, 7);
        let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        let s = rec.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert!(s.iter().all(|x| x.workload == "demo"));
    }

    #[test]
    fn adopted_spans_keep_their_shape_on_the_new_clock() {
        let mut rec = Recorder::new("demo");
        rec.span("probe", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.adopt(vec![
            span("replay", 100, 1100, None),
            span("exec.execute", 200, 700, Some(0)),
        ]);
        let s = rec.spans();
        assert_eq!((s[1].parent, s[2].parent), (None, Some(1)));
        assert_eq!((s[1].duration_ns(), s[2].duration_ns()), (1000, 500));
        assert_eq!(s[2].start_ns - s[1].start_ns, 100);
        assert!(
            s[1].end_ns >= s[0].end_ns,
            "adopted spans end now, not in the past"
        );
    }

    #[test]
    fn self_seconds_count_named_spans_from_an_index_on() {
        let s = 1_000_000_000;
        let spans = vec![
            span("replay", 0, 10 * s, None),
            span("parser.parse", 0, s, Some(0)),
            span("exec.execute", s, 3 * s, Some(0)),
            span("stages", 3 * s, 9 * s, Some(0)),
            span("coreutils.sort", 3 * s, 9 * s, Some(3)),
            span("replay", 10 * s, 12 * s, None),
            span("interp.run", 10 * s, 12 * s, Some(5)),
        ];
        assert_eq!(self_seconds(&spans, 0, &LAYER_CALLS), 5.0);
        assert_eq!(self_seconds(&spans, 5, &LAYER_CALLS), 2.0);
        assert_eq!(self_seconds(&spans, 0, &["exec.execute"]), 2.0);
    }

    #[test]
    fn jsonl_round_trips_and_rejects_damage() {
        let spans = vec![
            span("a \"b\"", 1, 9_000_000_000, None),
            span("c", 2, 3, Some(0)),
        ];
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(parse_jsonl(&text).unwrap(), spans);
        assert!(parse_jsonl("{\"id\":0}").unwrap_err().contains("line 1"));
        assert!(parse_jsonl("not json").unwrap_err().contains("line 1"));
        let forward = text.replace("\"parent\":null", "\"parent\":5");
        assert!(parse_jsonl(&forward).unwrap_err().contains("precede"));
    }
}
