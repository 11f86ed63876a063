//! Aggregators: recombining partial outputs into the exact sequential
//! output.

use bytes::Bytes;
use jash_io::{ByteStream, CoalescingSink, LineBuffer, Sink};
use jash_spec::Aggregator;
use std::cmp::Ordering;
use std::io;

/// Runs the aggregator over `inputs` (in branch order), writing to `out`.
pub fn run_merge(
    agg: &Aggregator,
    inputs: Vec<Box<dyn ByteStream>>,
    out: &mut dyn Sink,
) -> io::Result<()> {
    // Line-granular aggregators coalesce output into chunk-sized writes.
    let mut out = CoalescingSink::new(out);
    match agg {
        Aggregator::Concat => concat(inputs, &mut out),
        Aggregator::MergeSort { key } => merge_sort(inputs, &mut out, key),
        Aggregator::SumCounts => sum_counts(inputs, &mut out),
        Aggregator::UniqBoundary { counted } => uniq_boundary(inputs, &mut out, *counted),
        Aggregator::TakeFirst { n } => take_first(inputs, &mut out, *n),
        Aggregator::SqueezeBoundary { set } => squeeze_boundary(inputs, &mut out, set),
    }?;
    out.finish()
}

fn concat(mut inputs: Vec<Box<dyn ByteStream>>, out: &mut dyn Sink) -> io::Result<()> {
    for input in &mut inputs {
        while let Some(chunk) = input.next_chunk()? {
            out.write_chunk(chunk)?;
        }
    }
    Ok(())
}

/// A line-buffered reader with one-line lookahead. Lines are slices of the
/// stream's chunks.
struct LineReader {
    stream: Box<dyn ByteStream>,
    lb: LineBuffer,
    eof: bool,
    current: Option<Bytes>,
}

impl LineReader {
    fn new(stream: Box<dyn ByteStream>) -> io::Result<Self> {
        let mut r = LineReader {
            stream,
            lb: LineBuffer::new(),
            eof: false,
            current: None,
        };
        r.advance()?;
        Ok(r)
    }

    /// The current line (with `\n`), if any.
    fn peek(&self) -> Option<&Bytes> {
        self.current.as_ref()
    }

    /// Takes the current line and moves to the one after it.
    fn next(&mut self) -> io::Result<Option<Bytes>> {
        let line = self.current.take();
        if line.is_some() {
            self.advance()?;
        }
        Ok(line)
    }

    fn advance(&mut self) -> io::Result<()> {
        loop {
            if let Some(line) = self.lb.next_line() {
                self.current = Some(line);
                return Ok(());
            }
            if self.eof {
                // Normalize a missing trailing newline so comparisons
                // and re-emission stay line-shaped.
                self.current = self.lb.take_rest().map(|rest| {
                    let mut v = rest.to_vec();
                    v.push(b'\n');
                    Bytes::from(v)
                });
                return Ok(());
            }
            match self.stream.next_chunk()? {
                Some(chunk) => self.lb.push_bytes(chunk),
                None => self.eof = true,
            }
        }
    }
}

fn merge_sort(
    inputs: Vec<Box<dyn ByteStream>>,
    out: &mut dyn Sink,
    key: &jash_spec::SortKeySpec,
) -> io::Result<()> {
    let opts: jash_coreutils::cmds::sort::SortOptions = (*key).into();
    let mut readers: Vec<LineReader> = inputs
        .into_iter()
        .map(LineReader::new)
        .collect::<io::Result<_>>()?;
    // The numeric key of each reader's current line, parsed once.
    let num = |r: &LineReader| r.peek().map_or(0.0, |l| opts.numeric_value(chomp(l)));
    let mut nums: Vec<f64> = readers.iter().map(num).collect();
    let mut last: Option<(Bytes, f64)> = None;
    loop {
        // Pick the smallest current line; ties resolve to the earliest
        // branch (stability).
        let mut best: Option<(usize, &Bytes)> = None;
        for (i, r) in readers.iter().enumerate() {
            let Some(line) = r.peek() else { continue };
            best = match best {
                Some((b, bl))
                    if opts.compare_with((chomp(line), nums[i]), (chomp(bl), nums[b]))
                        != Ordering::Less =>
                {
                    best
                }
                _ => Some((i, line)),
            };
        }
        let Some((i, _)) = best else { return Ok(()) };
        let line = readers[i]
            .next()?
            .expect("the best reader has a current line");
        let n = std::mem::replace(&mut nums[i], num(&readers[i]));
        if key.unique {
            if let Some((prev, pn)) = &last {
                if opts.compare_with((chomp(prev), *pn), (chomp(&line), n)) == Ordering::Equal {
                    continue;
                }
            }
            last = Some((line.clone(), n));
        }
        out.write_chunk(line)?;
    }
}

fn chomp(b: &Bytes) -> &[u8] {
    match b.last() {
        Some(b'\n') => &b[..b.len() - 1],
        _ => b,
    }
}

/// Sums whitespace-separated numeric columns across branches, reproducing
/// `wc`-style formatting (bare number for one column, `{:>7}`-padded
/// otherwise).
fn sum_counts(mut inputs: Vec<Box<dyn ByteStream>>, out: &mut dyn Sink) -> io::Result<()> {
    let mut sums: Vec<i64> = Vec::new();
    for input in &mut inputs {
        let data = jash_io::stream::read_all(input.as_mut())?;
        let text = String::from_utf8_lossy(&data);
        let nums: Vec<i64> = text
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        if sums.is_empty() {
            sums = nums;
        } else {
            for (s, n) in sums.iter_mut().zip(nums) {
                *s += n;
            }
        }
    }
    let line = if sums.len() == 1 {
        format!("{}\n", sums[0])
    } else {
        let cols: Vec<String> = sums.iter().map(|n| format!("{n:>7}")).collect();
        format!("{}\n", cols.join(" "))
    };
    out.write_chunk(Bytes::from(line))
}

/// Concatenates, collapsing equal lines adjacent across a branch boundary.
/// With `counted`, partials are `uniq -c` output and boundary counts sum.
fn uniq_boundary(
    inputs: Vec<Box<dyn ByteStream>>,
    out: &mut dyn Sink,
    counted: bool,
) -> io::Result<()> {
    let mut held: Option<Bytes> = None;
    for input in inputs {
        let mut r = LineReader::new(input)?;
        while let Some(line) = r.next()? {
            match held.take() {
                None => held = Some(line),
                Some(prev) => {
                    if counted {
                        let (pc, pl) = parse_counted(&prev);
                        let (nc, nl) = parse_counted(&line);
                        if pl == nl {
                            held = Some(Bytes::from(format_counted(pc + nc, &pl)));
                            continue;
                        }
                    } else if prev == line {
                        held = Some(prev);
                        continue;
                    }
                    out.write_chunk(prev)?;
                    held = Some(line);
                }
            }
        }
    }
    if let Some(prev) = held {
        out.write_chunk(prev)?;
    }
    Ok(())
}

fn parse_counted(line: &Bytes) -> (u64, Vec<u8>) {
    let body = chomp(line);
    let text = String::from_utf8_lossy(body);
    let trimmed = text.trim_start();
    match trimmed.split_once(' ') {
        Some((n, rest)) => match n.parse::<u64>() {
            Ok(c) => (c, rest.as_bytes().to_vec()),
            Err(_) => (1, body.to_vec()),
        },
        None => match trimmed.parse::<u64>() {
            Ok(c) => (c, Vec::new()),
            Err(_) => (1, body.to_vec()),
        },
    }
}

fn format_counted(count: u64, body: &[u8]) -> Vec<u8> {
    let mut v = format!("{count:>7} ").into_bytes();
    v.extend_from_slice(body);
    v.push(b'\n');
    v
}

fn take_first(
    inputs: Vec<Box<dyn ByteStream>>,
    out: &mut dyn Sink,
    n: u64,
) -> io::Result<()> {
    let mut remaining = n;
    for input in inputs {
        if remaining == 0 {
            break;
        }
        let mut r = LineReader::new(input)?;
        while remaining > 0 {
            let Some(line) = r.next()? else { break };
            out.write_chunk(line)?;
            remaining -= 1;
        }
    }
    Ok(())
}

/// Concatenates, collapsing a boundary-spanning run of a squeezed byte.
fn squeeze_boundary(
    mut inputs: Vec<Box<dyn ByteStream>>,
    out: &mut dyn Sink,
    set: &[u8],
) -> io::Result<()> {
    let mut last_byte: Option<u8> = None;
    for input in &mut inputs {
        let mut at_start = true;
        while let Some(chunk) = input.next_chunk()? {
            let mut chunk = chunk;
            if at_start {
                if let Some(lb) = last_byte {
                    if set.contains(&lb) {
                        let skip = chunk.iter().take_while(|&&b| b == lb).count();
                        chunk = chunk.slice(skip..);
                    }
                }
                if !chunk.is_empty() {
                    at_start = false;
                }
            }
            if !chunk.is_empty() {
                last_byte = chunk.last().copied();
                out.write_chunk(chunk)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jash_io::{MemStream, VecSink};
    use jash_spec::SortKeySpec;

    fn streams(parts: &[&str]) -> Vec<Box<dyn ByteStream>> {
        parts
            .iter()
            .map(|p| Box::new(MemStream::from_bytes(p.to_string())) as Box<dyn ByteStream>)
            .collect()
    }

    fn merge(agg: &Aggregator, parts: &[&str]) -> String {
        let mut sink = VecSink::new();
        run_merge(agg, streams(parts), &mut sink).unwrap();
        String::from_utf8(sink.data).unwrap()
    }

    #[test]
    fn concat_in_order() {
        assert_eq!(
            merge(&Aggregator::Concat, &["a\n", "b\n", "c\n"]),
            "a\nb\nc\n"
        );
    }

    #[test]
    fn merge_sort_lexicographic() {
        let agg = Aggregator::MergeSort {
            key: SortKeySpec::default(),
        };
        assert_eq!(
            merge(&agg, &["a\nc\ne\n", "b\nd\n"]),
            "a\nb\nc\nd\ne\n"
        );
    }

    #[test]
    fn merge_sort_numeric_reverse() {
        let agg = Aggregator::MergeSort {
            key: SortKeySpec {
                numeric: true,
                reverse: true,
                ..Default::default()
            },
        };
        assert_eq!(merge(&agg, &["9\n5\n1\n", "10\n2\n"]), "10\n9\n5\n2\n1\n");
    }

    #[test]
    fn merge_sort_numeric_ties_break_on_bytes_and_stay_stable() {
        let key = SortKeySpec {
            numeric: true,
            ..Default::default()
        };
        // "07" and "7" are equal numbers but different lines; equal lines
        // come out earliest branch first.
        let parts = ["07\n7\n10\n", "7\n9\n", "07\n"];
        assert_eq!(
            merge(&Aggregator::MergeSort { key }, &parts),
            "07\n07\n7\n7\n9\n10\n"
        );
        let key = SortKeySpec {
            unique: true,
            ..key
        };
        assert_eq!(
            merge(&Aggregator::MergeSort { key }, &parts),
            "07\n7\n9\n10\n"
        );
    }

    #[test]
    fn merge_sort_unique() {
        let agg = Aggregator::MergeSort {
            key: SortKeySpec {
                unique: true,
                ..Default::default()
            },
        };
        assert_eq!(merge(&agg, &["a\nb\n", "b\nc\n"]), "a\nb\nc\n");
    }

    #[test]
    fn merge_sort_equals_full_sort_property() {
        // merge(sort(a), sort(b)) == sort(a ++ b) on random-ish data.
        let a = "pear\napple\nzebra\n";
        let b = "mango\napple\nberry\n";
        let sort = |s: &str| {
            let mut v: Vec<&str> = s.lines().collect();
            v.sort();
            v.iter().map(|l| format!("{l}\n")).collect::<String>()
        };
        let agg = Aggregator::MergeSort {
            key: SortKeySpec::default(),
        };
        let merged = merge(&agg, &[&sort(a), &sort(b)]);
        assert_eq!(merged, sort(&(a.to_string() + b)));
    }

    #[test]
    fn sum_counts_single_column() {
        assert_eq!(merge(&Aggregator::SumCounts, &["3\n", "4\n"]), "7\n");
    }

    #[test]
    fn sum_counts_multi_column() {
        let out = merge(&Aggregator::SumCounts, &["  1  2  3\n", "  4  5  6\n"]);
        let nums: Vec<&str> = out.split_whitespace().collect();
        assert_eq!(nums, vec!["5", "7", "9"]);
    }

    #[test]
    fn uniq_boundary_collapses_duplicates() {
        let agg = Aggregator::UniqBoundary { counted: false };
        assert_eq!(merge(&agg, &["a\nb\n", "b\nc\n"]), "a\nb\nc\n");
        assert_eq!(merge(&agg, &["a\n", "a\n", "a\n"]), "a\n");
        assert_eq!(merge(&agg, &["a\nb\n", "c\n"]), "a\nb\nc\n");
    }

    #[test]
    fn uniq_boundary_counted_sums() {
        let agg = Aggregator::UniqBoundary { counted: true };
        let out = merge(&agg, &["      2 a\n", "      3 a\n      1 b\n"]);
        assert_eq!(out, "      5 a\n      1 b\n");
    }

    #[test]
    fn take_first_limits() {
        let agg = Aggregator::TakeFirst { n: 3 };
        assert_eq!(merge(&agg, &["1\n2\n", "3\n4\n"]), "1\n2\n3\n");
    }

    #[test]
    fn squeeze_boundary_drops_run() {
        let agg = Aggregator::SqueezeBoundary { set: vec![b'\n'] };
        // Chunk 1 ends with \n, chunk 2 starts with \n\n: squeeze to one.
        assert_eq!(merge(&agg, &["word\n", "\n\nnext\n"]), "word\nnext\n");
        // Non-squeezed bytes untouched.
        assert_eq!(merge(&agg, &["ab", "ba"]), "abba");
    }

    #[test]
    fn empty_branches_ok() {
        assert_eq!(merge(&Aggregator::Concat, &["", "x\n", ""]), "x\n");
        let agg = Aggregator::MergeSort {
            key: SortKeySpec::default(),
        };
        assert_eq!(merge(&agg, &["", ""]), "");
    }
}
