//! Input splitters.
//!
//! Two strategies, chosen by the optimizer:
//!
//! * **contiguous** — branch *i* receives the *i*-th contiguous byte range
//!   of the input (cut at line boundaries). Order-preserving: required
//!   whenever the downstream aggregator is order-sensitive (concat,
//!   uniq/squeeze boundaries). Needs a size estimate, which the Jash JIT
//!   has by construction (it stats the input files at optimization time —
//!   the paper's core argument for running the compiler late).
//! * **round-robin** — blocks of lines dealt to branches cyclically.
//!   Streams without any size knowledge, but is only sound for
//!   order-insensitive aggregators (merge-sort with a total order, sums).

use jash_io::{ByteStream, Sink};
use std::io;

/// Lines per round-robin block.
pub const DEFAULT_BLOCK_LINES: usize = 4096;

/// Distributes contiguous ranges: branch `i` gets roughly `targets[i]`
/// bytes, extended to the next line boundary. Each branch's writer is
/// finished (closed) before the next branch starts, so downstream stages
/// see EOF as early as possible.
///
/// Per line, the rule is: a line goes to the current branch, after moving
/// on from every branch (but the last) that already holds its target. The
/// chunks are forwarded as slices, and a newline is looked for only where
/// a target falls inside a line.
pub fn split_contiguous(
    input: &mut dyn ByteStream,
    outputs: &mut [Box<dyn Sink>],
    targets: &[u64],
) -> io::Result<()> {
    debug_assert_eq!(outputs.len(), targets.len());
    let mut branch = 0usize;
    let mut sent: u64 = 0;
    let mut at_line_start = true;

    while let Some(mut chunk) = input.next_chunk()? {
        while !chunk.is_empty() {
            let cut = if branch + 1 == outputs.len() {
                chunk.len()
            } else if sent < targets[branch] {
                // Every byte short of the target is in a line that began
                // short of it.
                chunk
                    .len()
                    .min((targets[branch] - sent).try_into().unwrap_or(usize::MAX))
            } else if at_line_start {
                outputs[branch].finish()?;
                branch += 1;
                sent = 0;
                continue;
            } else {
                // The target fell inside this line: the branch ends with it.
                chunk
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(chunk.len(), |i| i + 1)
            };
            at_line_start = chunk[cut - 1] == b'\n';
            sent += cut as u64;
            outputs[branch].write_chunk(chunk.slice(..cut))?;
            chunk = chunk.slice(cut..);
        }
    }
    for out in outputs[branch..].iter_mut() {
        out.finish()?;
    }
    Ok(())
}

/// Deals blocks of `block_lines` lines to branches cyclically.
pub fn split_round_robin(
    input: &mut dyn ByteStream,
    outputs: &mut [Box<dyn Sink>],
    block_lines: usize,
) -> io::Result<()> {
    let mut branch = 0usize;
    let mut in_block = 0usize;

    while let Some(chunk) = input.next_chunk()? {
        let mut start = 0;
        for (i, _) in chunk.iter().enumerate().filter(|(_, &b)| b == b'\n') {
            in_block += 1;
            if in_block >= block_lines {
                outputs[branch].write_chunk(chunk.slice(start..=i))?;
                branch = (branch + 1) % outputs.len();
                in_block = 0;
                start = i + 1;
            }
        }
        if start < chunk.len() {
            outputs[branch].write_chunk(chunk.slice(start..))?;
        }
    }
    for out in outputs.iter_mut() {
        out.finish()?;
    }
    Ok(())
}

/// Balanced byte targets for `total` bytes over `width` branches.
pub fn balanced_targets(total: u64, width: usize) -> Vec<u64> {
    let base = total / width as u64;
    let mut v = vec![base; width];
    // Distribute the remainder over the leading branches.
    let rem = (total % width as u64) as usize;
    for t in v.iter_mut().take(rem) {
        *t += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use jash_io::MemStream;
    use parking_lot::Mutex;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;

    /// Runs `split` over `chunks` and `width` collecting sinks; returns
    /// what each branch received.
    fn branches(
        chunks: Vec<Bytes>,
        width: usize,
        split: impl FnOnce(&mut dyn ByteStream, &mut [Box<dyn Sink>]) -> io::Result<()>,
    ) -> Vec<Vec<u8>> {
        struct S(Arc<Mutex<Vec<u8>>>);
        impl Sink for S {
            fn write_chunk(&mut self, c: Bytes) -> io::Result<()> {
                self.0.lock().extend_from_slice(&c);
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let shared: Vec<Arc<Mutex<Vec<u8>>>> = (0..width).map(|_| Default::default()).collect();
        let mut sinks: Vec<Box<dyn Sink>> = shared
            .iter()
            .map(|c| Box::new(S(c.clone())) as Box<dyn Sink>)
            .collect();
        split(&mut MemStream::from_chunks(chunks), &mut sinks).unwrap();
        shared.iter().map(|c| c.lock().clone()).collect()
    }

    fn strings(parts: Vec<Vec<u8>>) -> Vec<String> {
        parts
            .into_iter()
            .map(|p| String::from_utf8(p).unwrap())
            .collect()
    }

    fn contig(input: &str, targets: &[u64]) -> Vec<String> {
        let chunks = vec![Bytes::from(input.to_string())];
        strings(branches(chunks, targets.len(), |src, sinks| {
            split_contiguous(src, sinks, targets)
        }))
    }

    fn rr(input: &str, width: usize, block: usize) -> Vec<String> {
        let chunks = vec![Bytes::from(input.to_string())];
        strings(branches(chunks, width, |src, sinks| {
            split_round_robin(src, sinks, block)
        }))
    }

    /// Random short lines (some empty), cut into random chunks.
    fn random_input(rng: &mut StdRng) -> (Vec<u8>, Vec<Bytes>) {
        let mut data = Vec::new();
        for _ in 0..rng.random_range(0..40usize) {
            data.extend(
                (0..rng.random_range(0..12usize)).map(|_| b'a' + rng.random_range(0..26u8)),
            );
            data.push(b'\n');
        }
        if rng.random_range(0..3u32) == 0 {
            data.pop();
        }
        let mut chunks = Vec::new();
        let mut rest = &data[..];
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(rng.random_range(1..rest.len() + 1).min(24));
            chunks.push(Bytes::copy_from_slice(chunk));
            rest = tail;
        }
        (data, chunks)
    }

    #[test]
    fn contiguous_matches_the_per_line_rule() {
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (data, chunks) = random_input(&mut rng);
            let lines: Vec<&[u8]> = data.split_inclusive(|&b| b == b'\n').collect();
            let len = data.len() as u64;
            let width = rng.random_range(1..6usize);
            let targets: Vec<u64> = (0..width)
                .map(|_| match rng.random_range(0..5u32) {
                    0 => 0,
                    // Exactly the length of the first few lines.
                    1 => lines
                        .iter()
                        .take(rng.random_range(0..lines.len() + 1))
                        .map(|l| l.len() as u64)
                        .sum(),
                    2 => len + rng.random_range(0..3u64),
                    // Anywhere, mostly inside a line.
                    _ => rng.random_range(0..len + 1),
                })
                .collect();

            // A line goes to the current branch, after moving on from every
            // branch but the last that already holds its target.
            let mut want = vec![Vec::new(); width];
            let mut branch = 0;
            for line in &lines {
                while branch + 1 < width && want[branch].len() as u64 >= targets[branch] {
                    branch += 1;
                }
                want[branch].extend_from_slice(line);
            }
            let got = branches(chunks, width, |src, sinks| {
                split_contiguous(src, sinks, &targets)
            });
            assert_eq!(
                got, want,
                "seed {seed}, targets {targets:?}, input {data:?}"
            );
        }
    }

    #[test]
    fn round_robin_matches_the_per_line_rule() {
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (data, chunks) = random_input(&mut rng);
            let width = rng.random_range(1..5usize);
            let block = rng.random_range(1..6usize);
            let mut want = vec![Vec::new(); width];
            for (i, line) in data.split_inclusive(|&b| b == b'\n').enumerate() {
                want[i / block % width].extend_from_slice(line);
            }
            let got = branches(chunks, width, |src, sinks| {
                split_round_robin(src, sinks, block)
            });
            assert_eq!(got, want, "seed {seed}, block {block}, input {data:?}");
        }
    }

    #[test]
    fn contiguous_preserves_concat() {
        let input = "a\nbb\nccc\ndddd\neeeee\n";
        let parts = contig(input, &balanced_targets(input.len() as u64, 3));
        assert_eq!(parts.concat(), input);
        // Cuts are at line boundaries.
        for p in &parts {
            assert!(p.is_empty() || p.ends_with('\n'), "{p:?}");
        }
        assert!(parts.iter().filter(|p| !p.is_empty()).count() >= 2);
    }

    #[test]
    fn contiguous_handles_no_trailing_newline() {
        let input = "a\nb\nc";
        let parts = contig(input, &balanced_targets(input.len() as u64, 2));
        assert_eq!(parts.concat(), input);
    }

    #[test]
    fn contiguous_tiny_input_goes_to_first_branches() {
        let parts = contig("x\n", &balanced_targets(2, 4));
        assert_eq!(parts.concat(), "x\n");
    }

    #[test]
    fn round_robin_covers_everything() {
        let input: String = (0..100).map(|i| format!("{i}\n")).collect();
        let parts = rr(&input, 3, 10);
        let mut all: Vec<&str> = parts.iter().flat_map(|p| p.lines()).collect();
        all.sort_by_key(|s| s.parse::<u64>().unwrap());
        assert_eq!(all.len(), 100);
        // Blocks of 10 dealt cyclically: branch 0 gets lines 0-9, 30-39...
        assert!(parts[0].starts_with("0\n1\n"));
        assert!(parts[1].starts_with("10\n"));
    }

    #[test]
    fn balanced_targets_sum_to_total() {
        let t = balanced_targets(10, 3);
        assert_eq!(t.iter().sum::<u64>(), 10);
        assert_eq!(t, vec![4, 3, 3]);
    }
}
