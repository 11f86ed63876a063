//! Newline framing over chunked byte streams.
//!
//! Coreutils operators are line-oriented but streams are chunk-oriented;
//! [`LineBuffer`] converts between the two incrementally. It scans each
//! chunk in place and copies only a line that spans chunks, so framing is
//! linear in the bytes pushed however long the chunks or the lines are.

use crate::stream::ByteStream;
use bytes::Bytes;
use std::collections::VecDeque;
use std::io;

/// Incremental newline framer.
///
/// Push chunks with [`LineBuffer::push_bytes`] (or [`LineBuffer::push`],
/// which copies), pop complete lines (including the trailing `\n`) with
/// [`LineBuffer::next_line`] or, borrowed, [`LineBuffer::next_line_ref`],
/// and flush any final unterminated line with [`LineBuffer::take_rest`].
#[derive(Default)]
pub struct LineBuffer {
    /// Unread input, oldest first; `pos` is the read offset into the front
    /// chunk. More than one chunk waits only if the caller pushes again
    /// before draining.
    chunks: VecDeque<Bytes>,
    pos: usize,
    /// The newline-free start of the line in progress, from chunks that
    /// ended before it did.
    carry: Vec<u8>,
    /// The last line that spanned chunks, assembled from `carry`.
    spanned: Vec<u8>,
}

/// Where [`LineBuffer::frame`] left the line it found.
enum Framed {
    /// This range of the front chunk.
    InChunk(usize, usize),
    /// `spanned`.
    Spanned,
}

impl LineBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        LineBuffer::default()
    }

    /// Appends a copy of `chunk`.
    pub fn push(&mut self, chunk: &[u8]) {
        self.push_bytes(Bytes::copy_from_slice(chunk));
    }

    /// Appends a chunk without copying it: lines that lie inside it come
    /// back as slices of it.
    pub fn push_bytes(&mut self, chunk: Bytes) {
        self.chunks.push_back(chunk);
    }

    /// Advances past the next complete line. A chunk without a newline
    /// left moves into `carry` here, so no byte is scanned twice.
    fn frame(&mut self) -> Option<Framed> {
        loop {
            let chunk = self.chunks.front()?;
            let start = self.pos;
            let Some(nl) = chunk[start..].iter().position(|&b| b == b'\n') else {
                self.carry.extend_from_slice(&chunk[start..]);
                self.chunks.pop_front();
                self.pos = 0;
                continue;
            };
            self.pos = start + nl + 1;
            if self.carry.is_empty() {
                return Some(Framed::InChunk(start, self.pos));
            }
            self.carry.extend_from_slice(&chunk[start..self.pos]);
            self.spanned.clear();
            std::mem::swap(&mut self.carry, &mut self.spanned);
            return Some(Framed::Spanned);
        }
    }

    /// Pops the next complete line (including `\n`), if one is buffered:
    /// an O(1) slice of the chunk it lies in.
    pub fn next_line(&mut self) -> Option<Bytes> {
        Some(match self.frame()? {
            Framed::InChunk(start, end) => self.chunks[0].slice(start..end),
            Framed::Spanned => Bytes::from(std::mem::take(&mut self.spanned)),
        })
    }

    /// [`LineBuffer::next_line`] for callers that only read the line: it
    /// stays where it is, borrowed until the next call.
    pub fn next_line_ref(&mut self) -> Option<&[u8]> {
        Some(match self.frame()? {
            Framed::InChunk(start, end) => &self.chunks[0][start..end],
            Framed::Spanned => &self.spanned,
        })
    }

    /// Returns everything still buffered — after `next_line` returned
    /// `None`, the final unterminated line — consuming it.
    pub fn take_rest(&mut self) -> Option<Bytes> {
        let mut rest = std::mem::take(&mut self.carry);
        for chunk in self.chunks.drain(..) {
            rest.extend_from_slice(&chunk[std::mem::take(&mut self.pos)..]);
        }
        (!rest.is_empty()).then(|| Bytes::from(rest))
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.carry.len() + self.chunks.iter().map(Bytes::len).sum::<usize>() - self.pos
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does nothing and need not be called: `next_line` never scans a byte
    /// twice. It stays because `perf/` calls it and is not allowed to change
    /// together with the crates it measures.
    pub fn mark_scanned(&mut self) {}
}

/// Splits a byte slice into lines (without trailing `\n`).
pub fn split_lines(data: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            out.push(&data[start..i]);
            start = i + 1;
        }
    }
    if start < data.len() {
        out.push(&data[start..]);
    }
    out
}

/// Calls `f` for every line of `stream` (lines include the trailing `\n`
/// except possibly the last). Stops early if `f` returns `Ok(false)`.
pub fn for_each_line(
    stream: &mut dyn ByteStream,
    mut f: impl FnMut(&[u8]) -> io::Result<bool>,
) -> io::Result<()> {
    let mut lb = LineBuffer::new();
    while let Some(chunk) = stream.next_chunk()? {
        lb.push_bytes(chunk);
        while let Some(line) = lb.next_line_ref() {
            if !f(line)? {
                return Ok(());
            }
        }
    }
    if let Some(rest) = lb.take_rest() {
        f(&rest)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MemStream;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn frames_lines_across_chunks() {
        let mut lb = LineBuffer::new();
        lb.push(b"hel");
        assert!(lb.next_line().is_none());
        lb.push(b"lo\nwor");
        assert_eq!(lb.next_line().unwrap(), Bytes::from_static(b"hello\n"));
        assert!(lb.next_line().is_none());
        lb.push(b"ld");
        assert_eq!(lb.take_rest().unwrap(), Bytes::from_static(b"world"));
    }

    #[test]
    fn split_lines_handles_edges() {
        assert_eq!(split_lines(b""), Vec::<&[u8]>::new());
        assert_eq!(split_lines(b"a"), vec![b"a" as &[u8]]);
        assert_eq!(split_lines(b"a\n"), vec![b"a" as &[u8]]);
        assert_eq!(split_lines(b"a\nb"), vec![b"a" as &[u8], b"b"]);
        assert_eq!(split_lines(b"\n\n"), vec![b"" as &[u8], b""]);
    }

    #[test]
    fn for_each_line_iterates_all() {
        let mut s = MemStream::from_chunks(vec![
            Bytes::from_static(b"one\ntw"),
            Bytes::from_static(b"o\nthree"),
        ]);
        let mut lines = Vec::new();
        for_each_line(&mut s, |l| {
            lines.push(String::from_utf8_lossy(l).into_owned());
            Ok(true)
        })
        .unwrap();
        assert_eq!(lines, vec!["one\n", "two\n", "three"]);
    }

    #[test]
    fn for_each_line_early_stop() {
        let mut s = MemStream::from_bytes("1\n2\n3\n");
        let mut n = 0;
        for_each_line(&mut s, |_| {
            n += 1;
            Ok(n < 2)
        })
        .unwrap();
        assert_eq!(n, 2);
    }

    /// Random text: empty, short and (now and then) very long lines, some
    /// ending `\r\n`, with or without a final newline.
    fn random_text(rng: &mut StdRng, lines: usize, long: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..lines {
            let len = match rng.random_range(0..10u32) {
                0 => 0,
                1 => rng.random_range(0..long),
                _ => rng.random_range(0..40usize),
            };
            out.extend((0..len).map(|_| b"ab \r\t\0\xff"[rng.random_range(0..7usize)]));
            if rng.random_range(0..4u32) == 0 {
                out.push(b'\r');
            }
            out.push(b'\n');
        }
        if rng.random_range(0..2u32) == 0 {
            out.pop();
        }
        out
    }

    /// A chunk size from one byte up to `max`, each power of 16 as likely.
    fn random_chunk_len(rng: &mut StdRng, max: usize) -> usize {
        let sizes = [1, 16, 256, 4096, 1 << 16, 1 << 20];
        let classes = sizes.iter().take_while(|&&c| c <= max).count();
        let class = sizes[rng.random_range(0..classes)];
        rng.random_range(0..class) + 1
    }

    #[test]
    fn random_chunkings_frame_what_split_lines_frames() {
        let mut spanning_three = 0;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Megabytes of text only where the chunks are large too.
            let (lines, long, max_chunk) = [
                (rng.random_range(0..3usize), 40, 16),
                (30, 2000, 256),
                (300, 200_000, 1 << 20),
            ][rng.random_range(0..3usize)];
            let data = random_text(&mut rng, lines, long);
            let one_size = rng.random_range(0..2u32) == 0;
            let size = random_chunk_len(&mut rng, max_chunk);

            let mut lb = LineBuffer::new();
            let mut framed: Vec<Vec<u8>> = Vec::new();
            let mut rest = &data[..];
            let mut popped = 0;
            let mut chunks_since_line = 0;
            while !rest.is_empty() {
                let n = if one_size {
                    size
                } else {
                    random_chunk_len(&mut rng, max_chunk)
                };
                let (chunk, tail) = rest.split_at(n.min(rest.len()));
                rest = tail;
                if rng.random_range(0..8u32) == 0 {
                    lb.push(b"");
                }
                if rng.random_range(0..2u32) == 0 {
                    lb.push(chunk);
                } else {
                    lb.push_bytes(Bytes::copy_from_slice(chunk));
                }
                chunks_since_line += 1;
                // Drain everything, a few lines, or nothing before the
                // next push, owned or borrowed.
                let mut budget = match rng.random_range(0..4u32) {
                    0 => 0,
                    1 => rng.random_range(0..4usize),
                    _ => usize::MAX,
                };
                while budget > 0 {
                    let line = if rng.random_range(0..2u32) == 0 {
                        lb.next_line().map(|l| l.to_vec())
                    } else {
                        lb.next_line_ref().map(<[u8]>::to_vec)
                    };
                    let Some(line) = line else {
                        lb.mark_scanned();
                        break;
                    };
                    if budget == usize::MAX && chunks_since_line >= 3 {
                        spanning_three += 1;
                    }
                    chunks_since_line = 1;
                    popped += line.len();
                    framed.push(line);
                    budget -= 1;
                }
                let buffered = data.len() - rest.len() - popped;
                assert_eq!(lb.len(), buffered, "seed {seed}");
                assert_eq!(lb.is_empty(), buffered == 0, "seed {seed}");
            }
            while let Some(line) = lb.next_line() {
                framed.push(line.to_vec());
            }
            assert!(framed.iter().all(|l| l.ends_with(b"\n")), "seed {seed}");
            framed.extend(lb.take_rest().map(|l| l.to_vec()));
            assert!(lb.is_empty() && lb.next_line().is_none() && lb.take_rest().is_none());

            assert_eq!(framed.concat(), data, "seed {seed}");
            let chomped: Vec<&[u8]> = framed
                .iter()
                .map(|l| l.strip_suffix(b"\n").unwrap_or(l))
                .collect();
            assert_eq!(chomped, split_lines(&data), "seed {seed}");
        }
        assert!(spanning_three > 0, "no line spanned three chunks");
    }

    #[test]
    fn mark_scanned_avoids_rescans_correctly() {
        let mut lb = LineBuffer::new();
        lb.push(b"abc");
        assert!(lb.next_line().is_none());
        lb.mark_scanned();
        lb.push(b"\n");
        assert_eq!(lb.next_line().unwrap(), Bytes::from_static(b"abc\n"));
    }
}
