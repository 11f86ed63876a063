//! Shared helpers for utility implementations.

use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use jash_io::fs::FileStream;
use jash_io::{ByteStream, LineBuffer, Sink};
use std::io;

/// Writes a diagnostic to stderr.
pub fn write_stderr(io: &mut UtilIo<'_>, msg: &str) -> io::Result<()> {
    io.stderr.write_chunk(Bytes::copy_from_slice(msg.as_bytes()))
}

/// Writes text to stdout.
pub fn write_stdout(io: &mut UtilIo<'_>, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    io.stdout.write_chunk(Bytes::copy_from_slice(data))
}

/// The input source for a utility: the file operands, or stdin.
pub enum Input<'a> {
    /// Read from the provided stdin stream.
    Stdin(&'a mut dyn ByteStream),
    /// Read the named files in order (with `-` mapping to stdin, which may
    /// be consumed at most once).
    Files(Vec<String>),
}

/// Iterates every input chunk from `files` (or stdin when empty),
/// resolving paths against the context.
pub fn for_each_input_chunk(
    files: &[String],
    io: &mut UtilIo<'_>,
    ctx: &UtilCtx,
    mut f: impl FnMut(&mut dyn Sink, Bytes) -> io::Result<()>,
) -> io::Result<i32> {
    if files.is_empty() {
        while let Some(chunk) = io.stdin.next_chunk()? {
            f(io.stdout, chunk)?;
        }
        return Ok(0);
    }
    let mut status = 0;
    for file in files {
        if file == "-" {
            while let Some(chunk) = io.stdin.next_chunk()? {
                f(io.stdout, chunk)?;
            }
            continue;
        }
        match FileStream::open(ctx.fs.as_ref(), &ctx.resolve(file)) {
            Ok(mut s) => {
                while let Some(chunk) = s.next_chunk()? {
                    f(io.stdout, chunk)?;
                }
            }
            Err(e) => {
                write_stderr(io, &format!("{file}: {e}\n"))?;
                status = 1;
            }
        }
    }
    Ok(status)
}

/// Calls `f` for every input line (newline included except possibly on the
/// final line). Reads the file operands, or stdin when none are given.
/// What `f` appends to its buffer is written out once per input chunk,
/// when that chunk's lines are exhausted — one write for the lines that
/// arrived together, and none held back while waiting for more input.
/// Returns nonzero if any file failed to open.
pub fn for_each_input_line(
    files: &[String],
    io: &mut UtilIo<'_>,
    ctx: &UtilCtx,
    mut f: impl FnMut(&mut Vec<u8>, &[u8]) -> io::Result<bool>,
) -> io::Result<i32> {
    let mut lb = LineBuffer::new();
    let mut status = 0;
    let mut done = false;

    let mut feed = |lb: &mut LineBuffer,
                    stdout: &mut dyn Sink,
                    chunk: Bytes,
                    done: &mut bool|
     -> io::Result<()> {
        let mut out = Vec::new();
        lb.push_bytes(chunk);
        while let Some(line) = lb.next_line_ref() {
            if !f(&mut out, line)? {
                *done = true;
                break;
            }
        }
        if !out.is_empty() {
            stdout.write_chunk(Bytes::from(out))?;
        }
        Ok(())
    };

    if files.is_empty() {
        while let Some(chunk) = io.stdin.next_chunk()? {
            feed(&mut lb, io.stdout, chunk, &mut done)?;
            if done {
                break;
            }
        }
    } else {
        'outer: for file in files {
            if file == "-" {
                while let Some(chunk) = io.stdin.next_chunk()? {
                    feed(&mut lb, io.stdout, chunk, &mut done)?;
                    if done {
                        break 'outer;
                    }
                }
                continue;
            }
            match FileStream::open(ctx.fs.as_ref(), &ctx.resolve(file)) {
                Ok(mut s) => {
                    while let Some(chunk) = s.next_chunk()? {
                        feed(&mut lb, io.stdout, chunk, &mut done)?;
                        if done {
                            break 'outer;
                        }
                    }
                }
                Err(e) => {
                    write_stderr(io, &format!("{file}: {e}\n"))?;
                    status = 1;
                }
            }
        }
    }
    if !done {
        if let Some(rest) = lb.take_rest() {
            let mut out = Vec::new();
            f(&mut out, &rest)?;
            write_stdout(io, &out)?;
        }
    }
    Ok(status)
}

/// Reads all input (files or stdin) into one buffer. Used by utilities
/// that are inherently blocking (`sort`, `tac`, `shuf`).
pub fn read_all_input(files: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    if files.is_empty() {
        while let Some(chunk) = io.stdin.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        return Ok(out);
    }
    for file in files {
        if file == "-" {
            while let Some(chunk) = io.stdin.next_chunk()? {
                out.extend_from_slice(&chunk);
            }
        } else {
            let mut h = ctx.fs.open_read(&ctx.resolve(file))?;
            while let Some(chunk) = h.read_chunk(jash_io::DEFAULT_CHUNK)? {
                out.extend_from_slice(&chunk);
            }
        }
    }
    Ok(out)
}

/// Strips one trailing newline, if present.
pub fn chomp(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\n') => &line[..line.len() - 1],
        _ => line,
    }
}

/// Splits `args` into `(flags..., operands...)` where flag parsing stops at
/// the first non-flag or `--`.
pub fn split_flags(args: &[String]) -> (Vec<&str>, Vec<String>) {
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--" {
            i += 1;
            break;
        }
        if a.starts_with('-') && a.len() > 1 {
            flags.push(a.as_str());
            i += 1;
        } else {
            break;
        }
    }
    (flags, args[i..].to_vec())
}

/// GNU-style numeric comparison for `sort -n`: leading blanks, optional
/// sign, digits, optional fraction. Non-numbers compare as 0.
pub fn numeric_key(line: &[u8]) -> f64 {
    let s = String::from_utf8_lossy(line);
    let t = s.trim_start();
    let mut end = 0;
    let bytes = t.as_bytes();
    if end < bytes.len() && (bytes[end] == b'-' || bytes[end] == b'+') {
        end += 1;
    }
    let mut seen_dot = false;
    while end < bytes.len()
        && (bytes[end].is_ascii_digit() || (bytes[end] == b'.' && !seen_dot))
    {
        if bytes[end] == b'.' {
            seen_dot = true;
        }
        end += 1;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

/// Parses a ranged list like `1,3-5,7-` (used by `cut`).
/// Returns half-open `(start, end)` pairs, 0-based; `usize::MAX` = open end.
pub fn parse_ranges(list: &str) -> Option<Vec<(usize, usize)>> {
    let mut out = Vec::new();
    for part in list.split(',') {
        if part.is_empty() {
            return None;
        }
        if let Some((a, b)) = part.split_once('-') {
            let start = if a.is_empty() {
                1
            } else {
                a.parse::<usize>().ok()?
            };
            let end = if b.is_empty() {
                usize::MAX
            } else {
                b.parse::<usize>().ok()?
            };
            if start == 0 || (end != usize::MAX && end < start) {
                return None;
            }
            out.push((start - 1, end));
        } else {
            let n = part.parse::<usize>().ok()?;
            if n == 0 {
                return None;
            }
            out.push((n - 1, n));
        }
    }
    Some(out)
}

/// Whether the (0-based) index is inside any range.
pub fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges.iter().any(|&(s, e)| idx >= s && idx < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chomp_strips_newline() {
        assert_eq!(chomp(b"abc\n"), b"abc");
        assert_eq!(chomp(b"abc"), b"abc");
        assert_eq!(chomp(b"\n"), b"");
    }

    #[test]
    fn split_flags_stops_at_operand() {
        let args: Vec<String> = ["-a", "-b", "file", "-c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (flags, ops) = split_flags(&args);
        assert_eq!(flags, vec!["-a", "-b"]);
        assert_eq!(ops, vec!["file", "-c"]);
    }

    #[test]
    fn split_flags_double_dash() {
        let args: Vec<String> = ["-x", "--", "-notaflag"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (flags, ops) = split_flags(&args);
        assert_eq!(flags, vec!["-x"]);
        assert_eq!(ops, vec!["-notaflag"]);
    }

    #[test]
    fn numeric_keys() {
        assert_eq!(numeric_key(b"42"), 42.0);
        assert_eq!(numeric_key(b"  -3.5xyz"), -3.5);
        assert_eq!(numeric_key(b"abc"), 0.0);
        assert_eq!(numeric_key(b"+7"), 7.0);
    }

    #[test]
    fn ranges_parse() {
        assert_eq!(parse_ranges("1").unwrap(), vec![(0, 1)]);
        assert_eq!(parse_ranges("2-4").unwrap(), vec![(1, 4)]);
        assert_eq!(parse_ranges("3-").unwrap(), vec![(2, usize::MAX)]);
        assert_eq!(parse_ranges("-2").unwrap(), vec![(0, 2)]);
        assert_eq!(
            parse_ranges("1,3-5").unwrap(),
            vec![(0, 1), (2, 5)]
        );
        assert!(parse_ranges("0").is_none());
        assert!(parse_ranges("5-3").is_none());
        assert!(parse_ranges("x").is_none());
    }

    #[test]
    fn range_membership() {
        let r = parse_ranges("1,3-5").unwrap();
        assert!(in_ranges(&r, 0));
        assert!(!in_ranges(&r, 1));
        assert!(in_ranges(&r, 2));
        assert!(in_ranges(&r, 4));
        assert!(!in_ranges(&r, 5));
    }
}
