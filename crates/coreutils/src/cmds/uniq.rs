//! `uniq` — filter adjacent duplicate lines.

use crate::util::{chomp, for_each_input_line, split_flags, write_stdout};
use crate::{UtilCtx, UtilIo};
use std::io;

/// Runs `uniq [-c] [-d] [-u] [file]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let (flags, files) = split_flags(args);
    let mut count = false;
    let mut only_dup = false;
    let mut only_unique = false;
    for f in flags {
        for c in f.chars().skip(1) {
            match c {
                'c' => count = true,
                'd' => only_dup = true,
                'u' => only_unique = true,
                _ => {
                    crate::util::write_stderr(io, &format!("uniq: unknown option -{c}\n"))?;
                    return Ok(2);
                }
            }
        }
    }

    let mut prev: Option<Vec<u8>> = None;
    let mut run_len = 0usize;
    // Collect output via closure state; flush pending group on change.
    let mut pending: Vec<(Vec<u8>, usize)> = Vec::new();
    let status = for_each_input_line(&files, io, ctx, |out, line| {
        let body = chomp(line).to_vec();
        match &prev {
            Some(p) if *p == body => run_len += 1,
            Some(p) => {
                pending.push((p.clone(), run_len));
                emit(out, &mut pending, count, only_dup, only_unique);
                prev = Some(body);
                run_len = 1;
            }
            None => {
                prev = Some(body);
                run_len = 1;
            }
        }
        Ok(true)
    })?;
    if let Some(p) = prev {
        pending.push((p, run_len));
        let mut out = Vec::new();
        emit(&mut out, &mut pending, count, only_dup, only_unique);
        write_stdout(io, &out)?;
    }
    Ok(status)
}

fn emit(
    out: &mut Vec<u8>,
    pending: &mut Vec<(Vec<u8>, usize)>,
    count: bool,
    only_dup: bool,
    only_unique: bool,
) {
    for (line, n) in pending.drain(..) {
        if only_dup && n < 2 {
            continue;
        }
        if only_unique && n > 1 {
            continue;
        }
        if count {
            out.extend_from_slice(format!("{n:>7} ").as_bytes());
        }
        out.extend_from_slice(&line);
        out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn uniq(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        String::from_utf8(run_on_bytes(&ctx, "uniq", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn collapses_adjacent() {
        assert_eq!(uniq(&[], b"a\na\nb\na\n"), "a\nb\na\n");
    }

    #[test]
    fn counts() {
        assert_eq!(uniq(&["-c"], b"a\na\nb\n"), "      2 a\n      1 b\n");
    }

    #[test]
    fn duplicates_only() {
        assert_eq!(uniq(&["-d"], b"a\na\nb\nc\nc\n"), "a\nc\n");
    }

    #[test]
    fn uniques_only() {
        assert_eq!(uniq(&["-u"], b"a\na\nb\nc\nc\n"), "b\n");
    }

    #[test]
    fn empty_input() {
        assert_eq!(uniq(&[], b""), "");
    }

    #[test]
    fn single_line() {
        assert_eq!(uniq(&["-c"], b"only\n"), "      1 only\n");
    }
}
