//! `head` — output the first lines (or bytes) of input.
//!
//! `head` is the canonical *prefix-only* consumer in the dataflow model:
//! it stops reading once satisfied, which upstream stages observe as a
//! closed pipe.

use crate::util::{for_each_input_line, write_stderr};
use crate::{UtilCtx, UtilIo};
use std::io;

/// Runs `head [-n N | -c N] [file...]`. Also accepts historical `-N`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut lines: u64 = 10;
    let mut bytes_mode: Option<u64> = None;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-n") {
            let v = if rest.is_empty() {
                i += 1;
                args.get(i).cloned().unwrap_or_default()
            } else {
                rest.to_string()
            };
            match v.parse() {
                Ok(n) => lines = n,
                Err(_) => {
                    write_stderr(io, &format!("head: invalid line count `{v}`\n"))?;
                    return Ok(2);
                }
            }
        } else if let Some(rest) = a.strip_prefix("-c") {
            let v = if rest.is_empty() {
                i += 1;
                args.get(i).cloned().unwrap_or_default()
            } else {
                rest.to_string()
            };
            match v.parse() {
                Ok(n) => bytes_mode = Some(n),
                Err(_) => {
                    write_stderr(io, &format!("head: invalid byte count `{v}`\n"))?;
                    return Ok(2);
                }
            }
        } else if a.starts_with('-') && a.len() > 1 && a[1..].chars().all(|c| c.is_ascii_digit())
        {
            lines = a[1..].parse().unwrap_or(10);
        } else if a == "--" {
            files.extend(args[i + 1..].iter().cloned());
            break;
        } else {
            files.push(a.clone());
        }
        i += 1;
    }

    if let Some(limit) = bytes_mode {
        let mut remaining = limit;
        if files.is_empty() {
            while remaining > 0 {
                let Some(chunk) = io.stdin.next_chunk()? else {
                    break;
                };
                let take = chunk.len().min(remaining as usize);
                io.stdout.write_chunk(chunk.slice(..take))?;
                remaining -= take as u64;
            }
        } else {
            for f in &files {
                let mut h = ctx.fs.open_read(&ctx.resolve(f))?;
                while remaining > 0 {
                    let Some(chunk) = h.read_chunk(jash_io::DEFAULT_CHUNK)? else {
                        break;
                    };
                    let take = chunk.len().min(remaining as usize);
                    io.stdout.write_chunk(chunk.slice(..take))?;
                    remaining -= take as u64;
                }
            }
        }
        return Ok(0);
    }

    if lines == 0 {
        return Ok(0);
    }
    let mut seen = 0u64;
    for_each_input_line(&files, io, ctx, |out, line| {
        seen += 1;
        out.extend_from_slice(line);
        if !line.ends_with(b"\n") {
            out.push(b'\n');
        }
        Ok(seen < lines)
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn head(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        String::from_utf8(run_on_bytes(&ctx, "head", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn default_ten() {
        let input: String = (1..=20).map(|i| format!("{i}\n")).collect();
        let out = head(&[], input.as_bytes());
        assert_eq!(out.lines().count(), 10);
        assert!(out.starts_with("1\n"));
    }

    #[test]
    fn n_flag_variants() {
        assert_eq!(head(&["-n", "2"], b"a\nb\nc\n"), "a\nb\n");
        assert_eq!(head(&["-n2"], b"a\nb\nc\n"), "a\nb\n");
        assert_eq!(head(&["-2"], b"a\nb\nc\n"), "a\nb\n");
        // The paper's `head -n1`.
        assert_eq!(head(&["-n1"], b"0100\n0042\n"), "0100\n");
    }

    #[test]
    fn byte_mode() {
        assert_eq!(head(&["-c", "3"], b"abcdef"), "abc");
    }

    #[test]
    fn zero_lines() {
        assert_eq!(head(&["-n", "0"], b"a\n"), "");
    }

    #[test]
    fn fewer_lines_than_requested() {
        assert_eq!(head(&["-n", "5"], b"a\nb\n"), "a\nb\n");
    }
}
