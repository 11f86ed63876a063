//! `fold` — wrap lines to a fixed width.

use crate::util::{chomp, for_each_input_line};
use crate::{UtilCtx, UtilIo};
use std::io;

/// Runs `fold [-w width] [file...]` (default width 80).
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut width = 80usize;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-w") {
            let v = if rest.is_empty() {
                i += 1;
                args.get(i).cloned().unwrap_or_default()
            } else {
                rest.to_string()
            };
            match v.parse() {
                Ok(w) if w > 0 => width = w,
                _ => {
                    crate::util::write_stderr(io, "fold: invalid width\n")?;
                    return Ok(2);
                }
            }
        } else {
            files.push(a.clone());
        }
        i += 1;
    }
    for_each_input_line(&files, io, ctx, |out, line| {
        for (i, b) in chomp(line).iter().enumerate() {
            if i > 0 && i % width == 0 {
                out.push(b'\n');
            }
            out.push(*b);
        }
        out.push(b'\n');
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn fold(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        String::from_utf8(run_on_bytes(&ctx, "fold", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn wraps_at_width() {
        assert_eq!(fold(&["-w", "3"], b"abcdefgh\n"), "abc\ndef\ngh\n");
        assert_eq!(fold(&["-w3"], b"ab\n"), "ab\n");
    }

    #[test]
    fn exact_multiple() {
        assert_eq!(fold(&["-w", "2"], b"abcd\n"), "ab\ncd\n");
    }
}
