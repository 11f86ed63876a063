//! `nl` — number lines.

use crate::util::for_each_input_line;
use crate::{UtilCtx, UtilIo};
use std::io;

/// Runs `nl [-ba] [file...]`. `-ba` (number all lines) is the default
/// here; `-bt` (skip empty lines) is also accepted.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut skip_empty = false;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "-ba" {
            skip_empty = false;
        } else if a == "-bt" {
            skip_empty = true;
        } else if a == "-b" {
            i += 1;
            skip_empty = args.get(i).map(|v| v == "t").unwrap_or(false);
        } else {
            files.push(a.clone());
        }
        i += 1;
    }
    let mut n = 0u64;
    for_each_input_line(&files, io, ctx, |out, line| {
        let body = crate::util::chomp(line);
        if !(skip_empty && body.is_empty()) {
            n += 1;
            out.extend_from_slice(format!("{n:>6}\t").as_bytes());
            out.extend_from_slice(body);
        }
        out.push(b'\n');
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    #[test]
    fn numbers_lines() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (_, out, _) = run_on_bytes(&ctx, "nl", &[], b"a\nb\n").unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "     1\ta\n     2\tb\n");
    }

    #[test]
    fn skip_empty_with_bt() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (_, out, _) = run_on_bytes(&ctx, "nl", &["-bt"], b"a\n\nb\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("1\ta"));
        assert!(text.contains("2\tb"));
    }
}
