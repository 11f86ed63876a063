//! `cut` — select character columns or delimited fields.

use crate::kernel::{CutMode, CutOp, LineOp};
use crate::util::{chomp, for_each_input_line, parse_ranges, write_stderr};
use crate::{UtilCtx, UtilIo};
use std::io;

/// Runs `cut -c LIST | -b LIST | -f LIST [-d DELIM] [-s] [file...]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let (mut op, files) = match parse(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            write_stderr(io, &format!("cut: {msg}\n"))?;
            return Ok(2);
        }
    };
    for_each_input_line(&files, io, ctx, |out, line| {
        Ok(op.line(chomp(line), true, out))
    })
}

/// Parses an argument vector into the per-line op and the file
/// operands, or returns the diagnostic `cut` prints for it.
pub(crate) fn parse(args: &[String]) -> Result<(CutOp, Vec<String>), String> {
    let mut list: Option<String> = None;
    let mut field_mode = false;
    let mut delim = b'\t';
    let mut suppress = false;
    let mut files = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-c").or_else(|| a.strip_prefix("-b")) {
            list = Some(if rest.is_empty() {
                i += 1;
                args.get(i).cloned().unwrap_or_default()
            } else {
                rest.to_string()
            });
            field_mode = false;
        } else if let Some(rest) = a.strip_prefix("-f") {
            list = Some(if rest.is_empty() {
                i += 1;
                args.get(i).cloned().unwrap_or_default()
            } else {
                rest.to_string()
            });
            field_mode = true;
        } else if let Some(rest) = a.strip_prefix("-d") {
            let d = if rest.is_empty() {
                i += 1;
                args.get(i).cloned().unwrap_or_default()
            } else {
                rest.to_string()
            };
            delim = d.bytes().next().unwrap_or(b'\t');
        } else if a == "-s" {
            suppress = true;
        } else if a == "--" {
            files.extend(args[i + 1..].iter().cloned());
            break;
        } else if a.starts_with('-') && a.len() > 1 {
            return Err(format!("unknown option {a}"));
        } else {
            files.push(a.clone());
        }
        i += 1;
    }

    let list = list.ok_or("you must specify a list of characters or fields")?;
    let ranges = parse_ranges(&list).ok_or("invalid list")?;
    let mode = if field_mode {
        CutMode::Fields {
            ranges,
            delim,
            suppress_undelimited: suppress,
        }
    } else {
        CutMode::Chars(ranges)
    };
    Ok((CutOp { mode }, files))
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn cut(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        String::from_utf8(run_on_bytes(&ctx, "cut", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn char_ranges() {
        assert_eq!(cut(&["-c", "1-3"], b"abcdef\n"), "abc\n");
        assert_eq!(cut(&["-c", "2,4"], b"abcdef\n"), "bd\n");
        assert_eq!(cut(&["-c", "4-"], b"abcdef\n"), "def\n");
    }

    #[test]
    fn temperature_columns() {
        // The paper's `cut -c 89-92` over a fixed-width record.
        let mut line = vec![b'x'; 100];
        line[88..92].copy_from_slice(b"0042");
        line.push(b'\n');
        assert_eq!(cut(&["-c", "89-92"], &line), "0042\n");
    }

    #[test]
    fn short_lines_yield_partial() {
        assert_eq!(cut(&["-c", "1-10"], b"ab\n"), "ab\n");
    }

    #[test]
    fn fields_default_tab() {
        assert_eq!(cut(&["-f", "2"], b"a\tb\tc\n"), "b\n");
    }

    #[test]
    fn fields_custom_delim() {
        assert_eq!(cut(&["-d", ":", "-f", "1,3"], b"a:b:c\n"), "a:c\n");
        assert_eq!(cut(&["-d:", "-f2-"], b"a:b:c\n"), "b:c\n");
    }

    #[test]
    fn undelimited_lines() {
        assert_eq!(cut(&["-d:", "-f2"], b"nodelim\n"), "nodelim\n");
        assert_eq!(cut(&["-d:", "-f2", "-s"], b"nodelim\nyes:x\n"), "x\n");
    }

    #[test]
    fn missing_list_is_error() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (st, _, _) = run_on_bytes(&ctx, "cut", &[], b"").unwrap();
        assert_eq!(st, 2);
    }
}
