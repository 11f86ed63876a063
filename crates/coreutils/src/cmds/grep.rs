//! `grep` — search lines by regular expression.

use crate::kernel::{GrepOp, LineOp};
use crate::regex::{Flavor, Regex};
use crate::util::{chomp, for_each_input_line, write_stderr};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

/// A parsed `grep` invocation: the per-line op plus what only the
/// standalone command implements.
pub struct Grep {
    pub(crate) op: GrepOp,
    /// `-c`: print the number of selected lines instead of the lines.
    pub count_only: bool,
    /// `-q`: print nothing and stop at the first selected line.
    pub quiet: bool,
    /// `-m N`: stop after N selected lines.
    pub max_count: Option<u64>,
    /// Indices into the argument vector of the file operands.
    pub files: Vec<usize>,
}

impl Grep {
    /// `-n`: prefix each selected line with its input line number.
    pub fn line_numbers(&self) -> bool {
        self.op.line_numbers
    }
}

/// Runs `grep [-vcinqEF] [-m N] [-e pattern] pattern [file...]`.
///
/// Exit status: 0 if any line matched, 1 if none, 2 on errors — scripts
/// rely on this (`if grep -q ...`).
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let Grep {
        mut op,
        count_only,
        quiet,
        max_count,
        files,
    } = match parse(args) {
        Ok(grep) => grep,
        Err(msg) => {
            write_stderr(io, &format!("grep: {msg}\n"))?;
            return Ok(2);
        }
    };

    let files: Vec<String> = files.into_iter().map(|i| args[i].clone()).collect();
    let status = for_each_input_line(&files, io, ctx, |out, line| {
        let body = chomp(line);
        if op.hit(body) {
            if quiet {
                return Ok(false);
            }
            if !count_only {
                op.emit(body, out);
            }
            if max_count.is_some_and(|m| op.matched >= m) {
                return Ok(false);
            }
        }
        Ok(true)
    })?;
    if count_only && !quiet {
        io.stdout
            .write_chunk(Bytes::from(format!("{}\n", op.matched)))?;
    }
    if status != 0 {
        return Ok(2);
    }
    Ok(op.status())
}

/// Parses an argument vector, or returns the diagnostic `grep` prints
/// for it.
pub fn parse(args: &[String]) -> Result<Grep, String> {
    let mut invert = false;
    let mut count_only = false;
    let mut icase = false;
    let mut line_numbers = false;
    let mut quiet = false;
    let mut flavor = Flavor::Bre;
    let mut fixed = false;
    let mut max_count: Option<u64> = None;
    let mut pattern: Option<String> = None;
    let mut files = Vec::new();

    let mut i = 0;
    let mut no_more_flags = false;
    while i < args.len() {
        let a = &args[i];
        if no_more_flags || !a.starts_with('-') || a == "-" {
            if pattern.is_none() {
                pattern = Some(a.clone());
            } else {
                files.push(i);
            }
            i += 1;
            continue;
        }
        if a == "--" {
            no_more_flags = true;
            i += 1;
            continue;
        }
        if a == "-e" {
            i += 1;
            pattern = Some(args.get(i).ok_or("option -e requires an argument")?.clone());
            i += 1;
            continue;
        }
        if a == "-m" {
            i += 1;
            let count = args.get(i).and_then(|v| v.parse().ok());
            max_count = Some(count.ok_or("bad -m argument")?);
            i += 1;
            continue;
        }
        for c in a.chars().skip(1) {
            match c {
                'v' => invert = true,
                'c' => count_only = true,
                'i' => icase = true,
                'n' => line_numbers = true,
                'q' => quiet = true,
                'E' => flavor = Flavor::Ere,
                'F' => fixed = true,
                other => return Err(format!("unknown option -{other}")),
            }
        }
        i += 1;
    }

    let pattern = pattern.ok_or("missing pattern")?;
    let re = if fixed {
        Regex::fixed(&pattern, icase)
    } else {
        Regex::new(&pattern, flavor, icase).map_err(|e| e.to_string())?
    };
    Ok(Grep {
        op: GrepOp {
            re,
            invert,
            line_numbers,
            lineno: 0,
            matched: 0,
        },
        count_only,
        quiet,
        max_count,
        files,
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn ctx() -> UtilCtx {
        UtilCtx::new(jash_io::mem_fs())
    }

    fn grep(args: &[&str], input: &[u8]) -> (i32, String) {
        let (st, out, _) = run_on_bytes(&ctx(), "grep", args, input).unwrap();
        (st, String::from_utf8(out).unwrap())
    }

    #[test]
    fn basic_match() {
        let (st, out) = grep(&["ell"], b"hello\nworld\nbell\n");
        assert_eq!(st, 0);
        assert_eq!(out, "hello\nbell\n");
    }

    #[test]
    fn no_match_exit_1() {
        let (st, out) = grep(&["zzz"], b"a\nb\n");
        assert_eq!(st, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn invert() {
        let (_, out) = grep(&["-v", "999"], b"0042\n9991\n0100\n");
        assert_eq!(out, "0042\n0100\n");
    }

    #[test]
    fn count() {
        let (st, out) = grep(&["-c", "a"], b"abc\nxyz\nalso\n");
        assert_eq!(st, 0);
        assert_eq!(out, "2\n");
    }

    #[test]
    fn quiet_stops_early() {
        let (st, out) = grep(&["-q", "a"], b"a\nb\n");
        assert_eq!(st, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn line_numbers() {
        let (_, out) = grep(&["-n", "b"], b"a\nb\ncb\n");
        assert_eq!(out, "2:b\n3:cb\n");
    }

    #[test]
    fn case_insensitive() {
        let (_, out) = grep(&["-i", "hello"], b"HELLO\nbye\n");
        assert_eq!(out, "HELLO\n");
    }

    #[test]
    fn ere_alternation() {
        let (_, out) = grep(&["-E", "cat|dog"], b"cat\ncow\ndog\n");
        assert_eq!(out, "cat\ndog\n");
    }

    #[test]
    fn fixed_string() {
        let (_, out) = grep(&["-F", "a.c"], b"a.c\nabc\n");
        assert_eq!(out, "a.c\n");
    }

    #[test]
    fn max_count() {
        let (_, out) = grep(&["-m", "2", "a"], b"a1\na2\na3\n");
        assert_eq!(out, "a1\na2\n");
    }

    #[test]
    fn anchored() {
        let (_, out) = grep(&["^b"], b"abc\nbcd\n");
        assert_eq!(out, "bcd\n");
    }

    #[test]
    fn file_operands() {
        let c = ctx();
        jash_io::fs::write_file(c.fs.as_ref(), "/f", b"match-me\nskip\n").unwrap();
        let (st, out, _) = run_on_bytes(&c, "grep", &["match", "/f"], b"").unwrap();
        assert_eq!(st, 0);
        assert_eq!(out, b"match-me\n");
    }

    #[test]
    fn bad_pattern_exit_2() {
        let (st, _) = grep(&["[unclosed"], b"x\n");
        assert_eq!(st, 2);
    }
}
