//! `wc` — count lines, words, and bytes.

use crate::util::write_stderr;
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

#[derive(Default, Clone, Copy)]
struct Counts {
    lines: u64,
    words: u64,
    bytes: u64,
}

/// Runs `wc [-lwcm] [file...]`. `-` reads standard input. With multiple
/// files a `total` row is printed, like the real tool.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let (flags, files) = crate::util::split_flags(args);
    let mut show_lines = false;
    let mut show_words = false;
    let mut show_bytes = false;
    for f in flags {
        for c in f.chars().skip(1) {
            match c {
                'l' => show_lines = true,
                'w' => show_words = true,
                'c' | 'm' => show_bytes = true,
                other => {
                    write_stderr(io, &format!("wc: unknown option -{other}\n"))?;
                    return Ok(2);
                }
            }
        }
    }
    if !(show_lines || show_words || show_bytes) {
        show_lines = true;
        show_words = true;
        show_bytes = true;
    }

    let mut total = Counts::default();
    let mut status = 0;

    let report = |io: &mut UtilIo<'_>, c: Counts, name: Option<&str>| -> io::Result<()> {
        let mut cols = Vec::new();
        if show_lines {
            cols.push(c.lines.to_string());
        }
        if show_words {
            cols.push(c.words.to_string());
        }
        if show_bytes {
            cols.push(c.bytes.to_string());
        }
        let mut line = cols
            .iter()
            .map(|c| format!("{c:>7}"))
            .collect::<Vec<_>>()
            .join(" ");
        if cols.len() == 1 {
            line = cols[0].clone();
        }
        if let Some(n) = name {
            line.push(' ');
            line.push_str(n);
        }
        line.push('\n');
        io.stdout.write_chunk(Bytes::from(line))
    };

    // No operands: count stdin and print no name.
    let unnamed = files.is_empty();
    let files = if unnamed {
        vec!["-".to_string()]
    } else {
        files
    };
    for f in &files {
        let mut c = Counts::default();
        let mut in_word = false;
        if f == "-" {
            while let Some(chunk) = io.stdin.next_chunk()? {
                count_chunk(&chunk, &mut c, &mut in_word);
            }
        } else {
            match ctx.fs.open_read(&ctx.resolve(f)) {
                Ok(mut h) => {
                    while let Some(chunk) = h.read_chunk(jash_io::DEFAULT_CHUNK)? {
                        count_chunk(&chunk, &mut c, &mut in_word);
                    }
                }
                Err(e) => {
                    write_stderr(io, &format!("wc: {f}: {e}\n"))?;
                    status = 1;
                    continue;
                }
            }
        }
        total.lines += c.lines;
        total.words += c.words;
        total.bytes += c.bytes;
        report(io, c, (!unnamed).then_some(f.as_str()))?;
    }
    if files.len() > 1 {
        report(io, total, Some("total"))?;
    }
    Ok(status)
}

fn count_chunk(chunk: &[u8], c: &mut Counts, in_word: &mut bool) {
    c.bytes += chunk.len() as u64;
    for &b in chunk {
        if b == b'\n' {
            c.lines += 1;
        }
        if b.is_ascii_whitespace() {
            *in_word = false;
        } else if !*in_word {
            *in_word = true;
            c.words += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn wc(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        String::from_utf8(run_on_bytes(&ctx, "wc", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn line_count() {
        assert_eq!(wc(&["-l"], b"a\nb\nc\n"), "3\n");
        assert_eq!(wc(&["-l"], b"no newline"), "0\n");
    }

    #[test]
    fn word_count() {
        assert_eq!(wc(&["-w"], b"one two  three\nfour\n"), "4\n");
    }

    #[test]
    fn byte_count() {
        assert_eq!(wc(&["-c"], b"12345"), "5\n");
    }

    #[test]
    fn default_shows_all_three() {
        let out = wc(&[], b"one two\n");
        let nums: Vec<&str> = out.split_whitespace().collect();
        assert_eq!(nums, vec!["1", "2", "8"]);
    }

    #[test]
    fn multiple_files_with_total() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        jash_io::fs::write_file(ctx.fs.as_ref(), "/a", b"x\n").unwrap();
        jash_io::fs::write_file(ctx.fs.as_ref(), "/b", b"y\nz\n").unwrap();
        let (_, out, _) = run_on_bytes(&ctx, "wc", &["-l", "/a", "/b"], b"").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("1 /a"));
        assert!(text.contains("2 /b"));
        assert!(text.contains("3 total"));
    }

    #[test]
    fn dash_reads_stdin() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        jash_io::fs::write_file(ctx.fs.as_ref(), "/a", b"x\n").unwrap();
        let (st, out, err) = run_on_bytes(&ctx, "wc", &["-l", "-"], b"y\nz\n").unwrap();
        assert_eq!(
            (st, String::from_utf8(out).unwrap()),
            (0, "2 -\n".to_string())
        );
        assert!(err.is_empty());
        let (_, out, _) = run_on_bytes(&ctx, "wc", &["-l", "/a", "-"], b"y\nz\n").unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "1 /a\n2 -\n3 total\n");
    }
}
