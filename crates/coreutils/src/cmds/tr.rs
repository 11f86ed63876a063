//! `tr` — translate, squeeze, or delete characters.
//!
//! Supports the invocations the paper's pipelines rely on (`tr A-Z a-z`,
//! `tr -cs A-Za-z '\n'`) plus `-d`: ranges, `[:classes:]`, and the
//! `\n`/`\t`/`\\` escapes.

use crate::kernel::{ChunkOp, TrOp};
use crate::util::{split_flags, write_stderr};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

/// Runs `tr [-c] [-d] [-s] SET1 [SET2]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, _ctx: &UtilCtx) -> io::Result<i32> {
    let mut op = match parse(args) {
        Ok(op) => op,
        Err(msg) => {
            write_stderr(io, &format!("tr: {msg}\n"))?;
            return Ok(2);
        }
    };
    while let Some(chunk) = io.stdin.next_chunk()? {
        let mut out = Vec::with_capacity(chunk.len());
        op.chunk(&chunk, &mut out);
        if !out.is_empty() {
            io.stdout.write_chunk(Bytes::from(out))?;
        }
    }
    Ok(0)
}

/// Builds the op for an argument vector, or the diagnostic `tr` prints
/// for it.
pub(crate) fn parse(args: &[String]) -> Result<TrOp, String> {
    let (flags, operands) = split_flags(args);
    let mut complement = false;
    let mut delete = false;
    let mut squeeze = false;
    for f in flags {
        for c in f.chars().skip(1) {
            match c {
                'c' | 'C' => complement = true,
                'd' => delete = true,
                's' => squeeze = true,
                other => return Err(format!("unknown option -{other}")),
            }
        }
    }

    let set1 = expand_set(operands.first().ok_or("missing operand")?);
    let set2 = operands.get(1).map(|s| expand_set(s));

    // Membership table for SET1 (with optional complement).
    let mut member = [false; 256];
    for &b in &set1 {
        member[b as usize] = true;
    }
    if complement {
        for m in member.iter_mut() {
            *m = !*m;
        }
    }

    // Translation table.
    let mut xlate: [u8; 256] = std::array::from_fn(|i| i as u8);
    if let (Some(set2), false) = (&set2, delete) {
        let &last = set2.last().ok_or("SET2 must not be empty")?;
        if complement {
            // POSIX: with -c, every complemented byte maps to the last
            // element of SET2 (the common `tr -cs A-Za-z '\n'` case).
            for (i, m) in member.iter().enumerate() {
                if *m {
                    xlate[i] = last;
                }
            }
        } else {
            for (i, &from) in set1.iter().enumerate() {
                // SET2 shorter than SET1 extends with its last element.
                xlate[from as usize] = set2.get(i).copied().unwrap_or(last);
            }
        }
    }

    let mut squeeze_set = [false; 256];
    if squeeze {
        // Squeeze applies to SET2 when translating, else to SET1.
        match (&set2, delete) {
            (Some(s2), false) => {
                for &b in s2 {
                    squeeze_set[b as usize] = true;
                }
            }
            _ => squeeze_set = member,
        }
    }

    Ok(TrOp {
        delete_set: if delete { member } else { [false; 256] },
        xlate,
        squeeze_set,
        translate_only: !delete && !squeeze,
        last_out: None,
    })
}

/// Expands a set operand: escapes, ranges, and `[:class:]` members.
///
/// Public because the specification layer (`jash-spec`) needs the squeeze
/// set to build boundary aggregators.
pub fn expand_set(spec: &str) -> Vec<u8> {
    let bytes = spec.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // [:class:]
        if bytes[i] == b'[' && bytes.get(i + 1) == Some(&b':') {
            if let Some(end) = spec[i + 2..].find(":]") {
                let name = &spec[i + 2..i + 2 + end];
                out.extend(class_bytes(name));
                i += 2 + end + 2;
                continue;
            }
        }
        let c = if bytes[i] == b'\\' && i + 1 < bytes.len() {
            i += 1;
            match bytes[i] {
                b'n' => b'\n',
                b't' => b'\t',
                b'r' => b'\r',
                b'0' => 0,
                b'\\' => b'\\',
                other => other,
            }
        } else {
            bytes[i]
        };
        // Range a-z?
        if bytes.get(i + 1) == Some(&b'-') && i + 2 < bytes.len() {
            let hi = bytes[i + 2];
            if hi >= c {
                out.extend(c..=hi);
                i += 3;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn class_bytes(name: &str) -> Vec<u8> {
    match name {
        "upper" => (b'A'..=b'Z').collect(),
        "lower" => (b'a'..=b'z').collect(),
        "digit" => (b'0'..=b'9').collect(),
        "alpha" => (b'A'..=b'Z').chain(b'a'..=b'z').collect(),
        "alnum" => (b'A'..=b'Z').chain(b'a'..=b'z').chain(b'0'..=b'9').collect(),
        "space" => vec![b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c],
        "blank" => vec![b' ', b'\t'],
        "punct" => (b'!'..=b'/')
            .chain(b':'..=b'@')
            .chain(b'['..=b'`')
            .chain(b'{'..=b'~')
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn ctx() -> UtilCtx {
        UtilCtx::new(jash_io::mem_fs())
    }

    fn tr(args: &[&str], input: &[u8]) -> Vec<u8> {
        run_on_bytes(&ctx(), "tr", args, input).unwrap().1
    }

    #[test]
    fn upper_to_lower_range() {
        assert_eq!(tr(&["A-Z", "a-z"], b"Hello World"), b"hello world");
    }

    #[test]
    fn classes() {
        assert_eq!(tr(&["[:upper:]", "[:lower:]"], b"ABCdef"), b"abcdef");
    }

    #[test]
    fn delete() {
        assert_eq!(tr(&["-d", "aeiou"], b"programming"), b"prgrmmng");
    }

    #[test]
    fn delete_complement() {
        assert_eq!(tr(&["-cd", "0-9"], b"a1b2c3\n"), b"123");
    }

    #[test]
    fn squeeze() {
        assert_eq!(tr(&["-s", "l"], b"hello llama"), b"helo lama");
    }

    #[test]
    fn squeeze_after_translate() {
        assert_eq!(tr(&["-s", "A-Z", "a-z"], b"HEELLO"), b"helo");
    }

    #[test]
    fn the_spell_transform() {
        // `tr -cs A-Za-z '\n'` — the word splitter from the spell script.
        let out = tr(&["-cs", "A-Za-z", "\n"], b"Hello, world! 42 times");
        assert_eq!(out, b"Hello\nworld\ntimes");
    }

    #[test]
    fn shorter_set2_extends_with_last() {
        assert_eq!(tr(&["abc", "xy"], b"aabbcc"), b"xxyyyy");
    }

    #[test]
    fn escapes_in_sets() {
        assert_eq!(tr(&["\\n", " "], b"a\nb\n"), b"a b ");
    }

    #[test]
    fn missing_operand_errors() {
        let (st, _, err) = run_on_bytes(&ctx(), "tr", &[], b"").unwrap();
        assert_eq!(st, 2);
        assert!(!err.is_empty());
    }
}
