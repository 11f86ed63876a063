//! Reference answers, computed natively. Nothing here calls a jash crate:
//! the program under test is never its own oracle.

/// `tr -cs A-Za-z '\n'`: every maximal run of non-letters becomes one
/// newline.
pub fn squeeze_words(input: &[u8]) -> Vec<u8> {
    let mut squeezed = Vec::with_capacity(input.len());
    for &b in input {
        if b.is_ascii_alphabetic() {
            squeezed.push(b);
        } else if squeezed.last() != Some(&b'\n') {
            squeezed.push(b'\n');
        }
    }
    squeezed
}

/// `tr -cs A-Za-z '\n' | sort`: one word a line, sorted by byte value.
pub fn wordsort(input: &[u8]) -> Vec<u8> {
    let squeezed = squeeze_words(input);
    // A leading separator run yields one empty first line, as `tr` would;
    // split_terminated keeps it and drops only the final terminator.
    let mut lines: Vec<&[u8]> = split_terminated(&squeezed).collect();
    lines.sort_unstable();
    join_lines(&lines)
}

/// `tr A-Z a-z | grep -v the | cut -c 1-20`.
pub fn fusedchain(input: &[u8]) -> Vec<u8> {
    let lower = input.to_ascii_lowercase();
    let mut out = Vec::with_capacity(input.len() / 2);
    for line in split_terminated(&lower) {
        if !contains(line, b"the") {
            out.extend_from_slice(&line[..line.len().min(20)]);
            out.push(b'\n');
        }
    }
    out
}

/// `cut -c 89-92 | grep -v 999 | sort -rn | head -n1`: the largest valid
/// temperature field, as the four characters the record holds.
pub fn temperature(input: &[u8]) -> Vec<u8> {
    let mut best: Option<(u32, &[u8])> = None;
    for line in split_terminated(input) {
        let Some(field) = line.get(88..92) else {
            continue;
        };
        if contains(field, b"999") {
            continue;
        }
        let value = std::str::from_utf8(field)
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok())
            .unwrap_or(0);
        // Equal values with different spellings do not occur in generated
        // records (always four digits), so the first maximum is the answer.
        if best.is_none_or(|(b, _)| value > b) {
            best = Some((value, field));
        }
    }
    let mut out = best.map(|(_, f)| f.to_vec()).unwrap_or_default();
    if !out.is_empty() {
        out.push(b'\n');
    }
    out
}

/// One loop iteration of `loopsmall`:
/// `grep -v ' 200$' | cut -d ' ' -f 1,4 | tr a-z A-Z`.
pub fn loopsmall_file(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2);
    for line in split_terminated(input) {
        if line.ends_with(b" 200") {
            continue;
        }
        let mut fields = line.split(|&b| b == b' ');
        let first = fields.next().unwrap_or_default();
        out.extend(first.iter().map(u8::to_ascii_uppercase));
        // Field 4 is the third one after the first; a line without a
        // delimiter is printed whole by `cut`, which the loop above did.
        if let Some(fourth) = fields.nth(2) {
            out.push(b' ');
            out.extend(fourth.iter().map(u8::to_ascii_uppercase));
        }
        out.push(b'\n');
    }
    out
}

/// The script's final `cat /logs/*.out | wc -l`.
pub fn loopsmall_stdout(per_file: &[Vec<u8>]) -> Vec<u8> {
    let lines: usize = per_file.iter().map(|f| count_lines(f)).sum();
    format!("{lines}\n").into_bytes()
}

/// `grep -c WORD`: lines containing the word, as `N\n`.
pub fn grep_count(input: &[u8], word: &[u8]) -> Vec<u8> {
    let n = split_terminated(input)
        .filter(|l| contains(l, word))
        .count();
    format!("{n}\n").into_bytes()
}

/// `tr A-Z a-z | sort -u | head -n K`.
pub fn keyed_head(input: &[u8], k: usize) -> Vec<u8> {
    let lower = input.to_ascii_lowercase();
    let mut lines: Vec<&[u8]> = split_terminated(&lower).collect();
    lines.sort_unstable();
    lines.dedup();
    lines.truncate(k);
    join_lines(&lines)
}

pub fn count_lines(data: &[u8]) -> usize {
    data.iter().filter(|&&b| b == b'\n').count()
}

/// Lines without their terminator; a final unterminated line counts.
fn split_terminated(data: &[u8]) -> impl Iterator<Item = &[u8]> {
    let body = data.strip_suffix(b"\n").unwrap_or(data);
    let empty = data.is_empty();
    body.split(|&b| b == b'\n').filter(move |_| !empty)
}

fn join_lines(lines: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines {
        out.extend_from_slice(l);
        out.push(b'\n');
    }
    out
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    macro_rules! data {
        ($name:literal) => {
            include_bytes!(concat!("../testdata/", $name)).as_slice()
        };
    }

    #[test]
    fn wordsort_matches_the_hand_written_file() {
        assert_eq!(wordsort(data!("wordsort.in")), data!("wordsort.expected"));
        // A leading separator run is one empty line, sorted first.
        assert_eq!(wordsort(b"  b a\n"), b"\na\nb\n");
        assert_eq!(wordsort(b""), b"");
    }

    #[test]
    fn fusedchain_matches_the_hand_written_file() {
        assert_eq!(
            fusedchain(data!("fusedchain.in")),
            data!("fusedchain.expected")
        );
    }

    #[test]
    fn temperature_matches_the_hand_written_file() {
        assert_eq!(
            temperature(data!("temperature.in")),
            data!("temperature.expected")
        );
        assert_eq!(temperature(b"too short\n"), b"");
    }

    #[test]
    fn loopsmall_matches_the_hand_written_file() {
        let out = loopsmall_file(data!("loopsmall.in"));
        assert_eq!(out, data!("loopsmall.expected"));
        assert_eq!(loopsmall_stdout(&[out.clone(), out]), b"6\n");
    }

    #[test]
    fn serve_request_answers_match_the_hand_written_file() {
        assert_eq!(keyed_head(data!("keyed.in"), 3), data!("keyed.expected"));
        assert_eq!(grep_count(data!("keyed.in"), b"line"), b"2\n");
        assert_eq!(grep_count(data!("keyed.in"), b"a"), b"6\n");
    }
}
