//! Oracles for the regex engine that share none of its matching code.
//!
//! Seeded patterns (literals, classes, `.`, `*`, ERE `+ ? |`, bounded
//! repeats, every anchor placement, `-i`, `-F`, `-v`) run against seeded
//! lines (empty, no final newline, 1 B … 64 KiB, bytes ≥ 0x80), and
//! `Regex::is_match` — directly and through the `grep` utility — must
//! agree with:
//!
//! * [`reference`], a restart-per-position matcher that interprets the
//!   syntax tree directly: no NFA, no literal program, no shared anchor
//!   handling. It shares the parser, which is why there is also
//! * the host's `grep`, where `/usr/bin/grep` exists (skipped cleanly
//!   where not).
//!
//! `JASH_REGEX_SEEDS` sets the seed count (default 200; CI runs 2000).
//! The second half of the file holds the hostile inputs: patterns that
//! took minutes per line when anchored matching restarted at every byte.

use jash_coreutils::regex::{parse_pattern, Flavor, Regex};
use jash_coreutils::{run_on_bytes, UtilCtx};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const HOST_GREP: &str = "/usr/bin/grep";

/// Lines longer than this are checked against the host only: the
/// reference is quadratic by design.
const REFERENCE_MAX_LINE: usize = 256;

mod reference {
    use jash_coreutils::regex::{Branch, Node};
    use std::collections::BTreeSet;

    fn fold(b: u8, icase: bool) -> u8 {
        if icase {
            b.to_ascii_lowercase()
        } else {
            b
        }
    }

    fn byte_matches(node: &Node, b: u8, icase: bool) -> bool {
        match node {
            Node::Char(c) => fold(*c, icase) == fold(b, icase),
            Node::Any => b != b'\n',
            Node::Class { negated, ranges } => {
                let inside = |x: u8| ranges.iter().any(|&(lo, hi)| lo <= x && x <= hi);
                let hit = inside(b)
                    || (icase
                        && (inside(b.to_ascii_lowercase()) || inside(b.to_ascii_uppercase())));
                hit != *negated
            }
            _ => unreachable!("not a single-byte node"),
        }
    }

    /// Ends of `inner` repeated zero or more times from each of `from`.
    fn star(inner: &Node, line: &[u8], from: BTreeSet<usize>, icase: bool) -> BTreeSet<usize> {
        let mut all = from.clone();
        let mut frontier = from;
        while !frontier.is_empty() {
            let mut fresh = BTreeSet::new();
            for &p in &frontier {
                for e in ends(inner, line, p, icase) {
                    if all.insert(e) {
                        fresh.insert(e);
                    }
                }
            }
            frontier = fresh;
        }
        all
    }

    fn step(node: &Node, line: &[u8], from: &BTreeSet<usize>, icase: bool) -> BTreeSet<usize> {
        from.iter()
            .flat_map(|&p| ends(node, line, p, icase))
            .collect()
    }

    /// Every offset at which a match of `node` beginning at `begin` ends.
    fn ends(node: &Node, line: &[u8], begin: usize, icase: bool) -> BTreeSet<usize> {
        let here = BTreeSet::from([begin]);
        match node {
            Node::Empty => here,
            Node::Char(_) | Node::Any | Node::Class { .. } => match line.get(begin) {
                Some(&b) if byte_matches(node, b, icase) => BTreeSet::from([begin + 1]),
                _ => BTreeSet::new(),
            },
            Node::Concat(seq) => seq.iter().fold(here, |at, n| step(n, line, &at, icase)),
            Node::Alt(alts) => alts
                .iter()
                .flat_map(|n| ends(n, line, begin, icase))
                .collect(),
            Node::Star(inner) => star(inner, line, here, icase),
            Node::Plus(inner) => star(inner, line, ends(inner, line, begin, icase), icase),
            Node::Opt(inner) => {
                let mut set = ends(inner, line, begin, icase);
                set.insert(begin);
                set
            }
            Node::Repeat(inner, min, max) => {
                let mut at = here;
                for _ in 0..*min {
                    at = step(inner, line, &at, icase);
                }
                if *max == usize::MAX {
                    return star(inner, line, at, icase);
                }
                let mut all = at.clone();
                for _ in *min..*max {
                    at = step(inner, line, &at, icase);
                    all.extend(at.iter().copied());
                }
                all
            }
        }
    }

    /// Whether any alternative matches: tried from every position its
    /// `^` allows, accepted at every end its `$` allows.
    pub fn is_match(branches: &[Branch], line: &[u8], icase: bool) -> bool {
        branches.iter().any(|b| {
            let last_begin = if b.anchored_start { 0 } else { line.len() };
            (0..=last_begin).any(|begin| {
                let ends = ends(&b.node, line, begin, icase);
                if b.anchored_end {
                    ends.contains(&line.len())
                } else {
                    !ends.is_empty()
                }
            })
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Dialect {
    Bre,
    Ere,
    Fixed,
}

#[derive(Debug)]
struct Case {
    dialect: Dialect,
    icase: bool,
    invert: bool,
    pattern: String,
    lines: Vec<Vec<u8>>,
    final_newline: bool,
}

impl Case {
    fn args(&self) -> Vec<String> {
        let mut args = Vec::new();
        match self.dialect {
            Dialect::Bre => {}
            Dialect::Ere => args.push("-E".to_string()),
            Dialect::Fixed => args.push("-F".to_string()),
        }
        if self.icase {
            args.push("-i".to_string());
        }
        if self.invert {
            args.push("-v".to_string());
        }
        args.push("-e".to_string());
        args.push(self.pattern.clone());
        args
    }

    fn input(&self) -> Vec<u8> {
        let mut input = self.lines.join(&b'\n');
        if self.final_newline {
            input.push(b'\n');
        }
        input
    }
}

struct Gen {
    rng: StdRng,
    ere: bool,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }

    /// The operator `op`, spelled bare in ERE and `\op` in BRE.
    fn op(&self, op: &str) -> String {
        if self.ere {
            op.to_string()
        } else {
            format!("\\{op}")
        }
    }

    fn atom(&mut self, depth: usize) -> String {
        match self.below(if depth == 0 { 9 } else { 10 }) {
            0..=4 => self
                .pick(&[
                    "a", "b", "c", "A", " ", "2", "0", "é", "\\.", "\\*", "\\$", "\\\\", "\\[",
                ])
                .to_string(),
            5 => ".".to_string(),
            6..=8 => self
                .pick(&[
                    "[ab]",
                    "[^ab]",
                    "[a-c]",
                    "[^a-c ]",
                    "[[:digit:]]",
                    "[[:alpha:]]",
                    "[[:upper:]c]",
                    "[]a]",
                    "[^]a]",
                    "[a-]",
                    "[$|.*^]",
                ])
                .to_string(),
            _ => format!(
                "{}{}{}",
                self.op("("),
                self.alternation(depth - 1),
                self.op(")")
            ),
        }
    }

    fn piece(&mut self, depth: usize) -> String {
        let atom = self.atom(depth);
        let quant = match self.below(10) {
            0 | 1 => "*".to_string(),
            2 => self.op("+"),
            3 => self.op("?"),
            4 => {
                let min = self.below(3);
                let bounds = match self.below(3) {
                    0 => format!("{min}"),
                    1 => format!("{min},"),
                    _ => format!("{min},{}", min + self.below(3)),
                };
                format!("{}{bounds}{}", self.op("{"), self.op("}"))
            }
            _ => String::new(),
        };
        atom + &quant
    }

    fn sequence(&mut self, depth: usize) -> String {
        (0..1 + self.below(4)).map(|_| self.piece(depth)).collect()
    }

    fn alternation(&mut self, depth: usize) -> String {
        let bar = self.op("|");
        let n = [1, 1, 2, 3][self.below(4)];
        (0..n)
            .map(|_| self.sequence(depth))
            .collect::<Vec<_>>()
            .join(&bar)
    }

    /// A whole pattern: top-level alternatives, each anchored (or not)
    /// on its own.
    fn pattern(&mut self) -> String {
        let bar = self.op("|");
        let n = [1, 1, 2, 3][self.below(4)];
        (0..n)
            .map(|_| {
                let body = self.sequence(2);
                let start = if self.below(3) == 0 { "^" } else { "" };
                let end = if self.below(3) == 0 { "$" } else { "" };
                format!("{start}{body}{end}")
            })
            .collect::<Vec<_>>()
            .join(&bar)
    }

    fn fixed(&mut self) -> String {
        (0..self.below(5))
            .map(|_| {
                self.pick(&[
                    "a", "b", "c", "A", " ", ".", "*", "^", "$", "[", "\\", "|", "é",
                ])
            })
            .collect()
    }

    fn line(&mut self) -> Vec<u8> {
        let len = match self.below(20) {
            0 => 0,
            1 => 1,
            2 => 1 + self.below(64 << 10),
            3 => 64 << 10,
            _ => 1 + self.below(12),
        };
        // Long lines repeat a short random unit, so patterns written
        // over the same alphabet still find partial matches all along.
        let unit: Vec<u8> = (0..1 + self.below(7)).map(|_| self.byte()).collect();
        let mut line: Vec<u8> = unit.iter().copied().cycle().take(len).collect();
        if len > 0 && self.below(2) == 0 {
            let at = self.below(len);
            line[at] = self.byte();
        }
        line
    }

    fn byte(&mut self) -> u8 {
        match self.below(12) {
            0 => self.rng.random_range(0x80u8..0xff),
            1 => b"[.*$^\\|"[self.below(7)],
            _ => b"aabbcAB 20\xc3\xa9"[self.below(12)],
        }
    }

    fn case(&mut self) -> Case {
        let dialect = [Dialect::Bre, Dialect::Ere, Dialect::Ere, Dialect::Fixed][self.below(4)];
        self.ere = dialect == Dialect::Ere;
        let pattern = if dialect == Dialect::Fixed {
            self.fixed()
        } else {
            self.pattern()
        };
        let lines: Vec<Vec<u8>> = (0..1 + self.below(8)).map(|_| self.line()).collect();
        Case {
            dialect,
            icase: self.below(4) == 0,
            invert: self.below(4) == 0,
            pattern,
            // An empty last line exists only by its newline.
            final_newline: lines.last().is_some_and(|l| l.is_empty()) || self.below(4) != 0,
            lines,
        }
    }
}

fn host_grep(case: &Case) -> Option<(Vec<u8>, i32)> {
    if !std::path::Path::new(HOST_GREP).exists() {
        return None;
    }
    let mut child = Command::new(HOST_GREP)
        .env("LC_ALL", "C")
        .arg("-a")
        .args(case.args())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("host grep starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = case.input();
    let output = std::thread::scope(|s| {
        s.spawn(move || {
            // A grep that exits early closes the pipe; that is its answer.
            let _ = stdin.write_all(&input);
        });
        child.wait_with_output().expect("host grep finishes")
    });
    assert!(
        output.stderr.is_empty(),
        "host grep complained about {case:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    Some((output.stdout, output.status.code().expect("exit code")))
}

/// Checks one case every way there is. Returns whether the host ran.
fn check(case: &Case) -> bool {
    let label = format!(
        "grep {:?} ({} lines, final newline {})",
        case.args(),
        case.lines.len(),
        case.final_newline
    );
    let icase = case.icase;
    let flavor = match case.dialect {
        Dialect::Fixed => None,
        Dialect::Bre => Some(Flavor::Bre),
        Dialect::Ere => Some(Flavor::Ere),
    };
    let re = match flavor {
        Some(flavor) => Regex::new(&case.pattern, flavor, icase).expect(&label),
        None => Regex::fixed(&case.pattern, icase),
    };
    let branches = flavor.map(|flavor| parse_pattern(&case.pattern, flavor).expect(&label));

    let mut want = Vec::new();
    for (i, line) in case.lines.iter().enumerate() {
        let got = re.is_match(line);
        if line.len() <= REFERENCE_MAX_LINE {
            let reference = match &branches {
                Some(branches) => reference::is_match(branches, line, icase),
                None => {
                    let fold = |s: &[u8]| {
                        if icase {
                            s.to_ascii_lowercase()
                        } else {
                            s.to_vec()
                        }
                    };
                    let (hay, needle) = (fold(line), fold(case.pattern.as_bytes()));
                    needle.is_empty() || hay.windows(needle.len()).any(|w| w == needle)
                }
            };
            assert_eq!(
                got,
                reference,
                "{label}: line {i} {:?} disagrees with the reference",
                String::from_utf8_lossy(line)
            );
        }
        if got != case.invert {
            want.extend_from_slice(line);
            want.push(b'\n');
        }
    }
    let want_status = if want.is_empty() { 1 } else { 0 };

    let ctx = UtilCtx::new(jash_io::mem_fs());
    let args = case.args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (status, out, err) = run_on_bytes(&ctx, "grep", &args, &case.input()).expect("grep runs");
    assert!(err.is_empty(), "{label}: {}", String::from_utf8_lossy(&err));
    assert!(out == want, "{label}: the utility disagrees with is_match");
    assert_eq!(status, want_status, "{label}: status");

    match host_grep(case) {
        Some((host_out, host_status)) => {
            if host_out != out {
                let ours: Vec<&[u8]> = out.split(|&b| b == b'\n').collect();
                let theirs: Vec<&[u8]> = host_out.split(|&b| b == b'\n').collect();
                let line = case
                    .lines
                    .iter()
                    .find(|l| ours.contains(&l.as_slice()) != theirs.contains(&l.as_slice()));
                panic!(
                    "{label}: {HOST_GREP} disagrees, first on {:?}",
                    line.map(|l| String::from_utf8_lossy(&l[..l.len().min(80)]).into_owned())
                );
            }
            assert_eq!(status, host_status, "{label}: status against {HOST_GREP}");
            true
        }
        None => false,
    }
}

fn row(dialect: Dialect, flags: &str, pattern: &str, lines: &[&str]) -> Case {
    Case {
        dialect,
        icase: flags.contains('i'),
        invert: flags.contains('v'),
        pattern: pattern.to_string(),
        lines: lines.iter().map(|l| l.as_bytes().to_vec()).collect(),
        final_newline: true,
    }
}

#[test]
fn seeded_patterns_agree_with_the_reference_and_the_host() {
    let fruit = ["apple", "banana", "cherry", "", "xa", "a", "^a", "a$"];
    let rows = [
        // The three the parent got wrong: one `^`/`$` stripped from the
        // whole pattern instead of from its own alternative.
        row(Dialect::Ere, "", "^a|^b", &fruit),
        row(Dialect::Ere, "", "a$|y$", &fruit),
        row(Dialect::Ere, "", "x|^a", &fruit),
        row(Dialect::Bre, "", r"^a\|^b", &fruit),
        row(Dialect::Bre, "", r"a$\|y$", &fruit),
        row(Dialect::Bre, "v", r"x\|^a", &fruit),
        row(Dialect::Ere, "i", "^APPLE$|^$|rr", &fruit),
        row(Dialect::Ere, "", "^(a|b)|y$", &fruit),
        row(
            Dialect::Ere,
            "",
            "GET|POST|PUT",
            &["a GET b", "POS", "xPUT", "get"],
        ),
        row(Dialect::Bre, "", "a|b", &["a|b", "a", "b"]),
        row(Dialect::Bre, "", r"\^a", &fruit),
        row(Dialect::Bre, "", r"a\$", &fruit),
        row(Dialect::Bre, "", "^", &fruit),
        row(Dialect::Bre, "", "$", &fruit),
        row(Dialect::Bre, "v", "^$", &fruit),
        row(Dialect::Fixed, "", "", &fruit),
        row(Dialect::Fixed, "i", "^A", &fruit),
    ];
    let mut host_ran = true;
    for case in &rows {
        host_ran &= check(case);
    }

    let seeds: u64 = std::env::var("JASH_REGEX_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    for seed in 0..seeds {
        let mut gen = Gen {
            rng: StdRng::seed_from_u64(seed),
            ere: false,
        };
        host_ran &= check(&gen.case());
    }
    if !host_ran {
        eprintln!("{HOST_GREP} not found: checked against the reference matcher only");
    }
}

// ---------------------------------------------------------------------
// Hostile input is linear.

fn within_a_second<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let result = f();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "{what} took {took:?}");
    result
}

#[test]
fn anchored_patterns_are_linear_in_a_long_line() {
    let line = vec![b'a'; 256 << 10];
    let mut input = line.clone();
    input.push(b'\n');
    let ctx = UtilCtx::new(jash_io::mem_fs());
    for pattern in ["a*b$", "(a|a)*b$", "^.*x$"] {
        let re = Regex::new(pattern, Flavor::Ere, false).unwrap();
        let hit = within_a_second(pattern, || re.is_match(&line));
        assert!(!hit, "{pattern}");
        let (status, out, _) = within_a_second(pattern, || {
            run_on_bytes(&ctx, "grep", &["-E", "-c", pattern], &input).unwrap()
        });
        assert_eq!((status, out.as_slice()), (1, &b"0\n"[..]), "{pattern}");
    }
    // The same lines do match once their last byte is what `$` wants.
    let mut line = line;
    *line.last_mut().unwrap() = b'b';
    for pattern in ["a*b$", "(a|a)*b$", "^.*b$"] {
        let re = Regex::new(pattern, Flavor::Ere, false).unwrap();
        assert!(within_a_second(pattern, || re.is_match(&line)), "{pattern}");
    }
}

#[test]
fn sed_substitute_gives_up_on_a_long_line_after_one_pass() {
    let mut input = vec![b'a'; 64 << 10];
    input.push(b'\n');
    let ctx = UtilCtx::new(jash_io::mem_fs());
    let (status, out, _) = within_a_second("sed s/a*b$/x/", || {
        run_on_bytes(&ctx, "sed", &["s/a*b$/x/"], &input).unwrap()
    });
    assert_eq!(status, 0);
    assert!(
        out == input,
        "a line without a match passes through unchanged"
    );
}
