//! A from-scratch regular-expression engine for `grep` and `sed`.
//!
//! Supports POSIX BRE (the `grep` default) and ERE (`grep -E`): literals,
//! `.`, `*`, bracket classes with ranges and `[:classes:]`, `^`/`$`
//! anchors, and — in ERE (or via `\+` etc. in BRE) — `+`, `?`, `|`, and
//! grouping. A pattern is its top-level alternatives, each with its own
//! anchors and its own program: an alternative that is nothing but
//! literal bytes matches by a byte search (substring, prefix, suffix or
//! equality, by its anchors); any other compiles to a Thompson NFA
//! simulated with state sets in one pass over the line, so matching is
//! linear in the line length with no exponential backtracking (the
//! property that lets `grep` stream gigabytes).
//!
//! Bytes are matched byte-wise (ASCII semantics); multi-byte UTF-8 text
//! passes through untouched because all metacharacters are ASCII.

mod nfa;
mod parse;

use nfa::Nfa;
pub use parse::{parse_pattern, Branch, Flavor, Node, RegexError};

/// How one alternative matches.
enum Program {
    /// These exact bytes (empty for a pattern that is only anchors).
    Literal(Vec<u8>),
    /// Anything else, and every `-i` pattern: case folding is done by
    /// the simulation's byte test, not by a second search routine.
    Nfa(Nfa),
}

struct Alternative {
    program: Program,
    anchored_start: bool,
    anchored_end: bool,
}

impl Alternative {
    fn compile(branch: &Branch, icase: bool) -> Alternative {
        let literal = match &branch.node {
            _ if icase => None,
            Node::Empty => Some(Vec::new()),
            Node::Char(c) => Some(vec![*c]),
            Node::Concat(seq) => seq
                .iter()
                .map(|n| match n {
                    Node::Char(c) => Some(*c),
                    _ => None,
                })
                .collect(),
            _ => None,
        };
        Alternative {
            program: match literal {
                Some(bytes) => Program::Literal(bytes),
                None => Program::Nfa(Nfa::compile(&branch.node, icase)),
            },
            anchored_start: branch.anchored_start,
            anchored_end: branch.anchored_end,
        }
    }

    fn is_match(&self, line: &[u8]) -> bool {
        match &self.program {
            Program::Literal(lit) => match (self.anchored_start, self.anchored_end) {
                (true, true) => line == lit.as_slice(),
                (true, false) => line.starts_with(lit),
                (false, true) => line.ends_with(lit),
                (false, false) => find_bytes(line, lit).is_some(),
            },
            Program::Nfa(nfa) => nfa.is_match(line, self.anchored_start, self.anchored_end),
        }
    }

    /// Leftmost-longest match within `line[start..]`, as offsets into
    /// `line`.
    fn find_from(&self, line: &[u8], start: usize) -> Option<(usize, usize)> {
        if self.anchored_start && start > 0 {
            return None;
        }
        let rest = &line[start..];
        // One pass settles the common case, a line with no match in it,
        // before any per-position work.
        if !self.is_match(rest) {
            return None;
        }
        let (begin, end) = match &self.program {
            Program::Literal(lit) => {
                let begin = if self.anchored_end {
                    rest.len() - lit.len()
                } else if self.anchored_start {
                    0
                } else {
                    find_bytes(rest, lit)?
                };
                (begin, begin + lit.len())
            }
            Program::Nfa(nfa) => {
                let last_begin = if self.anchored_start { 0 } else { rest.len() };
                (0..=last_begin).find_map(|begin| {
                    let end = nfa.longest_match(rest, begin)?;
                    (!self.anchored_end || end == rest.len()).then_some((begin, end))
                })?
            }
        };
        Some((start + begin, start + end))
    }
}

/// Offset of the first occurrence of `needle` in `hay`: scan for its
/// first byte, compare the rest.
fn find_bytes(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let Some((&first, tail)) = needle.split_first() else {
        return Some(0);
    };
    let last_begin = hay.len().checked_sub(needle.len())?;
    let mut from = 0;
    while from <= last_begin {
        let at = from + hay[from..=last_begin].iter().position(|&b| b == first)?;
        if hay[at + 1..].starts_with(tail) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// A compiled regular expression.
pub struct Regex {
    alternatives: Vec<Alternative>,
    icase: bool,
}

impl Regex {
    /// Compiles `pattern` in the given flavor.
    pub fn new(pattern: &str, flavor: Flavor, icase: bool) -> Result<Regex, RegexError> {
        let branches = parse_pattern(pattern, flavor)?;
        Ok(Regex {
            alternatives: branches
                .iter()
                .map(|b| Alternative::compile(b, icase))
                .collect(),
            icase,
        })
    }

    /// Compiles a fixed string (`grep -F`).
    pub fn fixed(text: &str, icase: bool) -> Regex {
        let branch = Branch {
            node: Node::Concat(text.bytes().map(Node::Char).collect()),
            anchored_start: false,
            anchored_end: false,
        };
        Regex {
            alternatives: vec![Alternative::compile(&branch, icase)],
            icase,
        }
    }

    /// Whether the line (without trailing newline) contains a match.
    ///
    /// One pass over the line per alternative, whatever its anchors —
    /// which is what lets `grep` stream at disk speed.
    pub fn is_match(&self, line: &[u8]) -> bool {
        self.alternatives.iter().any(|a| a.is_match(line))
    }

    /// Finds the leftmost-longest match at or after `start`.
    ///
    /// Returns byte offsets `(begin, end)`.
    pub fn find_from(&self, line: &[u8], start: usize) -> Option<(usize, usize)> {
        self.alternatives
            .iter()
            .filter_map(|a| a.find_from(line, start))
            .min_by_key(|&(begin, end)| (begin, std::cmp::Reverse(end)))
    }

    /// Whether matching ignores ASCII case.
    pub fn ignores_case(&self) -> bool {
        self.icase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bre(p: &str) -> Regex {
        Regex::new(p, Flavor::Bre, false).unwrap()
    }

    fn ere(p: &str) -> Regex {
        Regex::new(p, Flavor::Ere, false).unwrap()
    }

    #[test]
    fn literal_substring_search() {
        let r = bre("ell");
        assert!(r.is_match(b"hello"));
        assert!(!r.is_match(b"help"));
    }

    #[test]
    fn dot_and_star() {
        assert!(bre("a.c").is_match(b"xabcx"));
        assert!(!bre("a.c").is_match(b"ac"));
        assert!(bre("ab*c").is_match(b"ac"));
        assert!(bre("ab*c").is_match(b"abbbc"));
        assert!(bre(".*").is_match(b""));
    }

    #[test]
    fn anchors() {
        assert!(bre("^abc").is_match(b"abcdef"));
        assert!(!bre("^abc").is_match(b"xabc"));
        assert!(bre("def$").is_match(b"abcdef"));
        assert!(!bre("def$").is_match(b"defabc"));
        assert!(bre("^only$").is_match(b"only"));
        assert!(!bre("^only$").is_match(b"only more"));
        assert!(bre("^$").is_match(b""));
        assert!(!bre("^$").is_match(b"x"));
    }

    #[test]
    fn classes() {
        let r = bre("[0-9][0-9]*");
        assert!(r.is_match(b"abc 42 def"));
        assert!(!r.is_match(b"no digits"));
        assert!(bre("[^a-z]").is_match(b"A"));
        assert!(!bre("[^a-z]").is_match(b"abc"));
        assert!(bre("[[:digit:]]").is_match(b"7"));
        assert!(bre("[[:upper:][:digit:]]").is_match(b"Q"));
    }

    #[test]
    fn ere_operators() {
        assert!(ere("ab+c").is_match(b"abbc"));
        assert!(!ere("ab+c").is_match(b"ac"));
        assert!(ere("ab?c").is_match(b"ac"));
        assert!(ere("ab?c").is_match(b"abc"));
        assert!(ere("cat|dog").is_match(b"hotdog"));
        assert!(ere("(ab)+").is_match(b"ababab"));
        assert!(!ere("^(ab)+$").is_match(b"aba"));
    }

    #[test]
    fn bre_escaped_operators() {
        // In BRE, `\(` groups and `\+` repeats (common extension).
        // `\{0,\}` means zero-or-more, so the empty string matches.
        assert!(bre(r"\(ab\)\{0,\}").is_match(b""));
        assert!(bre(r"a\+").is_match(b"aa"));
        assert!(bre(r"x\|y").is_match(b"y"));
    }

    #[test]
    fn bre_plus_is_literal_unescaped() {
        assert!(bre("a+").is_match(b"a+"));
        assert!(!bre("a+").is_match(b"aa"));
    }

    #[test]
    fn case_insensitive() {
        let r = Regex::new("hello", Flavor::Bre, true).unwrap();
        assert!(r.is_match(b"say HELLO"));
        let r = Regex::new("[a-z]$", Flavor::Bre, true).unwrap();
        assert!(r.is_match(b"X"));
    }

    #[test]
    fn fixed_strings() {
        let r = Regex::fixed("a.c", false);
        assert!(r.is_match(b"xa.cx"));
        assert!(!r.is_match(b"abc"));
    }

    #[test]
    fn find_leftmost_longest() {
        let r = bre("ab*");
        assert_eq!(r.find_from(b"xxabbby", 0), Some((2, 6)));
        // Leftmost wins even when a longer match exists later.
        assert_eq!(r.find_from(b"a abbb", 0), Some((0, 1)));
        // Search can resume past a previous match.
        assert_eq!(r.find_from(b"a abbb", 1), Some((2, 6)));
    }

    #[test]
    fn empty_pattern_matches_everywhere() {
        let r = bre("");
        assert_eq!(r.find_from(b"abc", 0), Some((0, 0)));
    }

    #[test]
    fn invalid_patterns_error() {
        assert!(Regex::new("[abc", Flavor::Bre, false).is_err());
        assert!(Regex::new("(ab", Flavor::Ere, false).is_err());
        assert!(Regex::new("ab)", Flavor::Ere, false).is_err());
        assert!(Regex::new("*ab", Flavor::Ere, false).is_err());
    }

    #[test]
    fn the_temperature_filter() {
        // `grep -v 999` from the paper's §2.1 pipeline.
        let r = bre("999");
        assert!(r.is_match(b"9999"));
        assert!(!r.is_match(b"0042"));
    }

    #[test]
    fn anchors_bind_to_their_own_alternative() {
        let lines: [&[u8]; 4] = [b"apple", b"banana", b"cherry", b"xa"];
        let hits =
            |r: &Regex| -> Vec<&[u8]> { lines.iter().copied().filter(|l| r.is_match(l)).collect() };
        assert_eq!(hits(&ere("^a|^b")), [&b"apple"[..], b"banana"]);
        assert_eq!(hits(&ere("a$|y$")), [&b"banana"[..], b"cherry", b"xa"]);
        assert_eq!(hits(&ere("x|^a")), [&b"apple"[..], b"xa"]);
        assert_eq!(hits(&bre(r"^c\|a$")), [&b"banana"[..], b"cherry", b"xa"]);
        assert_eq!(
            hits(&ere("^apple$|^xa$|n[a-z]n")),
            [&b"apple"[..], b"banana", b"xa"]
        );
    }

    #[test]
    fn literal_programs_by_anchor() {
        assert!(bre("^").is_match(b""));
        assert!(bre("$").is_match(b"abc"));
        assert!(bre("^abc$").is_match(b"abc"));
        assert!(!bre("^abc$").is_match(b"abcabc"));
        assert!(bre("abc$").is_match(b"abcabc"));
        assert!(bre("bca").is_match(b"abcabc"));
        assert!(!bre("abcabca").is_match(b"abcabc"));
        // A false start on the first byte does not lose the real match.
        assert!(bre("aab").is_match(b"aaab"));
        assert!(bre(r"a\.c$").is_match(b"xa.c"));
        assert!(!bre(r"a\.c$").is_match(b"xabc"));
    }

    #[test]
    fn find_is_leftmost_then_longest_over_alternatives() {
        let r = ere("bc|abcd|ab");
        assert_eq!(r.find_from(b"xabcd", 0), Some((1, 5)));
        assert_eq!(r.find_from(b"xabcd", 2), Some((2, 4)));
        let r = ere("d$|^x|b+");
        assert_eq!(r.find_from(b"xabbd", 0), Some((0, 1)));
        assert_eq!(r.find_from(b"xabbd", 1), Some((2, 4)));
        assert_eq!(r.find_from(b"xabbd", 4), Some((4, 5)));
        assert_eq!(r.find_from(b"xabbd", 5), None);
        // End-anchored, not literal: the match that reaches the end.
        let r = bre("ab*$");
        assert_eq!(r.find_from(b"abxabb", 0), Some((3, 6)));
        assert_eq!(r.find_from(b"abxabbx", 0), None);
        assert_eq!(bre("$").find_from(b"abc", 0), Some((3, 3)));
    }

    #[test]
    fn no_exponential_blowup() {
        // (a|a)* style patterns kill backtrackers; NFA simulation is fine.
        let r = ere("(a|a)*b");
        let line = vec![b'a'; 2000];
        let t0 = std::time::Instant::now();
        assert!(!r.is_match(&line));
        assert!(t0.elapsed() < std::time::Duration::from_secs(2));
    }
}
