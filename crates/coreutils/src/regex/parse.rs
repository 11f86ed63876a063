//! Pattern parsing for BRE and ERE.

use std::fmt;

/// Which POSIX regex dialect to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Basic regular expressions (`grep`, `sed` default).
    Bre,
    /// Extended regular expressions (`grep -E`).
    Ere,
}

/// Pattern syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError(pub String);

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid regular expression: {}", self.0)
    }
}

impl std::error::Error for RegexError {}

/// Regex syntax tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Matches the empty string.
    Empty,
    /// A literal byte.
    Char(u8),
    /// `.` — any byte except newline.
    Any,
    /// `[...]`.
    Class {
        /// `[^...]`.
        negated: bool,
        /// Accepted byte ranges, inclusive.
        ranges: Vec<(u8, u8)>,
    },
    /// Sequence.
    Concat(Vec<Node>),
    /// Alternation.
    Alt(Vec<Node>),
    /// Zero or more.
    Star(Box<Node>),
    /// One or more.
    Plus(Box<Node>),
    /// Zero or one.
    Opt(Box<Node>),
    /// Bounded repetition `{m,n}` (`n = usize::MAX` for open).
    Repeat(Box<Node>, usize, usize),
}

/// One top-level alternative of a pattern, with the anchors that bind
/// to it alone (`^a|b$` anchors `a` at the start and `b` at the end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    /// The alternative's body, anchors stripped.
    pub node: Node,
    /// The alternative began with `^`.
    pub anchored_start: bool,
    /// The alternative ended with an unescaped `$`.
    pub anchored_end: bool,
}

/// Parses `pattern` into its top-level alternatives (one for a pattern
/// without a top-level `|`).
pub fn parse_pattern(pattern: &str, flavor: Flavor) -> Result<Vec<Branch>, RegexError> {
    let mut p = P {
        bytes: pattern.as_bytes(),
        pos: 0,
        flavor,
        depth: 0,
    };
    let mut branches = Vec::new();
    loop {
        let anchored_start = p.peek() == Some(b'^');
        if anchored_start {
            p.pos += 1;
        }
        let node = p.concat()?;
        let anchored_end = p.at_end_anchor();
        if anchored_end {
            p.pos += 1;
        }
        branches.push(Branch {
            node,
            anchored_start,
            anchored_end,
        });
        if !p.eat_op(b'|') {
            break;
        }
    }
    if p.pos != p.bytes.len() {
        return Err(RegexError(format!(
            "unexpected `{}`",
            p.bytes[p.pos] as char
        )));
    }
    Ok(branches)
}

struct P<'a> {
    bytes: &'a [u8],
    pos: usize,
    flavor: Flavor,
    /// Open groups; anchors are recognised at depth 0 only.
    depth: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// `alt ::= concat ('|' concat)*` — `|` spelled `\|` in BRE.
    fn alternation(&mut self) -> Result<Node, RegexError> {
        let mut branches = vec![self.concat()?];
        while self.eat_op(b'|') {
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Node::Alt(branches)
        })
    }

    /// Consumes the operator `op`, spelled bare in ERE and `\op` in BRE.
    fn eat_op(&mut self, op: u8) -> bool {
        match self.flavor {
            Flavor::Ere => {
                if self.peek() == Some(op) {
                    self.pos += 1;
                    true
                } else {
                    false
                }
            }
            Flavor::Bre => {
                if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&op) {
                    self.pos += 2;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn at_group_close(&self) -> bool {
        match self.flavor {
            Flavor::Ere => self.peek() == Some(b')'),
            Flavor::Bre => {
                self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b')')
            }
        }
    }

    fn at_alt(&self, pos: usize) -> bool {
        match self.flavor {
            Flavor::Ere => self.bytes.get(pos) == Some(&b'|'),
            Flavor::Bre => {
                self.bytes.get(pos) == Some(&b'\\') && self.bytes.get(pos + 1) == Some(&b'|')
            }
        }
    }

    /// An unescaped `$` that closes a top-level alternative. Anywhere
    /// else (mid-pattern, inside a group) `$` is a literal.
    fn at_end_anchor(&self) -> bool {
        self.depth == 0
            && self.peek() == Some(b'$')
            && (self.pos + 1 == self.bytes.len() || self.at_alt(self.pos + 1))
    }

    fn concat(&mut self) -> Result<Node, RegexError> {
        let mut seq = Vec::new();
        while self.peek().is_some()
            && !self.at_group_close()
            && !self.at_alt(self.pos)
            && !self.at_end_anchor()
        {
            seq.push(self.repeated()?);
        }
        Ok(match seq.len() {
            0 => Node::Empty,
            1 => seq.pop().expect("one node"),
            _ => Node::Concat(seq),
        })
    }

    fn repeated(&mut self) -> Result<Node, RegexError> {
        let atom = self.atom()?;
        let mut node = atom;
        loop {
            if self.peek() == Some(b'*') {
                self.pos += 1;
                node = Node::Star(Box::new(node));
            } else if self.eat_postfix(b'+') {
                node = Node::Plus(Box::new(node));
            } else if self.eat_postfix(b'?') {
                node = Node::Opt(Box::new(node));
            } else if let Some((m, n)) = self.try_interval()? {
                node = Node::Repeat(Box::new(node), m, n);
            } else {
                return Ok(node);
            }
        }
    }

    /// `+`/`?` are bare in ERE; `\+`/`\?` in BRE (a common extension).
    fn eat_postfix(&mut self, op: u8) -> bool {
        self.eat_op(op) && !matches!(self.flavor, Flavor::Ere if false)
    }

    /// `{m,n}` in ERE, `\{m,n\}` in BRE.
    fn try_interval(&mut self) -> Result<Option<(usize, usize)>, RegexError> {
        let save = self.pos;
        let open = match self.flavor {
            Flavor::Ere => {
                self.peek() == Some(b'{') && {
                    self.pos += 1;
                    true
                }
            }
            Flavor::Bre => self.eat_op(b'{'),
        };
        if !open {
            return Ok(None);
        }
        let read_num = |p: &mut Self| -> Option<usize> {
            let start = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            if p.pos == start {
                return None;
            }
            std::str::from_utf8(&p.bytes[start..p.pos])
                .ok()?
                .parse()
                .ok()
        };
        let Some(m) = read_num(self) else {
            self.pos = save;
            return Ok(None);
        };
        let n = if self.peek() == Some(b',') {
            self.pos += 1;
            match read_num(self) {
                Some(n) => n,
                None => usize::MAX,
            }
        } else {
            m
        };
        let closed = match self.flavor {
            Flavor::Ere => {
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    true
                } else {
                    false
                }
            }
            Flavor::Bre => self.eat_op(b'}'),
        };
        if !closed {
            self.pos = save;
            return Ok(None);
        }
        if n != usize::MAX && n < m || m > 255 {
            return Err(RegexError("bad repetition bounds".to_string()));
        }
        Ok(Some((m, n)))
    }

    fn atom(&mut self) -> Result<Node, RegexError> {
        // Group open?
        let group_open = match self.flavor {
            Flavor::Ere => {
                if self.peek() == Some(b'(') {
                    self.pos += 1;
                    true
                } else {
                    false
                }
            }
            Flavor::Bre => self.eat_op(b'('),
        };
        if group_open {
            self.depth += 1;
            let inner = self.alternation()?;
            self.depth -= 1;
            if !match self.flavor {
                Flavor::Ere => {
                    if self.peek() == Some(b')') {
                        self.pos += 1;
                        true
                    } else {
                        false
                    }
                }
                Flavor::Bre => self.eat_op(b')'),
            } {
                return Err(RegexError("unclosed group".to_string()));
            }
            return Ok(inner);
        }

        match self.bump() {
            None => Err(RegexError("unexpected end of pattern".to_string())),
            Some(b'.') => Ok(Node::Any),
            Some(b'[') => self.bracket(),
            Some(b'\\') => match self.bump() {
                None => Err(RegexError("trailing backslash".to_string())),
                Some(b'n') => Ok(Node::Char(b'\n')),
                Some(b't') => Ok(Node::Char(b'\t')),
                Some(c) => Ok(Node::Char(c)),
            },
            Some(b'*') => Err(RegexError("repetition with nothing to repeat".to_string())),
            Some(c @ (b'+' | b'?' | b'{' | b')')) if self.flavor == Flavor::Ere => {
                if c == b')' {
                    Err(RegexError("unmatched `)`".to_string()))
                } else {
                    Err(RegexError(format!(
                        "repetition `{}` with nothing to repeat",
                        c as char
                    )))
                }
            }
            Some(c) => Ok(Node::Char(c)),
        }
    }

    fn bracket(&mut self) -> Result<Node, RegexError> {
        let negated = if self.peek() == Some(b'^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut ranges: Vec<(u8, u8)> = Vec::new();
        let mut first = true;
        loop {
            match self.peek() {
                None => return Err(RegexError("unclosed bracket expression".to_string())),
                Some(b']') if !first => {
                    self.pos += 1;
                    break;
                }
                Some(b'[') if self.bytes.get(self.pos + 1) == Some(&b':') => {
                    // [:class:]
                    let end = self.bytes[self.pos + 2..]
                        .windows(2)
                        .position(|w| w == b":]")
                        .ok_or_else(|| RegexError("unclosed [: :]".to_string()))?;
                    let name = &self.bytes[self.pos + 2..self.pos + 2 + end];
                    ranges.extend(named_class(name)?);
                    self.pos += 2 + end + 2;
                    first = false;
                }
                Some(lo) => {
                    self.pos += 1;
                    first = false;
                    if self.peek() == Some(b'-')
                        && self.bytes.get(self.pos + 1).is_some_and(|&b| b != b']')
                    {
                        self.pos += 1;
                        let hi = self.bump().expect("checked");
                        if hi < lo {
                            return Err(RegexError("invalid range".to_string()));
                        }
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
            }
        }
        Ok(Node::Class { negated, ranges })
    }
}

fn named_class(name: &[u8]) -> Result<Vec<(u8, u8)>, RegexError> {
    Ok(match name {
        b"alpha" => vec![(b'A', b'Z'), (b'a', b'z')],
        b"digit" => vec![(b'0', b'9')],
        b"alnum" => vec![(b'A', b'Z'), (b'a', b'z'), (b'0', b'9')],
        b"upper" => vec![(b'A', b'Z')],
        b"lower" => vec![(b'a', b'z')],
        b"space" => vec![(b' ', b' '), (b'\t', b'\r')],
        b"blank" => vec![(b' ', b' '), (b'\t', b'\t')],
        b"punct" => vec![(b'!', b'/'), (b':', b'@'), (b'[', b'`'), (b'{', b'~')],
        b"xdigit" => vec![(b'0', b'9'), (b'A', b'F'), (b'a', b'f')],
        b"print" => vec![(b' ', b'~')],
        b"graph" => vec![(b'!', b'~')],
        b"cntrl" => vec![(0, 31), (127, 127)],
        other => {
            return Err(RegexError(format!(
                "unknown character class [:{}:]",
                String::from_utf8_lossy(other)
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single alternative of a pattern without a top-level `|`.
    fn one(pattern: &str, flavor: Flavor) -> Branch {
        let mut branches = parse_pattern(pattern, flavor).unwrap();
        assert_eq!(branches.len(), 1, "{pattern}");
        branches.pop().unwrap()
    }

    fn chars(text: &str) -> Node {
        Node::Concat(text.bytes().map(Node::Char).collect())
    }

    #[test]
    fn parse_simple() {
        let b = one("abc", Flavor::Bre);
        assert!(!b.anchored_start && !b.anchored_end);
        assert_eq!(b.node, chars("abc"));
    }

    #[test]
    fn parse_anchors() {
        let b = one("^x$", Flavor::Bre);
        assert!(b.anchored_start && b.anchored_end);
        assert_eq!(b.node, Node::Char(b'x'));
        let b = one(r"x\$", Flavor::Bre);
        assert!(!b.anchored_end);
        assert_eq!(b.node, chars("x$"));
        // An escaped backslash does not escape the dollar after it.
        let b = one(r"x\\$", Flavor::Bre);
        assert!(b.anchored_end);
        assert_eq!(b.node, chars(r"x\"));
        // Mid-pattern they are ordinary characters.
        let b = one("a^b$c", Flavor::Bre);
        assert!(!b.anchored_start && !b.anchored_end);
        assert_eq!(b.node, chars("a^b$c"));
    }

    #[test]
    fn anchors_bind_to_their_own_alternative() {
        let bs = parse_pattern("^a|b$|c", Flavor::Ere).unwrap();
        let flags: Vec<(bool, bool)> = bs
            .iter()
            .map(|b| (b.anchored_start, b.anchored_end))
            .collect();
        assert_eq!(flags, [(true, false), (false, true), (false, false)]);
        assert_eq!(bs[1].node, Node::Char(b'b'));
        let bs = parse_pattern(r"x\|^a$", Flavor::Bre).unwrap();
        assert_eq!(bs.len(), 2);
        assert!(bs[1].anchored_start && bs[1].anchored_end);
        // Inside a group they stay literal characters (DESIGN §10).
        let b = one("(^a|b$)", Flavor::Ere);
        assert!(!b.anchored_start && !b.anchored_end);
        assert_eq!(b.node, Node::Alt(vec![chars("^a"), chars("b$")]));
    }

    #[test]
    fn parse_star_and_interval() {
        assert_eq!(
            one("a*", Flavor::Bre).node,
            Node::Star(Box::new(Node::Char(b'a')))
        );
        assert_eq!(
            one("a{2,4}", Flavor::Ere).node,
            Node::Repeat(Box::new(Node::Char(b'a')), 2, 4)
        );
        assert_eq!(
            one(r"a\{2\}", Flavor::Bre).node,
            Node::Repeat(Box::new(Node::Char(b'a')), 2, 2)
        );
    }

    #[test]
    fn ere_braces_literal_in_bre() {
        // In BRE an unescaped `{` is literal.
        assert!(matches!(one("a{2}", Flavor::Bre).node, Node::Concat(_)));
    }

    #[test]
    fn bracket_parsing() {
        assert_eq!(
            one("[a-c5]", Flavor::Bre).node,
            Node::Class {
                negated: false,
                ranges: vec![(b'a', b'c'), (b'5', b'5')]
            }
        );
        assert_eq!(
            one("[]]", Flavor::Bre).node,
            Node::Class {
                negated: false,
                ranges: vec![(b']', b']')]
            }
        );
        // `$` and `|` inside a bracket are members, not operators.
        assert_eq!(
            one("[|$]", Flavor::Ere).node,
            Node::Class {
                negated: false,
                ranges: vec![(b'|', b'|'), (b'$', b'$')]
            }
        );
    }

    #[test]
    fn errors() {
        assert!(parse_pattern("[", Flavor::Bre).is_err());
        assert!(parse_pattern("(a", Flavor::Ere).is_err());
        assert!(parse_pattern("*x", Flavor::Bre).is_err());
        assert!(parse_pattern("[[:bogus:]]", Flavor::Bre).is_err());
        assert!(parse_pattern("a{4,2}", Flavor::Ere).is_err());
    }
}
