//! Thompson NFA construction and simulation.

use super::parse::Node;

/// A byte matcher on one transition.
#[derive(Debug, Clone)]
enum Matcher {
    Byte(u8),
    Any,
    Class {
        negated: bool,
        ranges: Vec<(u8, u8)>,
    },
}

impl Matcher {
    fn matches(&self, b: u8, icase: bool) -> bool {
        let fold = |x: u8| if icase { x.to_ascii_lowercase() } else { x };
        match self {
            Matcher::Byte(m) => fold(*m) == fold(b),
            Matcher::Any => b != b'\n',
            Matcher::Class { negated, ranges } => {
                let hit = ranges.iter().any(|&(lo, hi)| {
                    (lo..=hi).contains(&b)
                        || (icase
                            && ((lo..=hi).contains(&b.to_ascii_lowercase())
                                || (lo..=hi).contains(&b.to_ascii_uppercase())))
                });
                hit != *negated
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct State {
    trans: Vec<(Matcher, usize)>,
    eps: Vec<usize>,
}

/// A compiled NFA with a single start and a single accept state.
pub struct Nfa {
    states: Vec<State>,
    /// Epsilon closure of the start state, as a bitset over `states`:
    /// what the simulation begins from, and re-seeds at every byte of an
    /// unanchored search.
    start_set: Vec<u64>,
    accept: usize,
    icase: bool,
}

impl Nfa {
    /// Compiles a syntax tree.
    pub fn compile(node: &Node, icase: bool) -> Nfa {
        let mut nfa = Nfa {
            states: Vec::new(),
            start_set: Vec::new(),
            accept: 0,
            icase,
        };
        let (start, frag_out) = nfa.build(node);
        nfa.accept = nfa.new_state();
        nfa.states[frag_out].eps.push(nfa.accept);
        let mut start_set = vec![0; nfa.states.len().div_ceil(64)];
        nfa.add_closure(start, &mut start_set, &mut Vec::new());
        nfa.start_set = start_set;
        nfa
    }

    fn new_state(&mut self) -> usize {
        self.states.push(State::default());
        self.states.len() - 1
    }

    /// Builds a fragment; returns (entry, exit) state indices.
    fn build(&mut self, node: &Node) -> (usize, usize) {
        match node {
            Node::Empty => {
                let s = self.new_state();
                (s, s)
            }
            Node::Char(c) => {
                let a = self.new_state();
                let b = self.new_state();
                self.states[a].trans.push((Matcher::Byte(*c), b));
                (a, b)
            }
            Node::Any => {
                let a = self.new_state();
                let b = self.new_state();
                self.states[a].trans.push((Matcher::Any, b));
                (a, b)
            }
            Node::Class { negated, ranges } => {
                let a = self.new_state();
                let b = self.new_state();
                self.states[a].trans.push((
                    Matcher::Class {
                        negated: *negated,
                        ranges: ranges.clone(),
                    },
                    b,
                ));
                (a, b)
            }
            Node::Concat(seq) => {
                let mut entry = None;
                let mut prev_out = None;
                for n in seq {
                    let (i, o) = self.build(n);
                    if let Some(po) = prev_out {
                        self.states[po as usize].eps.push(i);
                    } else {
                        entry = Some(i);
                    }
                    prev_out = Some(o as u32);
                }
                match (entry, prev_out) {
                    (Some(i), Some(o)) => (i, o as usize),
                    _ => {
                        let s = self.new_state();
                        (s, s)
                    }
                }
            }
            Node::Alt(branches) => {
                let a = self.new_state();
                let b = self.new_state();
                for br in branches {
                    let (i, o) = self.build(br);
                    self.states[a].eps.push(i);
                    self.states[o].eps.push(b);
                }
                (a, b)
            }
            Node::Star(inner) => {
                let a = self.new_state();
                let b = self.new_state();
                let (i, o) = self.build(inner);
                self.states[a].eps.push(i);
                self.states[a].eps.push(b);
                self.states[o].eps.push(i);
                self.states[o].eps.push(b);
                (a, b)
            }
            Node::Plus(inner) => {
                let (i, o) = self.build(inner);
                let b = self.new_state();
                self.states[o].eps.push(i);
                self.states[o].eps.push(b);
                (i, b)
            }
            Node::Opt(inner) => {
                let a = self.new_state();
                let b = self.new_state();
                let (i, o) = self.build(inner);
                self.states[a].eps.push(i);
                self.states[a].eps.push(b);
                self.states[o].eps.push(b);
                (a, b)
            }
            Node::Repeat(inner, m, n) => {
                // Expand bounded repetition structurally.
                let mut seq: Vec<Node> = Vec::new();
                for _ in 0..*m {
                    seq.push((**inner).clone());
                }
                if *n == usize::MAX {
                    seq.push(Node::Star(inner.clone()));
                } else {
                    for _ in *m..*n {
                        seq.push(Node::Opt(inner.clone()));
                    }
                }
                self.build(&Node::Concat(seq))
            }
        }
    }

    /// Adds `s` and everything reachable from it over epsilon edges to
    /// `set`. `stack` is scratch: each state is pushed at most once, so
    /// given room for every state nothing here touches the heap.
    fn add_closure(&self, s: usize, set: &mut [u64], stack: &mut Vec<usize>) {
        if test(set, s) {
            return;
        }
        insert(set, s);
        stack.push(s);
        while let Some(s) = stack.pop() {
            for &t in &self.states[s].eps {
                if !test(set, t) {
                    insert(set, t);
                    stack.push(t);
                }
            }
        }
    }

    /// The state-set simulation, one pass over `line` whatever the
    /// anchors are. A match may begin at any position when `floating`
    /// (the start set is re-seeded at every byte), else only at 0; with
    /// `to_end` it must end at the end of the line (acceptance is read
    /// there only). Returns the end of the first match met, or of the
    /// longest one when `longest` — only meaningful for a fixed start.
    fn run(&self, line: &[u8], floating: bool, to_end: bool, longest: bool) -> Option<usize> {
        let words = self.start_set.len();
        let mut sets = vec![0u64; 2 * words];
        let (mut cur, mut next) = sets.split_at_mut(words);
        let mut stack = Vec::with_capacity(self.states.len());
        cur.copy_from_slice(&self.start_set);
        let mut best = None;
        if !to_end && test(cur, self.accept) {
            if !longest {
                return Some(0);
            }
            best = Some(0);
        }
        for (i, &b) in line.iter().enumerate() {
            if floating {
                next.copy_from_slice(&self.start_set);
            } else {
                next.fill(0);
            }
            for (w, &word) in cur.iter().enumerate() {
                let mut live = word;
                while live != 0 {
                    let s = w * 64 + live.trailing_zeros() as usize;
                    live &= live - 1;
                    for (m, t) in &self.states[s].trans {
                        if m.matches(b, self.icase) {
                            self.add_closure(*t, next, &mut stack);
                        }
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
            if !to_end && test(cur, self.accept) {
                if !longest {
                    return Some(i + 1);
                }
                best = Some(i + 1);
            } else if !floating && cur.iter().all(|&w| w == 0) {
                return best;
            }
        }
        if to_end && test(cur, self.accept) {
            best = Some(line.len());
        }
        best
    }

    /// Whether `line` has a match, starting at 0 only if `anchored_start`
    /// and ending at its end only if `anchored_end`.
    pub fn is_match(&self, line: &[u8], anchored_start: bool, anchored_end: bool) -> bool {
        self.run(line, !anchored_start, anchored_end, false)
            .is_some()
    }

    /// End of the longest match starting exactly at `begin`; `None` if
    /// no match starts there.
    pub fn longest_match(&self, line: &[u8], begin: usize) -> Option<usize> {
        self.run(&line[begin..], false, false, true)
            .map(|end| begin + end)
    }

    /// Number of states (diagnostics).
    #[cfg(test)]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }
}

fn test(set: &[u64], s: usize) -> bool {
    set[s / 64] >> (s % 64) & 1 != 0
}

fn insert(set: &mut [u64], s: usize) {
    set[s / 64] |= 1 << (s % 64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse::parse_pattern;
    use crate::regex::Flavor;

    fn nfa(p: &str) -> Nfa {
        let branches = parse_pattern(p, Flavor::Ere).unwrap();
        Nfa::compile(&branches[0].node, false)
    }

    #[test]
    fn longest_match_lengths() {
        let n = nfa("ab*");
        assert_eq!(n.longest_match(b"abbbx", 0), Some(4));
        assert_eq!(n.longest_match(b"x", 0), None);
        assert_eq!(n.longest_match(b"a", 0), Some(1));
        assert_eq!(n.longest_match(b"xabb", 1), Some(4));
    }

    #[test]
    fn one_pass_anchors() {
        let n = nfa("ab*");
        assert!(n.is_match(b"xxabx", false, false));
        assert!(!n.is_match(b"xxabx", true, false));
        assert!(!n.is_match(b"xxabx", false, true));
        assert!(n.is_match(b"xxab", false, true));
        assert!(n.is_match(b"abbb", true, true));
        assert!(!n.is_match(b"", false, false));
    }

    #[test]
    fn empty_matches_at_position() {
        let n = nfa("x?");
        assert_eq!(n.longest_match(b"y", 0), Some(0));
        // At the end of the line too, which is where `$` reads it.
        assert!(n.is_match(b"y", false, true));
        assert!(!n.is_match(b"y", true, true));
    }

    #[test]
    fn repeat_expansion() {
        let n = nfa("a{2,3}");
        assert_eq!(n.longest_match(b"aaaa", 0), Some(3));
        assert_eq!(n.longest_match(b"a", 0), None);
    }

    #[test]
    fn state_count_linear() {
        let n = nfa("(a|b)*c{1,4}");
        assert!(n.state_count() < 64);
    }

    #[test]
    fn sets_wider_than_one_word() {
        let n = nfa("(ab){40}c");
        assert!(n.state_count() > 128);
        let mut line = b"ab".repeat(40);
        assert!(!n.is_match(&line, false, false));
        line.push(b'c');
        assert!(n.is_match(&line, true, true));
        assert_eq!(n.longest_match(&line, 0), Some(81));
    }
}
