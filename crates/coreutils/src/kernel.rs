//! Fused-kernel building blocks: single-pass composable implementations
//! of the stateless/per-line coreutils subset.
//!
//! A [`Kernel`] collapses a chain like `tr | grep | cut | head` into one
//! object that makes a single pass over each input chunk: every stage is
//! a small transducer ([`OpImpl`]) that appends its output to a scratch
//! buffer which becomes the next stage's input. No channels, no
//! per-stage threads, no per-line allocation on the hot path — per-line
//! stages frame their input by scanning the chunk in place, carrying
//! only a partial trailing line across chunk boundaries.
//!
//! `tr`, `grep`, `cut` and `sed` exist once: `cmds/` parses their
//! arguments and runs the same ops the kernel does. Every other op
//! replicates the corresponding utility in `cmds/` byte for byte, and
//! the conformance tests below fuzz all of them against
//! [`crate::run_on_bytes`] so the two cannot drift silently. Builders
//! return `None` for any invocation whose semantics the kernel cannot
//! reproduce exactly (unsupported flags, file operands, buffering
//! commands) — the fusion pass treats those stages as barriers.

use crate::cmds;
use crate::cmds::sed::{kernel_sed, Sed};
use crate::regex::Regex;
use crate::util::in_ranges;
use std::io::Write;

/// How a fused stage consumes its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelShape {
    /// Operates on framed lines (`grep`, `cut`, `sed`, `head`, ...).
    PerLine,
    /// Operates on raw byte chunks (`tr`, `cat`).
    PerChunk,
}

/// Whether `name args` admits a kernel op, and of which shape.
///
/// This is the single source of truth the spec layer's fusibility
/// classification delegates to: a command is fusible exactly when a
/// kernel op can be built for its concrete argument vector.
pub fn op_shape(name: &str, args: &[String]) -> Option<KernelShape> {
    build_stage(name, args).map(|s| s.shape())
}

/// A per-line transducer. `body` excludes the trailing newline;
/// `had_nl` says whether the source line had one (only the final line
/// of a stream may lack it). Returns `false` to stop consuming input
/// (`head`, `sed q`).
pub(crate) trait LineOp {
    fn line(&mut self, body: &[u8], had_nl: bool, out: &mut Vec<u8>) -> bool;
    fn status(&self) -> i32 {
        0
    }
}

/// A per-chunk transducer (never stops early, never fails).
pub(crate) trait ChunkOp {
    fn chunk(&mut self, data: &[u8], out: &mut Vec<u8>);
}

enum OpImpl {
    Chunk(Box<dyn ChunkOp + Send>),
    Line {
        op: Box<dyn LineOp + Send>,
        /// Partial trailing line carried across chunk boundaries.
        carry: Vec<u8>,
    },
}

/// One stage of a kernel: an op plus its stop flag.
pub struct Stage {
    op: OpImpl,
    stopped: bool,
}

impl Stage {
    fn shape(&self) -> KernelShape {
        match self.op {
            OpImpl::Chunk(_) => KernelShape::PerChunk,
            OpImpl::Line { .. } => KernelShape::PerLine,
        }
    }

    /// Feeds one chunk; returns `false` once the stage wants no more
    /// input. Output produced before the stop is still appended.
    fn feed(&mut self, data: &[u8], out: &mut Vec<u8>) -> bool {
        if self.stopped {
            return false;
        }
        match &mut self.op {
            OpImpl::Chunk(op) => {
                op.chunk(data, out);
                true
            }
            OpImpl::Line { op, carry } => {
                let mut rest = data;
                if !carry.is_empty() {
                    match rest.iter().position(|&b| b == b'\n') {
                        Some(pos) => {
                            carry.extend_from_slice(&rest[..pos]);
                            let line = std::mem::take(carry);
                            if !op.line(&line, true, out) {
                                self.stopped = true;
                                return false;
                            }
                            rest = &rest[pos + 1..];
                        }
                        None => {
                            carry.extend_from_slice(rest);
                            return true;
                        }
                    }
                }
                for piece in rest.split_inclusive(|&b| b == b'\n') {
                    if piece.last() == Some(&b'\n') {
                        if !op.line(&piece[..piece.len() - 1], true, out) {
                            self.stopped = true;
                            return false;
                        }
                    } else {
                        carry.extend_from_slice(piece);
                    }
                }
                true
            }
        }
    }

    /// End of input: flushes the carried partial line (unless stopped,
    /// matching `for_each_input_line`, which skips the tail after an
    /// early stop).
    fn finish(&mut self, out: &mut Vec<u8>) {
        if self.stopped {
            return;
        }
        if let OpImpl::Line { op, carry } = &mut self.op {
            if !carry.is_empty() {
                let line = std::mem::take(carry);
                op.line(&line, false, out);
            }
        }
    }

    fn status(&self) -> i32 {
        match &self.op {
            OpImpl::Chunk(_) => 0,
            OpImpl::Line { op, .. } => op.status(),
        }
    }
}

/// A compiled chain of stages executing in one pass per chunk.
pub struct Kernel {
    stages: Vec<Stage>,
    buf_a: Vec<u8>,
    buf_b: Vec<u8>,
    lines: u64,
    stopped: bool,
}

impl Kernel {
    /// Compiles `stages` (name, args pairs in pipeline order). Fails
    /// with the offending stage's name if any stage is unsupported —
    /// callers treat that as an execution failure and fall back to the
    /// unfused pipeline.
    pub fn build<S: AsRef<str>>(stages: &[(S, Vec<String>)]) -> Result<Kernel, String> {
        if stages.is_empty() {
            return Err("fused kernel: empty stage list".to_string());
        }
        let mut built = Vec::with_capacity(stages.len());
        for (name, args) in stages {
            let name = name.as_ref();
            match build_stage(name, args) {
                Some(s) => built.push(s),
                None => return Err(format!("fused kernel: unsupported stage `{name}`")),
            }
        }
        Ok(Kernel {
            stages: built,
            buf_a: Vec::new(),
            buf_b: Vec::new(),
            lines: 0,
            stopped: false,
        })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the kernel has no stages (never true for a built kernel).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Complete input lines consumed so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Whether the kernel has stopped consuming input.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Runs one input chunk through every stage, appending the final
    /// stage's output to `out`. Returns `false` once the kernel wants
    /// no more input (some stage stopped — the single-threaded analogue
    /// of a downstream `head` closing the pipe).
    pub fn feed(&mut self, chunk: &[u8], out: &mut Vec<u8>) -> bool {
        if self.stopped {
            return false;
        }
        self.lines += chunk.iter().filter(|&&b| b == b'\n').count() as u64;
        let n = self.stages.len();
        if n == 1 {
            if !self.stages[0].feed(chunk, out) {
                self.stopped = true;
            }
            return !self.stopped;
        }
        let mut a = std::mem::take(&mut self.buf_a);
        let mut b = std::mem::take(&mut self.buf_b);
        a.clear();
        let mut alive = self.stages[0].feed(chunk, &mut a);
        for i in 1..n {
            if i == n - 1 {
                if !self.stages[i].feed(&a, out) {
                    alive = false;
                }
            } else {
                b.clear();
                if !self.stages[i].feed(&a, &mut b) {
                    alive = false;
                }
                std::mem::swap(&mut a, &mut b);
            }
        }
        self.buf_a = a;
        self.buf_b = b;
        if !alive {
            self.stopped = true;
        }
        !self.stopped
    }

    /// End of input: cascades each stage's final flush (partial trailing
    /// lines) through the stages downstream of it.
    pub fn finish(&mut self, out: &mut Vec<u8>) {
        let n = self.stages.len();
        for i in 0..n {
            let mut cur = Vec::new();
            self.stages[i].finish(&mut cur);
            for j in (i + 1)..n {
                if cur.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                self.stages[j].feed(&cur, &mut next);
                cur = next;
            }
            out.extend_from_slice(&cur);
        }
    }

    /// Exit status: any stage ≥ 2 wins, else the last stage's status
    /// (mirroring how the region status treats an unfused pipeline —
    /// only the final stage's 0-vs-1 distinction is observable).
    pub fn status(&self) -> i32 {
        for s in &self.stages {
            if s.status() >= 2 {
                return s.status();
            }
        }
        self.stages.last().map(Stage::status).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Ops.

struct CatOp;

impl ChunkOp for CatOp {
    fn chunk(&mut self, data: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(data);
    }
}

/// `tr`: delete, then translate, then squeeze, a byte at a time.
pub(crate) struct TrOp {
    /// Bytes `-d` drops (none without `-d`).
    pub(crate) delete_set: [bool; 256],
    /// Identity outside the translated set.
    pub(crate) xlate: [u8; 256],
    /// Bytes `-s` squeezes runs of, tested after translation (none
    /// without `-s`).
    pub(crate) squeeze_set: [bool; 256],
    /// Neither `-d` nor `-s`: the op is a table map.
    pub(crate) translate_only: bool,
    pub(crate) last_out: Option<u8>,
}

impl ChunkOp for TrOp {
    fn chunk(&mut self, data: &[u8], out: &mut Vec<u8>) {
        if self.translate_only {
            out.extend(data.iter().map(|&b| self.xlate[b as usize]));
            return;
        }
        for &b in data {
            if self.delete_set[b as usize] {
                continue;
            }
            let ob = self.xlate[b as usize];
            if self.squeeze_set[ob as usize] && self.last_out == Some(ob) {
                continue;
            }
            self.last_out = Some(ob);
            out.push(ob);
        }
    }
}

/// `grep` without `-c`/`-q`/`-m`, which only `cmds/grep.rs` layers on
/// top of [`GrepOp::hit`] and [`GrepOp::emit`].
pub(crate) struct GrepOp {
    pub(crate) re: Regex,
    pub(crate) invert: bool,
    pub(crate) line_numbers: bool,
    pub(crate) lineno: u64,
    pub(crate) matched: u64,
}

impl GrepOp {
    /// Counts the line and says whether it is selected.
    pub(crate) fn hit(&mut self, body: &[u8]) -> bool {
        self.lineno += 1;
        let hit = self.re.is_match(body) != self.invert;
        self.matched += hit as u64;
        hit
    }

    /// Writes a selected line (the one `hit` was last called on).
    pub(crate) fn emit(&self, body: &[u8], out: &mut Vec<u8>) {
        if self.line_numbers {
            write!(out, "{}:", self.lineno).expect("writing to a Vec cannot fail");
        }
        out.extend_from_slice(body);
        out.push(b'\n');
    }
}

impl LineOp for GrepOp {
    fn line(&mut self, body: &[u8], _had_nl: bool, out: &mut Vec<u8>) -> bool {
        if self.hit(body) {
            self.emit(body, out);
        }
        true
    }

    fn status(&self) -> i32 {
        if self.matched > 0 {
            0
        } else {
            1
        }
    }
}

pub(crate) enum CutMode {
    /// Character positions (treated as bytes; ASCII data).
    Chars(Vec<(usize, usize)>),
    Fields {
        ranges: Vec<(usize, usize)>,
        delim: u8,
        suppress_undelimited: bool,
    },
}

pub(crate) struct CutOp {
    pub(crate) mode: CutMode,
}

impl LineOp for CutOp {
    fn line(&mut self, body: &[u8], _had_nl: bool, out: &mut Vec<u8>) -> bool {
        match &self.mode {
            CutMode::Chars(ranges) => match ranges[..] {
                [(start, end)] => {
                    let len = body.len();
                    out.extend_from_slice(&body[start.min(len)..end.min(len)]);
                }
                _ => {
                    for (idx, &b) in body.iter().enumerate() {
                        if in_ranges(ranges, idx) {
                            out.push(b);
                        }
                    }
                }
            },
            CutMode::Fields {
                ranges,
                delim,
                suppress_undelimited,
            } => {
                if !body.contains(delim) {
                    if *suppress_undelimited {
                        return true;
                    }
                    out.extend_from_slice(body);
                } else {
                    let mut first = true;
                    for (idx, field) in body.split(|&b| b == *delim).enumerate() {
                        if in_ranges(ranges, idx) {
                            if !first {
                                out.push(*delim);
                            }
                            first = false;
                            out.extend_from_slice(field);
                        }
                    }
                }
            }
        }
        out.push(b'\n');
        true
    }
}

impl LineOp for Sed {
    fn line(&mut self, body: &[u8], _had_nl: bool, out: &mut Vec<u8>) -> bool {
        self.process(body, false, out)
    }
}

struct HeadOp {
    limit: u64,
    seen: u64,
}

impl LineOp for HeadOp {
    fn line(&mut self, body: &[u8], _had_nl: bool, out: &mut Vec<u8>) -> bool {
        self.seen += 1;
        out.extend_from_slice(body);
        out.push(b'\n');
        self.seen < self.limit
    }
}

struct RevOp;

impl LineOp for RevOp {
    fn line(&mut self, body: &[u8], had_nl: bool, out: &mut Vec<u8>) -> bool {
        let rev: String = String::from_utf8_lossy(body).chars().rev().collect();
        out.extend_from_slice(rev.as_bytes());
        if had_nl {
            out.push(b'\n');
        }
        true
    }
}

struct FoldOp {
    width: usize,
}

impl LineOp for FoldOp {
    fn line(&mut self, body: &[u8], _had_nl: bool, out: &mut Vec<u8>) -> bool {
        for (i, b) in body.iter().enumerate() {
            if i > 0 && i % self.width == 0 {
                out.push(b'\n');
            }
            out.push(*b);
        }
        out.push(b'\n');
        true
    }
}

struct UniqOp {
    prev: Option<Vec<u8>>,
}

impl LineOp for UniqOp {
    fn line(&mut self, body: &[u8], _had_nl: bool, out: &mut Vec<u8>) -> bool {
        if self.prev.as_deref() != Some(body) {
            out.extend_from_slice(body);
            out.push(b'\n');
            self.prev = Some(body.to_vec());
        }
        true
    }
}

// ---------------------------------------------------------------------
// Builders. Each mirrors its utility's argument parsing and returns
// `None` wherever the real command would error, read files, or use a
// feature the kernel does not reproduce.

fn build_stage(name: &str, args: &[String]) -> Option<Stage> {
    let op = match name {
        "cat" => build_cat(args),
        "tr" => build_tr(args),
        "grep" => build_grep(args),
        "cut" => build_cut(args),
        "sed" => kernel_sed(args).map(|sed| line_op(Box::new(sed))),
        "head" => build_head(args),
        "rev" => build_rev(args),
        "fold" => build_fold(args),
        "uniq" => build_uniq(args),
        _ => None,
    }?;
    let stopped = matches!(&op, OpImpl::Line { .. }) && initial_stop(name, args);
    Some(Stage { op, stopped })
}

/// `head -n 0` emits nothing and exits immediately; the stage starts
/// stopped so the kernel never consumes input on its behalf.
fn initial_stop(name: &str, args: &[String]) -> bool {
    name == "head" && parse_head_lines(args) == Some(0)
}

fn line_op(op: Box<dyn LineOp + Send>) -> OpImpl {
    OpImpl::Line {
        op,
        carry: Vec::new(),
    }
}

fn build_cat(args: &[String]) -> Option<OpImpl> {
    if !args.is_empty() {
        return None;
    }
    Some(OpImpl::Chunk(Box::new(CatOp)))
}

fn build_tr(args: &[String]) -> Option<OpImpl> {
    Some(OpImpl::Chunk(Box::new(cmds::tr::parse(args).ok()?)))
}

fn build_grep(args: &[String]) -> Option<OpImpl> {
    let grep = cmds::grep::parse(args).ok()?;
    // -c/-q/-m change output or stop semantics the kernel does not
    // model, and operands are files.
    let plain = !grep.count_only && !grep.quiet && grep.max_count.is_none();
    (plain && grep.files.is_empty()).then(|| line_op(Box::new(grep.op)))
}

fn build_cut(args: &[String]) -> Option<OpImpl> {
    let (op, files) = cmds::cut::parse(args).ok()?;
    files.is_empty().then(|| line_op(Box::new(op)))
}

fn parse_head_lines(args: &[String]) -> Option<u64> {
    let mut lines: u64 = 10;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-n") {
            let v = if rest.is_empty() {
                i += 1;
                args.get(i).cloned().unwrap_or_default()
            } else {
                rest.to_string()
            };
            lines = v.parse().ok()?;
        } else if a.starts_with("-c") {
            return None; // Byte mode streams chunks, not lines.
        } else if a.starts_with('-') && a.len() > 1 && a[1..].chars().all(|c| c.is_ascii_digit()) {
            lines = a[1..].parse().unwrap_or(10);
        } else {
            return None; // `--` or file operands.
        }
        i += 1;
    }
    Some(lines)
}

fn build_head(args: &[String]) -> Option<OpImpl> {
    let limit = parse_head_lines(args)?;
    Some(line_op(Box::new(HeadOp { limit, seen: 0 })))
}

fn build_rev(args: &[String]) -> Option<OpImpl> {
    if !args.is_empty() {
        return None; // All operands are files.
    }
    Some(line_op(Box::new(RevOp)))
}

fn build_fold(args: &[String]) -> Option<OpImpl> {
    let mut width = 80usize;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-w") {
            let v = if rest.is_empty() {
                i += 1;
                args.get(i).cloned().unwrap_or_default()
            } else {
                rest.to_string()
            };
            match v.parse() {
                Ok(w) if w > 0 => width = w,
                _ => return None,
            }
        } else {
            return None; // File operand.
        }
        i += 1;
    }
    Some(line_op(Box::new(FoldOp { width })))
}

fn build_uniq(args: &[String]) -> Option<OpImpl> {
    // Plain `uniq` only: -c/-d/-u change grouping output; operands are
    // files.
    if !args.is_empty() {
        return None;
    }
    Some(line_op(Box::new(UniqOp { prev: None })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_on_bytes, UtilCtx};

    fn ctx() -> UtilCtx {
        UtilCtx::new(jash_io::mem_fs())
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Runs a kernel over `input` split into `chunk` - byte pieces.
    fn run_kernel(stages: &[(&str, Vec<String>)], input: &[u8], chunk: usize) -> (Vec<u8>, i32) {
        let mut k = Kernel::build(stages).unwrap();
        let mut out = Vec::new();
        for piece in input.chunks(chunk.max(1)) {
            if !k.feed(piece, &mut out) {
                break;
            }
        }
        k.finish(&mut out);
        (out, k.status())
    }

    /// The oracle: the same chain run through the real utilities.
    fn run_pipeline(stages: &[(&str, Vec<String>)], input: &[u8]) -> (Vec<u8>, i32) {
        let c = ctx();
        let mut data = input.to_vec();
        let mut status = 0;
        for (name, args) in stages {
            let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
            let (st, out, _) = run_on_bytes(&c, name, &args, &data).unwrap();
            data = out;
            status = st;
        }
        (data, status)
    }

    fn conform(stages: &[(&str, Vec<String>)], input: &[u8]) {
        let (want, want_st) = run_pipeline(stages, input);
        for chunk in [1, 3, 7, 64, 1 << 20] {
            let (got, got_st) = run_kernel(stages, input, chunk);
            assert_eq!(
                got,
                want,
                "chunk={chunk} stages={:?}",
                stages.iter().map(|s| s.0).collect::<Vec<_>>()
            );
            assert_eq!(got_st, want_st, "status, chunk={chunk}");
        }
    }

    const CORPUS: &[u8] = b"Hello, World!\nthe quick brown fox\nJUMPS over\n\
        the lazy dog 42 times\naaa\naaa\nbbb\nmixed UPPER lower 123\n\
        a:b:c:d\nx:y\nnodelim\ntrailing no newline";

    #[test]
    fn op_shapes() {
        assert_eq!(op_shape("tr", &strs(&["A-Z", "a-z"])), Some(KernelShape::PerChunk));
        assert_eq!(op_shape("cat", &[]), Some(KernelShape::PerChunk));
        assert_eq!(op_shape("grep", &strs(&["x"])), Some(KernelShape::PerLine));
        assert_eq!(op_shape("cut", &strs(&["-c", "1-3"])), Some(KernelShape::PerLine));
        assert_eq!(op_shape("head", &strs(&["-n2"])), Some(KernelShape::PerLine));
        assert_eq!(op_shape("sed", &strs(&["s/a/b/"])), Some(KernelShape::PerLine));
        assert_eq!(op_shape("uniq", &[]), Some(KernelShape::PerLine));
        // Unsupported invocations are rejected, not misexecuted.
        assert_eq!(op_shape("grep", &strs(&["-c", "x"])), None);
        assert_eq!(op_shape("grep", &strs(&["x", "/file"])), None);
        assert_eq!(op_shape("head", &strs(&["-c", "5"])), None);
        assert_eq!(op_shape("uniq", &strs(&["-c"])), None);
        assert_eq!(op_shape("sed", &strs(&["$d"])), None);
        assert_eq!(op_shape("sort", &[]), None);
        assert_eq!(op_shape("tr", &strs(&["-x", "a", "b"])), None);
        assert_eq!(op_shape("cat", &strs(&["/f"])), None);
    }

    #[test]
    fn single_ops_conform() {
        let cases: Vec<(&str, Vec<String>)> = vec![
            ("cat", strs(&[])),
            ("tr", strs(&["A-Z", "a-z"])),
            ("tr", strs(&["-d", "aeiou"])),
            ("tr", strs(&["-cs", "A-Za-z", "\n"])),
            ("tr", strs(&["-s", "a"])),
            ("tr", strs(&["abc", "xy"])),
            ("tr", strs(&["-c", "a-z\n", "_"])),
            ("tr", strs(&["-cd", "a-z\n"])),
            ("tr", strs(&["-ds", "a", "b"])),
            ("tr", strs(&["-s", "a-z", "A-Z"])),
            ("grep", strs(&["the"])),
            ("grep", strs(&["-v", "a"])),
            ("grep", strs(&["-in", "hello"])),
            ("grep", strs(&["-E", "fox|dog"])),
            ("grep", strs(&["-F", "a:b"])),
            ("grep", strs(&["^the"])),
            ("grep", strs(&["a$"])),
            ("grep", strs(&["-v", "^aaa$"])),
            ("grep", strs(&["-E", "^the|[0-9]+ times$|^x"])),
            ("grep", strs(&["-n", "^[a-z]*$"])),
            ("cut", strs(&["-c", "1-5"])),
            ("cut", strs(&["-c", "3-"])),
            ("cut", strs(&["-b", "4"])),
            ("cut", strs(&["-c", "-2"])),
            ("cut", strs(&["-c", "1-4,9-12"])),
            ("cut", strs(&["-c", "7-,2-3"])),
            ("cut", strs(&["-c", "3-", "--"])),
            ("cut", strs(&["-d:", "-f1,3"])),
            ("cut", strs(&["-d:", "-f2", "-s"])),
            ("sed", strs(&["s/a/X/g"])),
            ("sed", strs(&["/o/d"])),
            ("sed", strs(&["-n", "/the/p"])),
            ("sed", strs(&["2,3d"])),
            ("sed", strs(&["3q"])),
            ("head", strs(&["-n3"])),
            ("head", strs(&["-n", "0"])),
            ("head", strs(&["-n", "100"])),
            ("rev", strs(&[])),
            ("fold", strs(&["-w5"])),
            ("uniq", strs(&[])),
        ];
        for (name, args) in cases {
            conform(&[(name, args)], CORPUS);
        }
    }

    #[test]
    fn chains_conform() {
        let chains: Vec<Vec<(&str, Vec<String>)>> = vec![
            vec![
                ("tr", strs(&["A-Z", "a-z"])),
                ("grep", strs(&["the"])),
                ("cut", strs(&["-c", "1-8"])),
                ("head", strs(&["-n2"])),
            ],
            vec![
                ("tr", strs(&["-cs", "A-Za-z", "\n"])),
                ("uniq", strs(&[])),
                ("rev", strs(&[])),
            ],
            vec![
                ("sed", strs(&["s/:/ /g"])),
                ("fold", strs(&["-w4"])),
                ("grep", strs(&["-v", "x"])),
            ],
            vec![("head", strs(&["-n5"])), ("tr", strs(&["a-z", "A-Z"]))],
            vec![("grep", strs(&["zzz-no-match"])), ("cat", strs(&[]))],
            vec![("cat", strs(&[])), ("sed", strs(&["2q"])), ("rev", strs(&[]))],
        ];
        for chain in chains {
            conform(&chain, CORPUS);
        }
    }

    #[test]
    fn grep_status_propagates_like_a_pipeline() {
        // grep last in chain: its 0/1 is the kernel status.
        let (_, st) = run_kernel(&[("grep", strs(&["nope"]))], CORPUS, 64);
        assert_eq!(st, 1);
        let (_, st) = run_kernel(&[("grep", strs(&["the"]))], CORPUS, 64);
        assert_eq!(st, 0);
        // grep mid-chain: the final stage's status wins, like bash.
        let (_, st) = run_kernel(
            &[("grep", strs(&["nope"])), ("cat", strs(&[]))],
            CORPUS,
            64,
        );
        assert_eq!(st, 0);
    }

    #[test]
    fn early_stop_stops_consuming() {
        let mut k = Kernel::build(&[("head", strs(&["-n1"]))]).unwrap();
        let mut out = Vec::new();
        assert!(!k.feed(b"a\nb\nc\n", &mut out));
        assert!(k.stopped());
        k.finish(&mut out);
        assert_eq!(out, b"a\n");
    }

    #[test]
    fn carry_spans_many_chunks() {
        // A single long line delivered one byte at a time.
        let line = vec![b'x'; 1000];
        let mut input = line.clone();
        input.push(b'\n');
        conform(&[("cut", strs(&["-c", "998-"]))], &input);
    }

    #[test]
    fn squeeze_state_survives_chunk_boundaries() {
        // `tr -s` must squeeze runs that straddle chunk edges.
        conform(&[("tr", strs(&["-s", "a"]))], b"aaaaaaaabaaaa\naaaa");
    }

    /// Seeded fuzz of the shapes with a slice-speed body against the
    /// utilities: random text, random operands, and chunk sizes that put
    /// most boundaries inside a line.
    #[test]
    fn slice_bodies_conform_on_random_text() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..60 {
            let mut text = Vec::new();
            for _ in 0..rng.random_range(0..12) {
                let len = rng.random_range(0..40);
                text.extend((0..len).map(|_| b"abAB  9:\xc3"[rng.random_range(0..9)]));
                text.push(b'\n');
            }
            if rng.random_range(0..3) == 0 {
                text.pop();
            }
            let (lo, hi): (usize, usize) = (rng.random_range(1..20), rng.random_range(1..30));
            let stage = match rng.random_range(0..7) {
                0 => ("cut", vec!["-c".to_string(), format!("{lo}-{}", lo + hi)]),
                1 => ("cut", vec!["-c".to_string(), format!("{lo}-")]),
                2 => ("cut", vec![format!("-c{lo},{}-{}", lo + 2, lo + hi)]),
                3 => ("tr", strs(&["a-b", "x"])),
                4 => ("tr", strs(&["-d", "a9"])),
                5 => ("tr", strs(&["-s", " a"])),
                _ => ("tr", strs(&["-cs", "a-zA-Z", "\n"])),
            };
            conform(&[stage], &text);
        }
    }

    #[test]
    fn lines_counter_counts_input_lines() {
        let mut k = Kernel::build(&[("cat", Vec::new())]).unwrap();
        let mut out = Vec::new();
        k.feed(b"a\nb\nc", &mut out);
        k.finish(&mut out);
        assert_eq!(k.lines(), 2);
    }

    #[test]
    fn build_rejects_unknown_stage() {
        let err = match Kernel::build(&[("sort", Vec::new())]) {
            Ok(_) => panic!("sort must not build"),
            Err(e) => e,
        };
        assert!(err.contains("sort"));
    }
}
