//! Rebindable standard-IO descriptors for the interpreter.
//!
//! Redirects and pipelines work by *rebinding* rather than by mutating
//! global fds: a [`ShellIo`] value holds cheaply-cloneable bindings for
//! fds 0/1/2, and command execution materializes them into concrete
//! streams/sinks at the last moment. Bindings are thread-safe so pipeline
//! stages can run concurrently.

use bytes::Bytes;
use jash_io::{ByteStream, FsHandle, MemStream, PipeReader, PipeWriter, Sink};
use parking_lot::Mutex;
use std::io;
use std::sync::Arc;

/// Where a command's stdin comes from.
#[derive(Clone)]
pub enum InputBinding {
    /// No input (immediate EOF).
    Empty,
    /// A file on the virtual filesystem (absolute path).
    File(String),
    /// In-memory bytes (here-documents, buffered pipeline stages).
    Memory(Arc<Vec<u8>>),
    /// The read end of a pipe; consumed by the first opener.
    Pipe(Arc<Mutex<Option<PipeReader>>>),
    /// A persistent shared cursor: successive consumers continue where
    /// the previous one stopped (`{ read a; read b; } < f`).
    Stream(Arc<Mutex<LineStream>>),
}

impl InputBinding {
    /// Materializes the binding into a stream.
    pub fn open(&self, fs: &FsHandle) -> io::Result<Box<dyn ByteStream>> {
        Ok(match self {
            InputBinding::Empty => Box::new(MemStream::empty()),
            InputBinding::File(path) => {
                Box::new(jash_io::fs::FileStream::open(fs.as_ref(), path)?)
            }
            InputBinding::Memory(data) => {
                Box::new(MemStream::from_bytes(Bytes::from(data.as_ref().clone())))
            }
            InputBinding::Pipe(slot) => match slot.lock().take() {
                Some(r) => Box::new(r),
                None => Box::new(MemStream::empty()),
            },
            InputBinding::Stream(shared) => Box::new(SharedCursorStream(Arc::clone(shared))),
        })
    }
}

/// A stream with an incremental line cursor.
pub struct LineStream {
    stream: Box<dyn ByteStream>,
    lb: jash_io::LineBuffer,
    eof: bool,
}

impl LineStream {
    /// Wraps a raw stream.
    pub fn new(stream: Box<dyn ByteStream>) -> Self {
        LineStream {
            stream,
            lb: jash_io::LineBuffer::new(),
            eof: false,
        }
    }

    /// Reads the next line (without the newline); `None` at EOF.
    pub fn read_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(line) = self.lb.next_line_ref() {
                return Ok(Some(line[..line.len() - 1].to_vec()));
            }
            if self.eof {
                return Ok(self.lb.take_rest().map(|b| b.to_vec()));
            }
            match self.stream.next_chunk()? {
                Some(chunk) => self.lb.push_bytes(chunk),
                None => self.eof = true,
            }
        }
    }

    /// Drains everything left.
    pub fn read_rest(&mut self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        if let Some(rest) = self.lb.take_rest() {
            out.extend_from_slice(&rest);
        }
        while let Some(chunk) = self.stream.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        self.eof = true;
        Ok(out)
    }
}

struct SharedCursorStream(Arc<Mutex<LineStream>>);

impl ByteStream for SharedCursorStream {
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        let data = self.0.lock().read_rest()?;
        if data.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Bytes::from(data)))
        }
    }
}

/// Where a command's stdout/stderr goes.
#[derive(Clone)]
pub enum OutputBinding {
    /// Append into a shared in-memory buffer (captures).
    Shared(Arc<Mutex<Vec<u8>>>),
    /// A file on the virtual filesystem.
    File {
        /// Absolute path.
        path: String,
        /// `>>` instead of `>`.
        append: bool,
    },
    /// Discard.
    Null,
    /// The write end of a pipe; consumed by the first opener.
    Pipe(Arc<Mutex<Option<PipeWriter>>>),
}

impl OutputBinding {
    /// Two bindings denote the same destination (for `2>&1` dedup).
    pub fn same_target(&self, other: &OutputBinding) -> bool {
        match (self, other) {
            (OutputBinding::Shared(a), OutputBinding::Shared(b)) => Arc::ptr_eq(a, b),
            (
                OutputBinding::File { path: a, .. },
                OutputBinding::File { path: b, .. },
            ) => a == b,
            (OutputBinding::Null, OutputBinding::Null) => true,
            (OutputBinding::Pipe(a), OutputBinding::Pipe(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Materializes the binding into a sink.
    pub fn open(&self, fs: &FsHandle) -> io::Result<Box<dyn Sink>> {
        Ok(match self {
            OutputBinding::Shared(buf) => Box::new(SharedSink(Arc::clone(buf))),
            OutputBinding::File { path, append } => {
                Box::new(jash_io::fs::FileSink::create(fs.as_ref(), path, *append)?)
            }
            OutputBinding::Null => Box::new(NullSink),
            OutputBinding::Pipe(slot) => match slot.lock().take() {
                Some(w) => Box::new(w),
                None => Box::new(NullSink),
            },
        })
    }

    /// Opens stdout and stderr together, sharing the underlying sink when
    /// they point at the same file (so `>f 2>&1` does not truncate twice).
    pub fn open_pair(
        out: &OutputBinding,
        err: &OutputBinding,
        fs: &FsHandle,
    ) -> io::Result<(Box<dyn Sink>, Box<dyn Sink>)> {
        if out.same_target(err) {
            if let OutputBinding::File { .. } = out {
                let inner: Arc<Mutex<Box<dyn Sink>>> = Arc::new(Mutex::new(out.open(fs)?));
                return Ok((
                    Box::new(FanInSink(Arc::clone(&inner))),
                    Box::new(FanInSink(inner)),
                ));
            }
        }
        Ok((out.open(fs)?, err.open(fs)?))
    }
}

/// The three standard descriptors.
#[derive(Clone)]
pub struct ShellIo {
    /// fd 0.
    pub stdin: InputBinding,
    /// fd 1.
    pub stdout: OutputBinding,
    /// fd 2.
    pub stderr: OutputBinding,
}

/// A shared capture buffer (stdout or stderr of a captured session).
pub type SharedBuf = Arc<Mutex<Vec<u8>>>;

impl ShellIo {
    /// Captured stdio: fresh buffers for stdout/stderr, empty stdin.
    /// Returns the io and the two buffers.
    pub fn captured() -> (Self, SharedBuf, SharedBuf) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let err = Arc::new(Mutex::new(Vec::new()));
        (
            ShellIo {
                stdin: InputBinding::Empty,
                stdout: OutputBinding::Shared(Arc::clone(&out)),
                stderr: OutputBinding::Shared(Arc::clone(&err)),
            },
            out,
            err,
        )
    }
}

struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Sink for SharedSink {
    fn write_chunk(&mut self, chunk: Bytes) -> io::Result<()> {
        self.0.lock().extend_from_slice(&chunk);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct NullSink;

impl Sink for NullSink {
    fn write_chunk(&mut self, _chunk: Bytes) -> io::Result<()> {
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct FanInSink(Arc<Mutex<Box<dyn Sink>>>);

impl Sink for FanInSink {
    fn write_chunk(&mut self, chunk: Bytes) -> io::Result<()> {
        self.0.lock().write_chunk(chunk)
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_input_roundtrip() {
        let fs = jash_io::mem_fs();
        let b = InputBinding::Memory(Arc::new(b"data".to_vec()));
        let mut s = b.open(&fs).unwrap();
        assert_eq!(jash_io::stream::read_all(s.as_mut()).unwrap(), b"data");
    }

    #[test]
    fn shared_output_collects() {
        let fs = jash_io::mem_fs();
        let (io, out, _) = ShellIo::captured();
        let mut sink = io.stdout.open(&fs).unwrap();
        sink.write_chunk(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(&*out.lock(), b"hello");
    }

    #[test]
    fn file_pair_shares_handle() {
        let fs = jash_io::mem_fs();
        let out = OutputBinding::File {
            path: "/log".into(),
            append: false,
        };
        let err = out.clone();
        let (mut o, mut e) = OutputBinding::open_pair(&out, &err, &fs).unwrap();
        o.write_chunk(Bytes::from_static(b"from-out\n")).unwrap();
        e.write_chunk(Bytes::from_static(b"from-err\n")).unwrap();
        drop((o, e));
        assert_eq!(
            jash_io::fs::read_to_vec(fs.as_ref(), "/log").unwrap(),
            b"from-out\nfrom-err\n"
        );
    }

    #[test]
    fn pipe_binding_consumed_once() {
        let fs = jash_io::mem_fs();
        let (w, r) = jash_io::pipe(2);
        let b = InputBinding::Pipe(Arc::new(Mutex::new(Some(r))));
        drop(w);
        let mut s1 = b.open(&fs).unwrap();
        assert!(s1.next_chunk().unwrap().is_none());
        // A second open yields empty rather than panicking.
        let mut s2 = b.open(&fs).unwrap();
        assert!(s2.next_chunk().unwrap().is_none());
    }
}
