//! Pull-based byte streams and push-based sinks.

use bytes::Bytes;
use std::io;

/// Default chunk granularity for streaming operators.
pub const DEFAULT_CHUNK: usize = 128 * 1024;

/// A pull-based stream of byte chunks.
///
/// Streams connect coreutils operators, pipes, and files. `next_chunk`
/// returns `Ok(None)` exactly once, at end of stream; implementations may
/// return chunks of any non-zero size.
pub trait ByteStream: Send {
    /// Pulls the next chunk, or `None` at end of stream.
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>>;

    /// Reads the remainder of the stream into one buffer.
    fn read_to_vec(&mut self) -> io::Result<Vec<u8>>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }
}

/// Boxed stream alias used across crate boundaries.
pub type BoxStream = Box<dyn ByteStream>;

impl ByteStream for Box<dyn ByteStream> {
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        (**self).next_chunk()
    }
}

/// Reads everything from a boxed stream.
pub fn read_all(stream: &mut dyn ByteStream) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    while let Some(chunk) = stream.next_chunk()? {
        out.extend_from_slice(&chunk);
    }
    Ok(out)
}

/// A push-based consumer of byte chunks.
pub trait Sink: Send {
    /// Accepts one chunk. May block for backpressure.
    fn write_chunk(&mut self, chunk: Bytes) -> io::Result<()>;

    /// Signals end of stream. Must be called exactly once.
    fn finish(&mut self) -> io::Result<()>;
}

impl<S: Sink + ?Sized> Sink for &mut S {
    fn write_chunk(&mut self, chunk: Bytes) -> io::Result<()> {
        (**self).write_chunk(chunk)
    }

    fn finish(&mut self) -> io::Result<()> {
        (**self).finish()
    }
}

impl Sink for Box<dyn Sink> {
    fn write_chunk(&mut self, chunk: Bytes) -> io::Result<()> {
        (**self).write_chunk(chunk)
    }

    fn finish(&mut self) -> io::Result<()> {
        (**self).finish()
    }
}

/// An in-memory stream over a fixed sequence of chunks.
pub struct MemStream {
    chunks: std::vec::IntoIter<Bytes>,
}

impl MemStream {
    /// Streams `data` as a single chunk.
    pub fn from_bytes(data: impl Into<Bytes>) -> Self {
        let b: Bytes = data.into();
        let chunks = if b.is_empty() { vec![] } else { vec![b] };
        MemStream {
            chunks: chunks.into_iter(),
        }
    }

    /// Streams a sequence of chunks.
    pub fn from_chunks(chunks: Vec<Bytes>) -> Self {
        MemStream {
            chunks: chunks.into_iter(),
        }
    }

    /// An empty stream.
    pub fn empty() -> Self {
        MemStream::from_chunks(Vec::new())
    }
}

impl ByteStream for MemStream {
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        Ok(self.chunks.next())
    }
}

/// A sink that collects everything into a `Vec<u8>`.
#[derive(Default)]
pub struct VecSink {
    /// Collected bytes.
    pub data: Vec<u8>,
    finished: bool,
}

impl VecSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Whether `finish` has been called.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl Sink for VecSink {
    fn write_chunk(&mut self, chunk: Bytes) -> io::Result<()> {
        self.data.extend_from_slice(&chunk);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.finished = true;
        Ok(())
    }
}

/// Copies a stream into a sink, returning the number of bytes moved.
pub fn copy(src: &mut dyn ByteStream, dst: &mut dyn Sink) -> io::Result<u64> {
    let mut n = 0u64;
    while let Some(chunk) = src.next_chunk()? {
        n += chunk.len() as u64;
        dst.write_chunk(chunk)?;
    }
    dst.finish()?;
    Ok(n)
}

/// Batches small writes into ~128 KiB chunks before forwarding.
///
/// Line-oriented producers (`grep`, `sed`, `uniq`, …) emit one write per
/// line; a pipe send or a modeled disk request per line would dominate
/// everything, so executors wrap command stdout in this.
pub struct CoalescingSink<S: Sink> {
    inner: S,
    buf: Vec<u8>,
    threshold: usize,
}

impl<S: Sink> CoalescingSink<S> {
    /// Wraps `inner` with the default 128 KiB threshold.
    pub fn new(inner: S) -> Self {
        CoalescingSink {
            inner,
            buf: Vec::new(),
            threshold: DEFAULT_CHUNK,
        }
    }

    /// Consumes the wrapper, returning the inner sink (buffer must be
    /// flushed via [`Sink::finish`] first).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Sink> Sink for CoalescingSink<S> {
    fn write_chunk(&mut self, chunk: Bytes) -> io::Result<()> {
        if chunk.len() >= self.threshold && self.buf.is_empty() {
            return self.inner.write_chunk(chunk);
        }
        self.buf.extend_from_slice(&chunk);
        if self.buf.len() >= self.threshold {
            self.inner
                .write_chunk(Bytes::from(std::mem::take(&mut self.buf)))?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.inner
                .write_chunk(Bytes::from(std::mem::take(&mut self.buf)))?;
        }
        self.inner.finish()
    }
}

/// A stream wrapper that counts the bytes pulled through it.
///
/// The counter is a shared atomic so the executor can read per-node
/// byte totals after the node's thread has finished (the stream itself
/// is consumed inside the thread).
pub struct CountingStream<S> {
    inner: S,
    count: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl<S: ByteStream> CountingStream<S> {
    /// Wraps `inner`, adding every pulled chunk's length to `count`.
    pub fn new(inner: S, count: std::sync::Arc<std::sync::atomic::AtomicU64>) -> Self {
        CountingStream { inner, count }
    }
}

impl<S: ByteStream> ByteStream for CountingStream<S> {
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        let chunk = self.inner.next_chunk()?;
        if let Some(c) = &chunk {
            self.count
                .fetch_add(c.len() as u64, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(chunk)
    }
}

/// A sink wrapper that counts the bytes pushed through it.
pub struct CountingSink<S> {
    inner: S,
    count: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl<S: Sink> CountingSink<S> {
    /// Wraps `inner`, adding every written chunk's length to `count`.
    pub fn new(inner: S, count: std::sync::Arc<std::sync::atomic::AtomicU64>) -> Self {
        CountingSink { inner, count }
    }
}

impl<S: Sink> Sink for CountingSink<S> {
    fn write_chunk(&mut self, chunk: Bytes) -> io::Result<()> {
        self.count
            .fetch_add(chunk.len() as u64, std::sync::atomic::Ordering::Relaxed);
        self.inner.write_chunk(chunk)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// Chains multiple streams end to end (the streaming `cat`).
pub struct ChainStream {
    streams: std::collections::VecDeque<BoxStream>,
}

impl ChainStream {
    /// Chains `streams` in order.
    pub fn new(streams: Vec<BoxStream>) -> Self {
        ChainStream {
            streams: streams.into(),
        }
    }
}

impl ByteStream for ChainStream {
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        while let Some(front) = self.streams.front_mut() {
            match front.next_chunk()? {
                Some(chunk) => return Ok(Some(chunk)),
                None => {
                    self.streams.pop_front();
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_stream_roundtrip() {
        let mut s = MemStream::from_bytes("hello world");
        assert_eq!(read_all(&mut s).unwrap(), b"hello world");
        assert!(s.next_chunk().unwrap().is_none());
    }

    #[test]
    fn empty_stream_is_empty() {
        let mut s = MemStream::empty();
        assert!(s.next_chunk().unwrap().is_none());
    }

    #[test]
    fn copy_moves_all_bytes() {
        let mut src = MemStream::from_chunks(vec![Bytes::from("ab"), Bytes::from("cd")]);
        let mut dst = VecSink::new();
        let n = copy(&mut src, &mut dst).unwrap();
        assert_eq!(n, 4);
        assert_eq!(dst.data, b"abcd");
        assert!(dst.is_finished());
    }

    #[test]
    fn counting_adapters_count() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let read = Arc::new(AtomicU64::new(0));
        let wrote = Arc::new(AtomicU64::new(0));
        let mut src = CountingStream::new(
            MemStream::from_chunks(vec![Bytes::from("abc"), Bytes::from("de")]),
            Arc::clone(&read),
        );
        let mut dst = CountingSink::new(VecSink::new(), Arc::clone(&wrote));
        copy(&mut src, &mut dst).unwrap();
        assert_eq!(read.load(Ordering::Relaxed), 5);
        assert_eq!(wrote.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn chain_concatenates() {
        let a = Box::new(MemStream::from_bytes("one")) as BoxStream;
        let b = Box::new(MemStream::empty()) as BoxStream;
        let c = Box::new(MemStream::from_bytes("two")) as BoxStream;
        let mut chained = ChainStream::new(vec![a, b, c]);
        assert_eq!(read_all(&mut chained).unwrap(), b"onetwo");
    }
}
