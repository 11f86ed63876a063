//! Line framing, splitting and merging are linear in the bytes moved.
//!
//! A framer that moves the rest of the chunk for every line it takes out
//! is quadratic in the lines of a chunk: on the input below it moves about
//! 2 × 10^13 bytes per pass — hours. The budget is seconds, with room for
//! an unoptimized build on a loaded machine.

use bytes::Bytes;
use jash_exec::{balanced_targets, run_merge, split_contiguous};
use jash_io::{ByteStream, LineBuffer, MemStream, Sink, VecSink};
use jash_spec::{Aggregator, SortKeySpec};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUDGET: Duration = Duration::from_secs(30);

struct Shared(Arc<Mutex<Vec<u8>>>);

impl Sink for Shared {
    fn write_chunk(&mut self, c: Bytes) -> std::io::Result<()> {
        self.0.lock().extend_from_slice(&c);
        Ok(())
    }
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn one_big_chunk_of_tiny_lines_is_not_quadratic() {
    // 8 MiB of one-byte lines, sorted, delivered as a single chunk.
    const LINES: usize = 4 << 20;
    let mut data = Vec::with_capacity(2 * LINES);
    for i in 0..LINES {
        data.extend_from_slice(&[b'a' + (i / (LINES / 4)) as u8, b'\n']);
    }
    let chunk = Bytes::from(data);
    let start = Instant::now();

    let mut lb = LineBuffer::new();
    lb.push_bytes(chunk.clone());
    let mut framed = 0;
    while let Some(line) = lb.next_line() {
        assert_eq!(line.len(), 2);
        framed += 1;
    }
    assert_eq!(framed, LINES);
    assert!(lb.take_rest().is_none());

    let parts: Vec<Arc<Mutex<Vec<u8>>>> = (0..4).map(|_| Default::default()).collect();
    let mut sinks: Vec<Box<dyn Sink>> = parts
        .iter()
        .map(|p| Box::new(Shared(p.clone())) as Box<dyn Sink>)
        .collect();
    let targets = balanced_targets(chunk.len() as u64, 4);
    split_contiguous(
        &mut MemStream::from_bytes(chunk.clone()),
        &mut sinks,
        &targets,
    )
    .unwrap();
    let parts: Vec<Vec<u8>> = parts
        .iter()
        .map(|p| std::mem::take(&mut *p.lock()))
        .collect();
    assert!(parts.iter().all(|p| p.len() == chunk.len() / 4));
    assert!(parts.concat() == chunk[..]);

    // Merge the odd branches with the even ones, each again one chunk.
    let halves = [
        [&parts[0][..], &parts[2][..]].concat(),
        [&parts[1][..], &parts[3][..]].concat(),
    ];
    let inputs: Vec<Box<dyn ByteStream>> = halves
        .into_iter()
        .map(|h| Box::new(MemStream::from_bytes(h)) as Box<dyn ByteStream>)
        .collect();
    let agg = Aggregator::MergeSort {
        key: SortKeySpec::default(),
    };
    let mut merged = VecSink::new();
    run_merge(&agg, inputs, &mut merged).unwrap();
    assert!(
        merged.data == chunk[..],
        "the merge of the branches is the sorted input"
    );

    let took = start.elapsed();
    assert!(
        took < BUDGET,
        "framing, splitting and merging 8 MiB took {took:?}"
    );
}
