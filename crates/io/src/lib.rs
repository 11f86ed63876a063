//! I/O substrate: byte streams, a virtual filesystem, bounded pipes, and a
//! simulated disk.
//!
//! Everything in the reproduction moves data through these abstractions so
//! that the same script can run against the real filesystem
//! ([`fs::RealFs`]) or an in-memory one ([`fs::MemFs`]) whose reads and
//! writes are metered by a shared [`disk::DiskModel`]. The disk model is
//! the substitution for the paper's EC2 gp2/gp3 volumes (Figure 1): a
//! token bucket shared by every stream on the machine reproduces the
//! bandwidth/IOPS contention that makes resource-oblivious parallelism
//! backfire on slow disks.

pub mod accounts;
pub mod cancel;
pub mod cpu;
pub mod disk;
pub mod fault;
pub mod fs;
pub mod journal;
pub mod ledger;
pub mod lines;
pub mod memo;
pub mod pipe;
mod recordlog;
pub mod stream;
pub mod tempdir;

pub use accounts::{FairShareBucket, MeteredFs, UsageMeter};
pub use cancel::{deadline_code, deadline_reason, CancelToken, DeadlineGuard, DEADLINE_PREFIX};
pub use cpu::{cpu_rate, fused_cpu_rate, CpuMeteredStream, CpuModel};
pub use disk::{DiskModel, DiskProfile, DiskStats};
pub use fault::{FaultFs, FaultPlan, FaultStream};
pub use fs::{FileMeta, Fs, MemFs, RealFs};
pub use journal::{Journal, JournalRecord, Replay};
pub use ledger::{Ledger, LedgerRecord, LedgerReplay, LedgerState};
pub use memo::{fnv1a, fnv1a_fold, Memo, FNV1A_INIT};
pub use lines::{split_lines, LineBuffer};
pub use pipe::{pipe, pipe_with, PipeHooks, PipeReader, PipeWriter, DEFAULT_PIPE_DEPTH};
pub use stream::{
    ByteStream, CoalescingSink, CountingSink, CountingStream, MemStream, Sink, VecSink,
    DEFAULT_CHUNK,
};
pub use tempdir::TempDir;

use std::sync::Arc;

/// Shared handle to a filesystem implementation.
pub type FsHandle = Arc<dyn Fs>;

/// Convenience: an in-memory filesystem handle with no disk model.
pub fn mem_fs() -> FsHandle {
    Arc::new(MemFs::new())
}

/// Convenience: an in-memory filesystem throttled by `profile`.
pub fn mem_fs_with_disk(profile: DiskProfile) -> FsHandle {
    Arc::new(MemFs::with_disk(DiskModel::new(profile)))
}
