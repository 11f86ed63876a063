//! Content-addressed memo table stored on the virtual filesystem.
//!
//! This lives in `jash-io` (rather than `jash-incremental`, which
//! re-exports it) because both the incremental runner *and* the core
//! session's crash-recovery path consult it: resume after a crash
//! satisfies journaled-clean regions from the memo instead of
//! re-executing them, and `jash-core` sits below `jash-incremental` in
//! the dependency order.

use crate::FsHandle;
use std::io;

/// 64-bit FNV-1a — small, dependency-free, adequate for cache addressing
/// (keys also embed lengths, so accidental collisions need both a hash
/// and a length match). Also the per-record checksum of the execution
/// journal ([`crate::journal`]).
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_INIT, data)
}

/// The FNV-1a state of the empty input: where a chunk-by-chunk fold with
/// [`fnv1a_fold`] starts.
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `data` into the running FNV-1a state `h`. Folding the chunks of
/// an input in order from [`FNV1A_INIT`] yields [`fnv1a`] of their
/// concatenation, so an input can be fingerprinted without being held.
pub fn fnv1a_fold(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hit/miss counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Full replays from cache.
    pub hits: u64,
    /// Partial (suffix) reuses.
    pub partial_hits: u64,
    /// Complete executions.
    pub misses: u64,
}

/// A memo table rooted at a directory on the shell's filesystem.
pub struct Memo {
    fs: FsHandle,
    dir: String,
    durable: bool,
}

/// One cached entry: the input fingerprint it was computed from plus the
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Byte length of the input the output corresponds to.
    pub input_len: u64,
    /// FNV-1a of that input.
    pub input_hash: u64,
    /// Cached stdout.
    pub output: Vec<u8>,
}

impl Memo {
    /// Opens (or implicitly creates) a memo table under `dir`. Durable by
    /// default: entries that gate crash resume must themselves survive
    /// the crash (disable via [`Memo::with_durable`]).
    pub fn new(fs: FsHandle, dir: impl Into<String>) -> Self {
        Memo {
            fs,
            dir: dir.into(),
            durable: true,
        }
    }

    /// Sets whether [`Memo::put`] fsyncs entry files and the table
    /// directory.
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    fn meta_path(&self, key: u64) -> String {
        format!("{}/{key:016x}.meta", self.dir.trim_end_matches('/'))
    }

    fn data_path(&self, key: u64) -> String {
        format!("{}/{key:016x}.out", self.dir.trim_end_matches('/'))
    }

    /// Looks up an entry by plan key.
    pub fn get(&self, key: u64) -> io::Result<Option<Entry>> {
        if !self.fs.exists(&self.meta_path(key)) {
            return Ok(None);
        }
        let meta = crate::fs::read_to_string(self.fs.as_ref(), &self.meta_path(key))?;
        let mut parts = meta.split_whitespace();
        let (Some(len), Some(hash)) = (parts.next(), parts.next()) else {
            return Ok(None);
        };
        let (Ok(input_len), Ok(input_hash)) = (len.parse(), u64::from_str_radix(hash, 16))
        else {
            return Ok(None);
        };
        let output = crate::fs::read_to_vec(self.fs.as_ref(), &self.data_path(key))?;
        Ok(Some(Entry {
            input_len,
            input_hash,
            output,
        }))
    }

    /// Stores an entry. The data file is written (and fsync'd, when
    /// durable) *before* the meta file that makes the entry visible, so a
    /// crash between the two leaves a missing entry, never a dangling one.
    pub fn put(&self, key: u64, entry: &Entry) -> io::Result<()> {
        crate::fs::write_file(self.fs.as_ref(), &self.data_path(key), &entry.output)?;
        if self.durable {
            self.fs.sync(&self.data_path(key))?;
        }
        crate::fs::write_file(
            self.fs.as_ref(),
            &self.meta_path(key),
            format!("{} {:016x}\n", entry.input_len, entry.input_hash).as_bytes(),
        )?;
        if self.durable {
            self.fs.sync(&self.meta_path(key))?;
            self.fs.sync_dir(self.dir.trim_end_matches('/'))?;
        }
        Ok(())
    }

    /// Drops an entry (used when an execution supersedes it).
    pub fn invalidate(&self, key: u64) -> io::Result<()> {
        let _ = self.fs.remove(&self.meta_path(key));
        let _ = self.fs.remove(&self.data_path(key));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn chunked_fold_equals_the_one_shot_hash() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        for cut in [0, 1, 499, 1000] {
            let (a, b) = data.split_at(cut);
            assert_eq!(fnv1a_fold(fnv1a_fold(FNV1A_INIT, a), b), fnv1a(&data));
        }
    }

    #[test]
    fn memo_roundtrip() {
        let fs = crate::mem_fs();
        let memo = Memo::new(fs, "/.cache");
        assert!(memo.get(42).unwrap().is_none());
        let e = Entry {
            input_len: 10,
            input_hash: 0xdead_beef,
            output: b"result\n".to_vec(),
        };
        memo.put(42, &e).unwrap();
        assert_eq!(memo.get(42).unwrap().unwrap(), e);
        memo.invalidate(42).unwrap();
        assert!(memo.get(42).unwrap().is_none());
    }

    #[test]
    fn durable_puts_sync_through_the_fs() {
        let mem = std::sync::Arc::new(crate::MemFs::new());
        let fs: FsHandle = std::sync::Arc::clone(&mem) as FsHandle;
        let entry = Entry {
            input_len: 1,
            input_hash: 2,
            output: b"x".to_vec(),
        };
        Memo::new(std::sync::Arc::clone(&fs), "/.cache")
            .put(1, &entry)
            .unwrap();
        assert!(mem.sync_count() >= 3, "data + meta + directory fsync");
        let before = mem.sync_count();
        Memo::new(fs, "/.cache")
            .with_durable(false)
            .put(2, &entry)
            .unwrap();
        assert_eq!(mem.sync_count(), before);
    }
}
