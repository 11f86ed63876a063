//! The checksummed-line record log under [`crate::Journal`] and
//! [`crate::Ledger`]: one framing (`<fnv1a-of-payload:016x> <payload>\n`,
//! payloads being their owner's business), one durability rule, one replay.

use crate::fs::Fs;
use crate::memo::fnv1a;
use crate::FsHandle;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// An append-only record file on a virtual filesystem.
///
/// A durable append fsyncs the file every time, and the parent directory
/// only when the file's entry may not be durable yet: after an append
/// that created the file, and on the handle's first (the file's creator
/// may have died before syncing the entry). Any other append changes the
/// file, never the directory.
pub(crate) struct RecordLog {
    fs: FsHandle,
    path: String,
    durable: bool,
    dir_synced: AtomicBool,
    fsyncs: AtomicU64,
}

impl RecordLog {
    pub(crate) fn open(fs: FsHandle, path: String, durable: bool) -> Self {
        RecordLog {
            fs,
            path,
            durable,
            dir_synced: AtomicBool::new(false),
            fsyncs: AtomicU64::new(0),
        }
    }

    /// How many fsync barriers (file and directory) this handle issued.
    pub(crate) fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Appends `payloads` as consecutive records in one write under one
    /// barrier: after a crash replay returns a prefix of them, in order.
    pub(crate) fn append(&self, payloads: &[String]) -> io::Result<()> {
        let lines: String = payloads
            .iter()
            .map(|p| format!("{:016x} {p}\n", fnv1a(p.as_bytes())))
            .collect();
        let sync_dir = self.durable
            && (!self.dir_synced.load(Ordering::Relaxed) || !self.fs.exists(&self.path));
        self.fs
            .open_write(&self.path, true)?
            .write_all(lines.as_bytes())?;
        if self.durable {
            self.fs.sync(&self.path)?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            if sync_dir {
                self.fs.sync_dir(parent_dir(&self.path))?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                self.dir_synced.store(true, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Replays the log at `path`: the intact records in append order, and
    /// whether the file ended in a torn record (dropped, with everything
    /// after it). A missing file is an empty replay, not an error.
    pub(crate) fn replay<T>(
        fs: &dyn Fs,
        path: &str,
        decode: impl Fn(&str) -> Option<T>,
    ) -> io::Result<(Vec<T>, bool)> {
        let mut records = Vec::new();
        if !fs.exists(path) {
            return Ok((records, false));
        }
        let raw = crate::fs::read_to_vec(fs, path)?;
        let text = String::from_utf8_lossy(&raw);
        let mut rest = text.as_ref();
        while !rest.is_empty() {
            // A crash mid-append leaves a final line with no newline.
            let Some((line, after)) = rest.split_once('\n') else {
                return Ok((records, true));
            };
            rest = after;
            let parsed = line.split_once(' ').and_then(|(crc, payload)| {
                let crc = u64::from_str_radix(crc, 16).ok()?;
                if crc != fnv1a(payload.as_bytes()) {
                    return None;
                }
                decode(payload)
            });
            match parsed {
                Some(r) => records.push(r),
                None => return Ok((records, true)),
            }
        }
        Ok((records, false))
    }
}

/// Percent-encodes the bytes that would break the line/field framing.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b' ' => out.push_str("%20"),
            b'\n' => out.push_str("%0A"),
            b'%' => out.push_str("%25"),
            _ => out.push(b as char),
        }
    }
    out
}

pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() {
            if let Ok(v) = u8::from_str_radix(&s[i + 1..i + 3], 16) {
                out.push(v as char);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// The parent directory of a normalized virtual path.
pub fn parent_dir(path: &str) -> &str {
    match path.trim_end_matches('/').rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FileMeta, MemFs, ReadHandle, WriteHandle};
    use crate::{Journal, JournalRecord, Ledger, LedgerRecord};
    use std::sync::Arc;

    /// A `MemFs` that tells file syncs from directory syncs.
    #[derive(Default)]
    struct SyncCountingFs {
        inner: MemFs,
        file_syncs: AtomicU64,
        dir_syncs: AtomicU64,
    }

    impl SyncCountingFs {
        /// `(file syncs, directory syncs)` since the last call.
        fn take(&self) -> (u64, u64) {
            (
                self.file_syncs.swap(0, Ordering::SeqCst),
                self.dir_syncs.swap(0, Ordering::SeqCst),
            )
        }
    }

    impl Fs for SyncCountingFs {
        fn open_read(&self, path: &str) -> io::Result<Box<dyn ReadHandle>> {
            self.inner.open_read(path)
        }
        fn open_write(&self, path: &str, append: bool) -> io::Result<Box<dyn WriteHandle>> {
            self.inner.open_write(path, append)
        }
        fn metadata(&self, path: &str) -> io::Result<FileMeta> {
            self.inner.metadata(path)
        }
        fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
            self.inner.list_dir(path)
        }
        fn remove(&self, path: &str) -> io::Result<()> {
            self.inner.remove(path)
        }
        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn sync(&self, path: &str) -> io::Result<()> {
            self.file_syncs.fetch_add(1, Ordering::SeqCst);
            self.inner.sync(path)
        }
        fn sync_dir(&self, path: &str) -> io::Result<()> {
            self.dir_syncs.fetch_add(1, Ordering::SeqCst);
            self.inner.sync_dir(path)
        }
    }

    /// The directory-sync rule, driven through `append`: both barriers on
    /// a handle's first durable append, the file alone afterwards, both
    /// again once the file was removed underneath, none when not durable.
    fn check_sync_rule(fs: &Arc<SyncCountingFs>, path: &str, append: &dyn Fn(bool)) {
        append(true);
        assert_eq!(fs.take(), (1, 1), "first append: file + directory");
        for _ in 0..4 {
            append(true);
            assert_eq!(fs.take(), (1, 0), "later appends: the file alone");
        }
        fs.remove(path).unwrap();
        append(true);
        assert_eq!(fs.take(), (1, 1), "re-created file: directory again");
        append(false);
        assert_eq!(fs.take(), (0, 0), "non-durable appends never sync");
    }

    #[test]
    fn journal_syncs_the_directory_only_when_the_append_created_the_file() {
        let fs = Arc::new(SyncCountingFs::default());
        let open = |durable| Journal::open(Arc::clone(&fs) as FsHandle, "/.jash/journal", durable);
        let (durable, scratch) = (open(true), open(false));
        check_sync_rule(&fs, "/.jash/journal", &|d| {
            let j = if d { &durable } else { &scratch };
            j.append(&JournalRecord::RunComplete).unwrap();
        });
        assert_eq!(durable.fsyncs(), 8, "counts the barriers actually issued");
        assert_eq!(scratch.fsyncs(), 0);
    }

    #[test]
    fn ledger_syncs_the_directory_only_when_the_append_created_the_file() {
        let fs = Arc::new(SyncCountingFs::default());
        let open = |durable| Ledger::open(Arc::clone(&fs) as FsHandle, "/serve/ledger", durable);
        let (durable, scratch) = (open(true), open(false));
        let done = LedgerRecord::Done {
            run_id: 1,
            status: 0,
            aborted: None,
        };
        check_sync_rule(&fs, "/serve/ledger", &|d| {
            let l = if d { &durable } else { &scratch };
            l.append(&done).unwrap();
        });
    }

    #[test]
    fn a_new_handle_on_an_existing_file_syncs_the_directory_once() {
        // Whoever created the file may have died between the write and
        // the directory sync; a handle that did not see the entry synced
        // must not assume it was.
        let fs = Arc::new(SyncCountingFs::default());
        crate::fs::write_file(fs.as_ref(), "/d/log", b"").unwrap();
        let log = RecordLog::open(Arc::clone(&fs) as FsHandle, "/d/log".to_string(), true);
        log.append(&["a".to_string()]).unwrap();
        assert_eq!(fs.take(), (1, 1));
        log.append(&["b".to_string()]).unwrap();
        assert_eq!(fs.take(), (1, 0));
    }

    #[test]
    fn one_append_of_many_payloads_is_one_write_under_one_barrier() {
        let fs = Arc::new(SyncCountingFs::default());
        let log = RecordLog::open(Arc::clone(&fs) as FsHandle, "/log".to_string(), true);
        log.append(&["one".to_string(), "two 2".to_string()])
            .unwrap();
        assert_eq!(fs.take(), (1, 1));
        let (records, torn) =
            RecordLog::replay(fs.as_ref(), "/log", |p| Some(p.to_string())).unwrap();
        assert_eq!(records, vec!["one", "two 2"]);
        assert!(!torn);
    }

    #[test]
    fn replay_stops_at_a_torn_corrupt_or_undecodable_line() {
        let fs = crate::mem_fs();
        let log = RecordLog::open(Arc::clone(&fs), "/log".to_string(), false);
        let decode = |p: &str| p.parse::<u32>().ok();
        assert_eq!(
            RecordLog::replay(fs.as_ref(), "/log", decode).unwrap(),
            (vec![], false)
        );
        log.append(&["1".to_string(), "2".to_string()]).unwrap();
        let intact = crate::fs::read_to_vec(fs.as_ref(), "/log").unwrap();
        assert_eq!(
            RecordLog::replay(fs.as_ref(), "/log", decode).unwrap(),
            (vec![1, 2], false)
        );

        // A crash mid-append: half a record, no trailing newline.
        let mut torn = intact.clone();
        torn.extend_from_slice(b"0123456789abcdef 3");
        crate::fs::write_file(fs.as_ref(), "/log", &torn).unwrap();
        assert_eq!(
            RecordLog::replay(fs.as_ref(), "/log", decode).unwrap(),
            (vec![1, 2], true)
        );

        // A flipped payload byte fails the checksum; the records after it
        // are untrusted too.
        let mut corrupt = intact.clone();
        corrupt[17] ^= 0x01;
        crate::fs::write_file(fs.as_ref(), "/log", &corrupt).unwrap();
        assert_eq!(
            RecordLog::replay(fs.as_ref(), "/log", decode).unwrap(),
            (vec![], true)
        );

        // A well-framed payload the owner cannot decode ends the replay.
        crate::fs::write_file(fs.as_ref(), "/log", &intact).unwrap();
        log.append(&["x".to_string(), "4".to_string()]).unwrap();
        assert_eq!(
            RecordLog::replay(fs.as_ref(), "/log", decode).unwrap(),
            (vec![1, 2], true)
        );
    }

    #[test]
    fn parent_dirs() {
        assert_eq!(parent_dir("/a/b/c"), "/a/b");
        assert_eq!(parent_dir("/a"), "/");
        assert_eq!(parent_dir("/"), "/");
    }
}
