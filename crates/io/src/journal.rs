//! Crash-safe write-ahead execution journal.
//!
//! PRs 1–2 made optimized regions survive *in-process* faults; this
//! module is the substrate for surviving a hard crash (`kill -9`, OOM
//! kill, power loss). A [`Journal`] is an append-only, checksummed,
//! fsync'd record stream on the shell's virtual filesystem: before an
//! optimized region runs the session appends [`JournalRecord::RegionStart`],
//! after its staged sinks commit the executor appends
//! [`JournalRecord::StageCommitted`], and a completed region appends
//! [`JournalRecord::RegionDone`] with its outcome. Replay
//! ([`Journal::replay`]) parses the stream back, verifying the per-record
//! FNV-1a checksum and detecting a torn tail — the half-written final
//! record a crash mid-append leaves behind — which is dropped rather than
//! trusted.
//!
//! The record layout is line-oriented text (one record per line:
//! `<fnv1a-of-payload:016x> <payload>`) so a journal is inspectable with
//! `cat` — in a shell runtime, being shell-debuggable is a feature.

use crate::fs::Fs;
pub use crate::recordlog::parent_dir;
use crate::recordlog::{escape, unescape, RecordLog};
use crate::FsHandle;
use parking_lot::Mutex;
use std::io;

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A new shell run began; `epoch` increments across runs on the same
    /// journal, so replay can separate an interrupted run's records from
    /// earlier history.
    RunStart {
        /// Monotonic run counter.
        epoch: u64,
    },
    /// An optimized region is about to execute.
    RegionStart {
        /// Width-insensitive [`Dfg::fingerprint`]-style shape key.
        fingerprint: u64,
        /// The input files the region reads, resolved.
        inputs: Vec<String>,
    },
    /// A transactional sink was fsync'd and renamed into place.
    StageCommitted {
        /// Final (virtual) path of the committed file.
        path: String,
    },
    /// A region finished executing.
    RegionDone {
        /// Shape key, matching the preceding `RegionStart`.
        fingerprint: u64,
        /// Region exit status.
        status: i32,
        /// Whether the run was fault-free (only clean, zero-status
        /// regions are resumable).
        clean: bool,
    },
    /// A region was abandoned mid-flight by a graceful shutdown
    /// (SIGINT/SIGTERM); its staged sinks were discarded.
    RegionAborted {
        /// Shape key.
        fingerprint: u64,
        /// The cancellation reason.
        reason: String,
    },
    /// The run's statement loop finished; a journal whose last epoch ends
    /// with this record needs no recovery.
    RunComplete,
}

impl JournalRecord {
    fn encode(&self) -> String {
        match self {
            JournalRecord::RunStart { epoch } => format!("run-start {epoch}"),
            JournalRecord::RegionStart {
                fingerprint,
                inputs,
            } => {
                let mut s = format!("region-start {fingerprint:016x}");
                for p in inputs {
                    s.push(' ');
                    s.push_str(&escape(p));
                }
                s
            }
            JournalRecord::StageCommitted { path } => {
                format!("stage-committed {}", escape(path))
            }
            JournalRecord::RegionDone {
                fingerprint,
                status,
                clean,
            } => format!(
                "region-done {fingerprint:016x} {status} {}",
                if *clean { 1 } else { 0 }
            ),
            JournalRecord::RegionAborted {
                fingerprint,
                reason,
            } => format!("region-aborted {fingerprint:016x} {}", escape(reason)),
            JournalRecord::RunComplete => "run-complete".to_string(),
        }
    }

    fn decode(payload: &str) -> Option<JournalRecord> {
        let mut parts = payload.split(' ');
        match parts.next()? {
            "run-start" => Some(JournalRecord::RunStart {
                epoch: parts.next()?.parse().ok()?,
            }),
            "region-start" => {
                let fingerprint = u64::from_str_radix(parts.next()?, 16).ok()?;
                Some(JournalRecord::RegionStart {
                    fingerprint,
                    inputs: parts.map(unescape).collect(),
                })
            }
            "stage-committed" => Some(JournalRecord::StageCommitted {
                path: unescape(parts.next()?),
            }),
            "region-done" => Some(JournalRecord::RegionDone {
                fingerprint: u64::from_str_radix(parts.next()?, 16).ok()?,
                status: parts.next()?.parse().ok()?,
                clean: parts.next()? == "1",
            }),
            "region-aborted" => Some(JournalRecord::RegionAborted {
                fingerprint: u64::from_str_radix(parts.next()?, 16).ok()?,
                reason: unescape(&parts.collect::<Vec<_>>().join(" ")),
            }),
            "run-complete" => Some(JournalRecord::RunComplete),
            _ => None,
        }
    }
}

/// The result of replaying a journal file.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// All intact records, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether the file ended in a torn (half-written or
    /// checksum-corrupt) record, which was dropped.
    pub torn_tail: bool,
    /// Highest `RunStart` epoch seen (0 when the journal is empty).
    pub last_epoch: u64,
}

impl Replay {
    /// The records of the last run, when that run never reached
    /// [`JournalRecord::RunComplete`] — i.e. the shell crashed or was
    /// killed. `None` when the journal is empty or the last run finished.
    pub fn interrupted_run(&self) -> Option<&[JournalRecord]> {
        let start = self
            .records
            .iter()
            .rposition(|r| matches!(r, JournalRecord::RunStart { .. }))?;
        let tail = &self.records[start..];
        if tail.iter().any(|r| matches!(r, JournalRecord::RunComplete)) {
            return None;
        }
        Some(tail)
    }
}

/// An append-only, checksummed record stream on a virtual filesystem.
///
/// Every append writes one framed record and — when `durable` — fsyncs
/// the journal file (and its parent directory when the append created
/// it), so a record that replay returns was really on stable storage
/// before the execution it gates.
pub struct Journal {
    log: RecordLog,
    /// Held back by [`Journal::defer`]; the lock keeps a write from overtaking it.
    deferred: Mutex<Option<JournalRecord>>,
}

impl Journal {
    /// Opens (or creates on first append) a journal at `path`.
    pub fn open(fs: FsHandle, path: impl Into<String>, durable: bool) -> Self {
        Journal {
            log: RecordLog::open(fs, path.into(), durable),
            deferred: Mutex::new(None),
        }
    }

    /// How many fsync barriers (file + directory) this journal has
    /// issued — the durability cost observability reports per run.
    pub fn fsyncs(&self) -> u64 {
        self.log.fsyncs()
    }

    /// Holds `record` back until the next [`Journal::append`], which
    /// writes it ahead of its own record, in one write under one barrier.
    pub fn defer(&self, record: JournalRecord) {
        *self.deferred.lock() = Some(record);
    }

    /// Whether a deferred record is still waiting for an append.
    pub fn has_deferred(&self) -> bool {
        self.deferred.lock().is_some()
    }

    /// Appends one record, durably when the journal is durable.
    pub fn append(&self, record: &JournalRecord) -> io::Result<()> {
        let mut deferred = self.deferred.lock();
        let mut payloads: Vec<String> = deferred.iter().map(JournalRecord::encode).collect();
        payloads.push(record.encode());
        self.log.append(&payloads)?;
        *deferred = None;
        Ok(())
    }

    /// Replays the journal at `path` on `fs`. A missing file is an empty
    /// replay, not an error. Parsing stops at the first torn record: a
    /// line without a trailing newline, with a checksum mismatch, or
    /// otherwise unparsable — everything from there on is untrusted.
    pub fn replay(fs: &dyn Fs, path: &str) -> io::Result<Replay> {
        let (records, torn_tail) = RecordLog::replay(fs, path, JournalRecord::decode)?;
        let last_epoch = records.iter().fold(0, |last, r| match r {
            JournalRecord::RunStart { epoch } => last.max(*epoch),
            _ => last,
        });
        Ok(Replay {
            records,
            torn_tail,
            last_epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::write_file;

    fn roundtrip(records: &[JournalRecord]) -> Replay {
        let fs = crate::mem_fs();
        let j = Journal::open(std::sync::Arc::clone(&fs), "/.jash/journal", true);
        for r in records {
            j.append(r).unwrap();
        }
        Journal::replay(fs.as_ref(), "/.jash/journal").unwrap()
    }

    #[test]
    fn empty_journal_replays_empty() {
        let fs = crate::mem_fs();
        let r = Journal::replay(fs.as_ref(), "/.jash/journal").unwrap();
        assert!(r.records.is_empty());
        assert!(!r.torn_tail);
        assert!(r.interrupted_run().is_none());
    }

    #[test]
    fn records_roundtrip_exactly() {
        let records = vec![
            JournalRecord::RunStart { epoch: 3 },
            JournalRecord::RegionStart {
                fingerprint: 0xdead_beef,
                inputs: vec!["/in a.txt".into(), "/data/b%.txt".into()],
            },
            JournalRecord::StageCommitted {
                path: "/out dir/x".into(),
            },
            JournalRecord::RegionDone {
                fingerprint: 0xdead_beef,
                status: 0,
                clean: true,
            },
            JournalRecord::RegionAborted {
                fingerprint: 7,
                reason: "shutdown: SIGTERM received".into(),
            },
            JournalRecord::RunComplete,
        ];
        let r = roundtrip(&records);
        assert_eq!(r.records, records);
        assert!(!r.torn_tail);
        assert_eq!(r.last_epoch, 3);
        assert!(r.interrupted_run().is_none(), "run completed");
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let fs = crate::mem_fs();
        let j = Journal::open(std::sync::Arc::clone(&fs), "/j", true);
        j.append(&JournalRecord::RunStart { epoch: 1 }).unwrap();
        j.append(&JournalRecord::RegionDone {
            fingerprint: 1,
            status: 0,
            clean: true,
        })
        .unwrap();
        // A crash mid-append: half a record, no trailing newline.
        let mut h = fs.open_write("/j", true).unwrap();
        h.write_all(b"0123456789abcdef region-do").unwrap();
        drop(h);
        let r = Journal::replay(fs.as_ref(), "/j").unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records.len(), 2, "intact prefix survives");
    }

    #[test]
    fn checksum_corruption_truncates_replay() {
        let fs = crate::mem_fs();
        let j = Journal::open(std::sync::Arc::clone(&fs), "/j", true);
        j.append(&JournalRecord::RunStart { epoch: 1 }).unwrap();
        j.append(&JournalRecord::RunComplete).unwrap();
        // Flip a byte in the second record's payload.
        let mut raw = crate::fs::read_to_vec(fs.as_ref(), "/j").unwrap();
        let off = raw.len() - 3;
        raw[off] ^= 0x20;
        write_file(fs.as_ref(), "/j", &raw).unwrap();
        let r = Journal::replay(fs.as_ref(), "/j").unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records, vec![JournalRecord::RunStart { epoch: 1 }]);
        // With the RunComplete gone, the run reads as interrupted.
        assert!(r.interrupted_run().is_some());
    }

    #[test]
    fn interrupted_run_is_the_last_epoch_tail() {
        let r = roundtrip(&[
            JournalRecord::RunStart { epoch: 1 },
            JournalRecord::RunComplete,
            JournalRecord::RunStart { epoch: 2 },
            JournalRecord::RegionDone {
                fingerprint: 42,
                status: 0,
                clean: true,
            },
        ]);
        let tail = r.interrupted_run().expect("run 2 never completed");
        assert_eq!(tail.len(), 2);
        assert_eq!(r.last_epoch, 2);
    }

    #[test]
    fn deferred_record_rides_ahead_of_the_next_append_under_one_barrier() {
        let mem = std::sync::Arc::new(crate::MemFs::new());
        let fs: FsHandle = std::sync::Arc::clone(&mem) as FsHandle;
        let j = Journal::open(std::sync::Arc::clone(&fs), "/.jash/journal", true);
        j.defer(JournalRecord::RunStart { epoch: 4 });
        assert!(j.has_deferred());
        assert!(!fs.exists("/.jash/journal"), "deferring writes nothing");
        assert_eq!(mem.sync_count(), 0);
        j.append(&JournalRecord::RunComplete).unwrap();
        assert!(!j.has_deferred());
        assert_eq!(j.fsyncs(), 2, "both records under the creating append");
        j.append(&JournalRecord::RunComplete).unwrap();
        let r = Journal::replay(fs.as_ref(), "/.jash/journal").unwrap();
        assert_eq!(
            r.records,
            vec![
                JournalRecord::RunStart { epoch: 4 },
                JournalRecord::RunComplete,
                JournalRecord::RunComplete,
            ]
        );
        assert_eq!(r.last_epoch, 4);
    }

    #[test]
    fn durable_appends_sync_file_and_directory() {
        let mem = std::sync::Arc::new(crate::MemFs::new());
        let fs: FsHandle = std::sync::Arc::clone(&mem) as FsHandle;
        let durable = Journal::open(std::sync::Arc::clone(&fs), "/.jash/journal", true);
        durable.append(&JournalRecord::RunComplete).unwrap();
        assert!(mem.sync_count() >= 2, "file + parent dir fsync");
        assert_eq!(durable.fsyncs(), 2, "journal counts its own barriers");
        let before = mem.sync_count();
        let scratch = Journal::open(fs, "/.jash/journal", false);
        scratch.append(&JournalRecord::RunComplete).unwrap();
        assert_eq!(mem.sync_count(), before, "non-durable journal never syncs");
        assert_eq!(scratch.fsyncs(), 0);
    }
}
