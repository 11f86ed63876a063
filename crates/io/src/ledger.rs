//! The serve admission ledger: a durable record of every submission the
//! daemon accepted and every terminal result it produced.
//!
//! The per-run execution [`crate::journal`] makes one *run* crash-safe;
//! the ledger makes the *daemon* crash-safe. Before a `jash serve`
//! instance answers `Accepted` it appends [`LedgerRecord::Accepted`]
//! (idempotency key, tenant, script, script hash) here, and when the run
//! reaches a terminal state it writes the result blobs
//! ([`write_result_blobs`], data before metadata) and then appends
//! [`LedgerRecord::Done`]. A restarted daemon replays the ledger
//! ([`Ledger::replay`] + [`fold`]) and knows exactly which runs were in
//! flight when it died (accepted, no `Done` — the orphans to finalize)
//! and which finished (cached results to replay to duplicate
//! submissions).
//!
//! The on-disk format is the journal's: one checksummed line per record
//! (`<fnv1a:016x> <payload>`), percent-escaped fields, torn-tail
//! detection on replay — a half-written final record from a crash
//! mid-append is dropped, never trusted. Like the journal, the ledger is
//! `cat`-debuggable on purpose.

use crate::fs::Fs;
use crate::memo::fnv1a;
use crate::recordlog::{escape, unescape, RecordLog};
use crate::FsHandle;
use std::collections::HashMap;
use std::io;

/// One admission-ledger record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerRecord {
    /// A submission was admitted; written *before* the `Accepted` frame,
    /// so every run the daemon ever promised to execute is on record.
    Accepted {
        /// Daemon-wide run id (also the `run-<id>` journal scope name).
        run_id: u64,
        /// Client-supplied idempotency key; empty = none.
        key: String,
        /// Tenant label.
        tenant: String,
        /// Wall-clock limit the submission asked for (0 = none).
        timeout_ms: u64,
        /// FNV-1a of the script bytes — an end-to-end integrity check
        /// over and above the per-line checksum; a mismatch on replay
        /// marks the record corrupt rather than executing a mangled
        /// script at recovery.
        script_hash: u64,
        /// The script source itself, so recovery can finalize the run
        /// without the (dead) client.
        script: String,
    },
    /// The run reached a terminal state; its result blobs were written
    /// before this record.
    Done {
        /// Run id, matching a prior `Accepted`.
        run_id: u64,
        /// Exit status the client was (or will be) told.
        status: i32,
        /// Abort reason, when the run was cancelled rather than run to
        /// completion.
        aborted: Option<String>,
    },
}

impl LedgerRecord {
    fn encode(&self) -> String {
        match self {
            LedgerRecord::Accepted {
                run_id,
                key,
                tenant,
                timeout_ms,
                script_hash,
                script,
            } => format!(
                "accepted {run_id} {} {} {timeout_ms} {script_hash:016x} {}",
                escape(key),
                escape(tenant),
                escape(script)
            ),
            LedgerRecord::Done {
                run_id,
                status,
                aborted,
            } => match aborted {
                Some(r) => format!("done {run_id} {status} 1 {}", escape(r)),
                None => format!("done {run_id} {status} 0"),
            },
        }
    }

    fn decode(payload: &str) -> Option<LedgerRecord> {
        let mut parts = payload.split(' ');
        match parts.next()? {
            "accepted" => Some(LedgerRecord::Accepted {
                run_id: parts.next()?.parse().ok()?,
                key: unescape(parts.next()?),
                tenant: unescape(parts.next()?),
                timeout_ms: parts.next()?.parse().ok()?,
                script_hash: u64::from_str_radix(parts.next()?, 16).ok()?,
                script: unescape(parts.next()?),
            }),
            "done" => Some(LedgerRecord::Done {
                run_id: parts.next()?.parse().ok()?,
                status: parts.next()?.parse().ok()?,
                aborted: match parts.next()? {
                    "0" => None,
                    "1" => Some(unescape(parts.next()?)),
                    _ => return None,
                },
            }),
            _ => None,
        }
    }
}

/// The result of replaying a ledger file.
#[derive(Debug, Clone, Default)]
pub struct LedgerReplay {
    /// All intact records, in append order.
    pub records: Vec<LedgerRecord>,
    /// Whether the file ended in a torn or corrupt record (dropped).
    pub torn_tail: bool,
}

/// An append-only checksummed admission ledger on a virtual filesystem.
/// Same durability contract as [`crate::Journal`]: when `durable`, every
/// append fsyncs the file, and its parent directory when the append
/// created it.
pub struct Ledger {
    log: RecordLog,
}

impl Ledger {
    /// Opens (or creates on first append) a ledger at `path`.
    pub fn open(fs: FsHandle, path: impl Into<String>, durable: bool) -> Ledger {
        Ledger {
            log: RecordLog::open(fs, path.into(), durable),
        }
    }

    /// Appends one record, durably when the ledger is durable.
    pub fn append(&self, record: &LedgerRecord) -> io::Result<()> {
        self.log.append(&[record.encode()])
    }

    /// Replays the ledger at `path`. A missing file is an empty replay.
    /// Parsing stops at the first torn or checksum-corrupt line.
    pub fn replay(fs: &dyn Fs, path: &str) -> io::Result<LedgerReplay> {
        let (records, torn_tail) = RecordLog::replay(fs, path, LedgerRecord::decode)?;
        Ok(LedgerReplay { records, torn_tail })
    }
}

/// One accepted submission still awaiting a terminal record — what a
/// restarted daemon must finalize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Run id (names the `run-<id>` journal scope).
    pub run_id: u64,
    /// Idempotency key; empty = none.
    pub key: String,
    /// Tenant label.
    pub tenant: String,
    /// Requested wall-clock limit in ms.
    pub timeout_ms: u64,
    /// Script source.
    pub script: String,
}

/// One run the ledger records as finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedRun {
    /// Run id.
    pub run_id: u64,
    /// Idempotency key from the matching `Accepted`; empty = none.
    pub key: String,
    /// Terminal exit status.
    pub status: i32,
    /// Abort reason, when aborted.
    pub aborted: Option<String>,
}

/// The daemon-relevant digest of a ledger replay.
#[derive(Debug, Clone, Default)]
pub struct LedgerState {
    /// Accepted runs with no terminal record, in run-id order: the runs
    /// that were in flight (queued or executing) when the daemon died.
    pub orphans: Vec<Submission>,
    /// Runs with terminal records, in completion order.
    pub finished: Vec<FinishedRun>,
    /// Highest run id the ledger has ever assigned; a restarted daemon
    /// continues numbering from here so scopes never collide.
    pub next_run: u64,
}

/// Folds a record stream into the [`LedgerState`] a restarting daemon
/// needs. `Accepted` records whose script hash does not match their
/// script bytes are dropped as corrupt (never executed at recovery);
/// `Done` records without a matching `Accepted` are ignored.
pub fn fold(records: &[LedgerRecord]) -> LedgerState {
    let mut state = LedgerState::default();
    let mut open: HashMap<u64, Submission> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for r in records {
        match r {
            LedgerRecord::Accepted {
                run_id,
                key,
                tenant,
                timeout_ms,
                script_hash,
                script,
            } => {
                state.next_run = state.next_run.max(*run_id);
                if *script_hash != fnv1a(script.as_bytes()) {
                    continue;
                }
                open.insert(
                    *run_id,
                    Submission {
                        run_id: *run_id,
                        key: key.clone(),
                        tenant: tenant.clone(),
                        timeout_ms: *timeout_ms,
                        script: script.clone(),
                    },
                );
                order.push(*run_id);
            }
            LedgerRecord::Done {
                run_id,
                status,
                aborted,
            } => {
                state.next_run = state.next_run.max(*run_id);
                if let Some(sub) = open.remove(run_id) {
                    state.finished.push(FinishedRun {
                        run_id: *run_id,
                        key: sub.key,
                        status: *status,
                        aborted: aborted.clone(),
                    });
                }
            }
        }
    }
    state.orphans = order
        .into_iter()
        .filter_map(|id| open.remove(&id))
        .collect();
    state
}

/// Path of a terminal result blob (`ext` is `out` or `err`).
pub fn result_blob_path(root: &str, run_id: u64, ext: &str) -> String {
    format!("{root}/result-{run_id}.{ext}")
}

/// Writes a finished run's stdout/stderr blobs under `root`. Called
/// *before* the `Done` record is appended — data before metadata, so a
/// `Done` the replay returns always has its blobs on disk.
pub fn write_result_blobs(
    fs: &dyn Fs,
    root: &str,
    run_id: u64,
    stdout: &[u8],
    stderr: &[u8],
    durable: bool,
) -> io::Result<()> {
    for (ext, data) in [("out", stdout), ("err", stderr)] {
        let path = result_blob_path(root, run_id, ext);
        crate::fs::write_file(fs, &path, data)?;
        if durable {
            fs.sync(&path)?;
        }
    }
    if durable {
        fs.sync_dir(root)?;
    }
    Ok(())
}

/// Reads one result blob back; a missing blob is empty output (a run
/// whose `Done` was ledgered but whose blobs were evicted or lost
/// replays with empty streams rather than failing).
pub fn read_result_blob(fs: &dyn Fs, root: &str, run_id: u64, ext: &str) -> Vec<u8> {
    crate::fs::read_to_vec(fs, &result_blob_path(root, run_id, ext)).unwrap_or_default()
}

/// Removes a run's result blobs (cache eviction).
pub fn remove_result_blobs(fs: &dyn Fs, root: &str, run_id: u64) {
    for ext in ["out", "err"] {
        let _ = fs.remove(&result_blob_path(root, run_id, ext));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepted(run_id: u64, key: &str, script: &str) -> LedgerRecord {
        LedgerRecord::Accepted {
            run_id,
            key: key.to_string(),
            tenant: "cli".to_string(),
            timeout_ms: 0,
            script_hash: fnv1a(script.as_bytes()),
            script: script.to_string(),
        }
    }

    #[test]
    fn records_roundtrip_with_awkward_bytes() {
        let fs = crate::mem_fs();
        let l = Ledger::open(std::sync::Arc::clone(&fs), "/.jash-serve/ledger", true);
        let records = vec![
            accepted(1, "job 7%", "cat /in a.txt | sort > /out\necho done"),
            LedgerRecord::Done {
                run_id: 1,
                status: 0,
                aborted: None,
            },
            accepted(2, "", "true"),
            LedgerRecord::Done {
                run_id: 2,
                status: 143,
                aborted: Some("shutdown: SIGTERM (15) received".to_string()),
            },
        ];
        for r in &records {
            l.append(r).unwrap();
        }
        let replay = Ledger::replay(fs.as_ref(), "/.jash-serve/ledger").unwrap();
        assert_eq!(replay.records, records);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn fold_separates_orphans_from_finished_and_advances_next_run() {
        let records = vec![
            accepted(1, "k1", "echo one"),
            LedgerRecord::Done {
                run_id: 1,
                status: 0,
                aborted: None,
            },
            accepted(2, "k2", "echo two"),
            accepted(3, "", "echo three"),
        ];
        let state = fold(&records);
        assert_eq!(state.next_run, 3);
        assert_eq!(state.finished.len(), 1);
        assert_eq!(state.finished[0].key, "k1");
        assert_eq!(
            state.orphans.iter().map(|o| o.run_id).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(state.orphans[0].key, "k2");
        assert!(state.orphans[1].key.is_empty());
    }

    #[test]
    fn corrupt_script_hash_drops_the_record_instead_of_executing_it() {
        let mut rec = accepted(1, "k", "echo safe");
        if let LedgerRecord::Accepted { script, .. } = &mut rec {
            *script = "rm -rf /".to_string(); // hash no longer matches
        }
        let state = fold(&[rec]);
        assert!(state.orphans.is_empty(), "corrupt record must not recover");
        assert_eq!(state.next_run, 1, "run id still reserved");
    }

    #[test]
    fn torn_tail_is_dropped_on_replay() {
        let fs = crate::mem_fs();
        let l = Ledger::open(std::sync::Arc::clone(&fs), "/ledger", true);
        l.append(&accepted(1, "k", "true")).unwrap();
        let mut h = fs.open_write("/ledger", true).unwrap();
        h.write_all(b"0000000000000000 done 1 0").unwrap(); // bad crc, no newline
        drop(h);
        let replay = Ledger::replay(fs.as_ref(), "/ledger").unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 1, "intact prefix survives");
        let state = fold(&replay.records);
        assert_eq!(state.orphans.len(), 1, "torn Done leaves the run open");
    }

    #[test]
    fn result_blobs_roundtrip_and_missing_blobs_read_empty() {
        let fs = crate::mem_fs();
        write_result_blobs(fs.as_ref(), "/.jash-serve", 7, b"out!", b"err!", true).unwrap();
        assert_eq!(read_result_blob(fs.as_ref(), "/.jash-serve", 7, "out"), b"out!");
        assert_eq!(read_result_blob(fs.as_ref(), "/.jash-serve", 7, "err"), b"err!");
        assert!(read_result_blob(fs.as_ref(), "/.jash-serve", 8, "out").is_empty());
        remove_result_blobs(fs.as_ref(), "/.jash-serve", 7);
        assert!(read_result_blob(fs.as_ref(), "/.jash-serve", 7, "out").is_empty());
    }
}
