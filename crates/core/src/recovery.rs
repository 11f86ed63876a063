//! Crash recovery: journal scanning, the resume plan, the startup
//! janitor, and graceful-shutdown status codes.
//!
//! A [`crate::Jash`] session with a journal attached
//! ([`crate::Jash::attach_journal`]) records every optimized region it
//! runs. When a run is killed hard (`kill -9`, OOM, power loss), the next
//! launch replays the journal, finds the interrupted epoch, sweeps the
//! staging debris the crash stranded, and — when resuming — builds a
//! [`ResumePlan`]: each region the dead run completed cleanly is
//! satisfied from the durable memo instead of re-executing, and live
//! execution restarts at the first incomplete region.
//!
//! Regions are keyed by the width-insensitive [`jash_dataflow::Dfg::fingerprint`].
//! A script may run the same shape several times, so the plan keeps an
//! *ordered* queue of completions per fingerprint and consumes them in
//! encounter order — the Nth occurrence in the resumed run lines up with
//! the Nth occurrence the dead run journaled, which is sound because the
//! statement loop replays statements in the same order.

use jash_dataflow::Region;
use jash_io::journal::{JournalRecord, Replay};
use jash_io::{Fs, FsHandle};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Reason prefix a graceful shutdown writes into the shared
/// [`jash_io::CancelToken`]; the session recognizes it and aborts rather
/// than failing over to the interpreter.
pub const SHUTDOWN_PREFIX: &str = "shutdown:";

/// The cancellation reason for signal number `sig`.
pub fn shutdown_reason(sig: i32) -> String {
    let name = match sig {
        2 => "SIGINT",
        15 => "SIGTERM",
        _ => "signal",
    };
    format!("{SHUTDOWN_PREFIX} {name} ({sig}) received")
}

/// Parses a cancellation reason back into a shell exit code (128 + signal
/// number, the convention every POSIX shell follows). `None` when the
/// reason is not a graceful shutdown (e.g. a watchdog cancel).
pub fn shutdown_code(reason: &str) -> Option<i32> {
    let rest = reason.strip_prefix(SHUTDOWN_PREFIX)?;
    let sig: i32 = rest
        .split(['(', ')'])
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    Some(128 + sig)
}

/// Parses a cancellation reason into the exit code of a *graceful abort*
/// of either flavor: signal shutdown (`shutdown:` → 128 + signum) or a
/// wall-clock deadline (`deadline:` → 124, the `timeout(1)` convention).
/// Both ride the same session path — stop between statements, journal
/// `RegionAborted` mid-region, leave the run resumable — so everything
/// that asks "should this cancellation abort rather than fail over?"
/// asks here. `None` for fault cancellations (e.g. the stall watchdog),
/// which *should* fail over.
pub fn cancel_exit_code(reason: &str) -> Option<i32> {
    shutdown_code(reason).or_else(|| jash_io::cancel::deadline_code(reason))
}

/// What one journaled-clean region finished with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneRegion {
    /// Exit status the region delivered.
    pub status: i32,
}

/// Clean completions of an interrupted run, consumable in encounter
/// order.
#[derive(Debug, Default)]
pub struct ResumePlan {
    done: HashMap<u64, VecDeque<DoneRegion>>,
    total: usize,
}

impl ResumePlan {
    /// Builds the plan from an interrupted run's records. Only regions
    /// journaled `RegionDone` with a clean, zero-status outcome are
    /// resumable — those are exactly the ones the memo stored.
    pub fn from_records(records: &[JournalRecord]) -> ResumePlan {
        let mut plan = ResumePlan::default();
        for r in records {
            if let JournalRecord::RegionDone {
                fingerprint,
                status,
                clean: true,
            } = r
            {
                if *status == 0 {
                    plan.done
                        .entry(*fingerprint)
                        .or_default()
                        .push_back(DoneRegion { status: *status });
                    plan.total += 1;
                }
            }
        }
        plan
    }

    /// Consumes the next journaled completion of shape `fingerprint`, if
    /// the dead run got that far.
    pub fn take(&mut self, fingerprint: u64) -> Option<DoneRegion> {
        self.done.get_mut(&fingerprint)?.pop_front()
    }

    /// How many journaled completions remain unclaimed.
    pub fn remaining(&self) -> usize {
        self.done.values().map(|q| q.len()).sum()
    }

    /// How many completions the plan started with.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// What [`crate::Jash::attach_journal`] found at startup.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether the previous run on this journal was interrupted (no
    /// `RunComplete`, possibly a torn tail).
    pub interrupted: bool,
    /// Whether the journal ended in a torn (half-written) record.
    pub torn_tail: bool,
    /// Clean region completions available for resume.
    pub resumable: usize,
    /// Orphaned staging files the janitor removed.
    pub swept: Vec<String>,
    /// Epoch number this session will journal under.
    pub epoch: u64,
}

/// Whether `name` is a transactional staging file
/// (`<target>.jash-stage-<digits>`).
fn is_stage_debris(name: &str) -> bool {
    const MARK: &str = ".jash-stage-";
    match name.rfind(MARK) {
        Some(i) => {
            let tail = &name[i + MARK.len()..];
            !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// The startup janitor: walks the filesystem and removes orphaned
/// `.jash-stage-*` files a crashed run stranded. (A live run never leaves
/// any: commit renames them away and failure paths remove them — only a
/// hard kill mid-region can orphan one.) Returns the removed paths.
pub fn sweep_stage_debris(fs: &dyn Fs) -> Vec<String> {
    let mut swept = Vec::new();
    let mut stack = vec!["/".to_string()];
    // Breadth bound: a shell root can be huge; debris lives where sinks
    // write, never deeper than a few levels of output tree.
    let mut visited = 0usize;
    while let Some(dir) = stack.pop() {
        visited += 1;
        if visited > 4096 {
            break;
        }
        let Ok(names) = fs.list_dir(&dir) else { continue };
        for name in names {
            let path = if dir == "/" {
                format!("/{name}")
            } else {
                format!("{dir}/{name}")
            };
            let Ok(meta) = fs.metadata(&path) else { continue };
            if meta.is_dir {
                stack.push(path);
            } else if is_stage_debris(&name) && fs.remove(&path).is_ok() {
                swept.push(path);
            }
        }
    }
    swept.sort();
    swept
}

/// Scans `replay` and decides what recovery is needed: epoch to run
/// under, whether the last run was interrupted, and (when it was) the
/// resume plan.
pub fn scan_journal(replay: &Replay) -> (RecoveryReport, Option<ResumePlan>) {
    let mut report = RecoveryReport {
        torn_tail: replay.torn_tail,
        epoch: replay.last_epoch + 1,
        ..RecoveryReport::default()
    };
    let plan = match replay.interrupted_run() {
        Some(records) => {
            report.interrupted = true;
            let plan = ResumePlan::from_records(records);
            report.resumable = plan.total();
            Some(plan)
        }
        None => {
            report.interrupted = replay.torn_tail;
            None
        }
    };
    (report, plan)
}

/// Length and FNV-1a of the region's input — its [`region_input_paths`]
/// concatenated — folded chunk by chunk so the input is never held in
/// memory. This is what the memo's `input_len`/`input_hash` fingerprint,
/// at checkpoint and again at resume verification.
pub fn region_input_digest(fs: &FsHandle, region: &Region) -> io::Result<(u64, u64)> {
    let (mut len, mut hash) = (0u64, jash_io::FNV1A_INIT);
    for path in region_input_paths(region) {
        let mut file = fs.open_read(&path)?;
        while let Some(chunk) = file.read_chunk(jash_io::DEFAULT_CHUNK)? {
            len += chunk.len() as u64;
            hash = jash_io::fnv1a_fold(hash, &chunk);
        }
    }
    Ok((len, hash))
}

/// Best-effort recursive removal of `dir` and everything under it.
/// Errors are swallowed: a scope that cannot be fully removed is left
/// for the next janitor pass rather than failing recovery.
pub fn remove_tree(fs: &dyn Fs, dir: &str) {
    if let Ok(names) = fs.list_dir(dir) {
        for name in names {
            let path = if dir.ends_with('/') {
                format!("{dir}{name}")
            } else {
                format!("{dir}/{name}")
            };
            match fs.metadata(&path) {
                Ok(m) if m.is_dir => remove_tree(fs, &path),
                _ => {
                    let _ = fs.remove(&path);
                }
            }
        }
    }
    let _ = fs.remove_dir(dir);
}

/// The `run-<id>` journal scopes under a serve root, in run-id order.
pub fn list_run_scopes(fs: &dyn Fs, root: &str) -> Vec<(u64, String)> {
    let mut scopes = Vec::new();
    let Ok(names) = fs.list_dir(root) else {
        return scopes;
    };
    for name in names {
        let Some(id) = name
            .strip_prefix("run-")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let path = format!("{root}/{name}");
        if fs.metadata(&path).map(|m| m.is_dir).unwrap_or(false) {
            scopes.push((id, path));
        }
    }
    scopes.sort();
    scopes
}

/// What the serve startup janitor did with a dead daemon's estate.
#[derive(Debug, Clone, Default)]
pub struct ServeRecovery {
    /// Ledgered-accepted runs with no terminal record.
    pub orphans: usize,
    /// Keyed orphans re-run (resuming journaled-clean regions) to a
    /// terminal result the returning client can collect.
    pub finalized: usize,
    /// Unkeyed orphans marked aborted — their clients saw the daemon
    /// die and, keyless, cannot safely resubmit, so nobody will return
    /// for the result.
    pub aborted: usize,
    /// Journaled-clean regions satisfied from the durable memo instead
    /// of re-executing during finalization.
    pub regions_resumed: u64,
    /// Keyed terminal results reloaded into the replay cache.
    pub cached: usize,
    /// Stale `run-<id>` scope directories removed.
    pub scopes_removed: usize,
    /// Orphaned `.jash-stage-*` files swept.
    pub swept: usize,
    /// Whether the ledger ended in a torn record (dropped).
    pub torn_tail: bool,
}

impl ServeRecovery {
    /// Whether the janitor found anything at all to do.
    pub fn acted(&self) -> bool {
        self.orphans > 0 || self.cached > 0 || self.scopes_removed > 0 || self.swept > 0
    }
}

/// One terminal result a restarted daemon can replay to a duplicate
/// keyed submission: either reloaded from ledgered blobs or produced by
/// finalizing an orphan.
#[derive(Debug, Clone)]
pub struct RecoveredRun {
    /// Run id from the previous daemon's numbering.
    pub run_id: u64,
    /// Idempotency key (never empty — unkeyed runs are not replayable).
    pub key: String,
    /// Terminal exit status.
    pub status: i32,
    /// Abort reason, when the run was cancelled.
    pub aborted: Option<String>,
    /// Terminal stdout bytes.
    pub stdout: Vec<u8>,
    /// Terminal stderr bytes.
    pub stderr: Vec<u8>,
}

/// Re-runs an orphaned submission's script in its journal scope with
/// `resume` on: regions the dead run journaled clean are satisfied from
/// the durable memo, execution restarts at the first incomplete region.
/// Returns `(status, stdout, stderr, regions_resumed)`.
fn finalize_orphan(
    fs: &FsHandle,
    scope: &str,
    script: &str,
    engine: crate::Engine,
    machine: jash_cost::MachineProfile,
    eager: bool,
    durable: bool,
) -> (i32, Vec<u8>, Vec<u8>, u64) {
    let mut shell = crate::Jash::new(engine, machine);
    shell.durable = durable;
    if eager {
        shell.planner.min_speedup = 0.0;
        shell.planner.force_width = Some(4);
    }
    if engine == crate::Engine::JashJit {
        let _ = shell.attach_journal(fs, scope, true);
    }
    let mut state = jash_expand::ShellState::new(Arc::clone(fs));
    state.shell_name = format!("jash-serve:recovery:{scope}");
    let outcome = catch_unwind(AssertUnwindSafe(|| shell.run_script(&mut state, script)));
    let resumed = shell.runtime.regions_resumed;
    match outcome {
        Ok(Ok(r)) => (r.status, r.stdout, r.stderr, resumed),
        Ok(Err(e)) => (2, Vec::new(), format!("jash: {e}\n").into_bytes(), resumed),
        Err(_) => (
            125,
            Vec::new(),
            b"jash: recovery run panicked\n".to_vec(),
            resumed,
        ),
    }
}

/// The serve startup janitor: replays the admission ledger at
/// `<root>/ledger`, finalizes or aborts every orphaned run, reloads
/// cached keyed results, removes stale `run-<id>` scopes, and sweeps
/// staging debris. Runs *before* the daemon binds its socket, so a
/// successful connect implies recovery is complete.
///
/// Keyed orphans are re-run to completion (their clients hold an
/// idempotency key and will resubmit to collect the result); regions the
/// dead daemon journaled clean are replayed from the durable memo, not
/// re-executed. Unkeyed orphans are marked aborted (status 143) — with
/// no key there is no safe way for their client to reclaim them.
/// Recovery deliberately ignores the original submission deadline: the
/// promise being kept is "accepted work reaches a terminal state", and a
/// late result beats a resource leak.
///
/// Returns the janitor's report, the replayable terminal results, and
/// the run-id watermark the new daemon must continue numbering from.
pub fn recover_serve_root(
    fs: &FsHandle,
    root: &str,
    engine: crate::Engine,
    machine: jash_cost::MachineProfile,
    eager: bool,
    durable: bool,
) -> io::Result<(ServeRecovery, Vec<RecoveredRun>, u64)> {
    let ledger_path = format!("{root}/ledger");
    let replay = jash_io::Ledger::replay(fs.as_ref(), &ledger_path)?;
    let mut report = ServeRecovery {
        torn_tail: replay.torn_tail,
        ..ServeRecovery::default()
    };
    let state = jash_io::ledger::fold(&replay.records);
    let ledger = jash_io::Ledger::open(Arc::clone(fs), &ledger_path, durable);
    let mut runs = Vec::new();

    // Terminal results from the previous life whose clients may still
    // resubmit their key.
    for fin in &state.finished {
        if fin.key.is_empty() {
            continue;
        }
        report.cached += 1;
        runs.push(RecoveredRun {
            run_id: fin.run_id,
            key: fin.key.clone(),
            status: fin.status,
            aborted: fin.aborted.clone(),
            stdout: jash_io::ledger::read_result_blob(fs.as_ref(), root, fin.run_id, "out"),
            stderr: jash_io::ledger::read_result_blob(fs.as_ref(), root, fin.run_id, "err"),
        });
    }

    report.orphans = state.orphans.len();
    for orphan in &state.orphans {
        let scope = format!("{root}/run-{}", orphan.run_id);
        if orphan.key.is_empty() {
            ledger.append(&jash_io::LedgerRecord::Done {
                run_id: orphan.run_id,
                status: 143,
                aborted: Some("recovery: daemon restarted; unkeyed run aborted".to_string()),
            })?;
            report.aborted += 1;
        } else {
            let (status, stdout, stderr, resumed) =
                finalize_orphan(fs, &scope, &orphan.script, engine, machine, eager, durable);
            report.regions_resumed += resumed;
            // Blobs before the Done record: a crash between the two
            // leaves the run an orphan again, never a Done whose result
            // bytes are missing.
            jash_io::ledger::write_result_blobs(
                fs.as_ref(),
                root,
                orphan.run_id,
                &stdout,
                &stderr,
                durable,
            )?;
            ledger.append(&jash_io::LedgerRecord::Done {
                run_id: orphan.run_id,
                status,
                aborted: None,
            })?;
            report.finalized += 1;
            runs.push(RecoveredRun {
                run_id: orphan.run_id,
                key: orphan.key.clone(),
                status,
                aborted: None,
                stdout,
                stderr,
            });
        }
    }

    // Every surviving scope is now stale: finalized runs are terminal,
    // aborted ones abandoned, and completed runs' scopes should have
    // been removed at completion. (Removal comes *after* finalization —
    // resume needs the scopes' journals and memos.)
    for (_, scope) in list_run_scopes(fs.as_ref(), root) {
        remove_tree(fs.as_ref(), &scope);
        report.scopes_removed += 1;
    }
    report.swept = sweep_stage_debris(fs.as_ref()).len();
    Ok((report, runs, state.next_run))
}

/// The input paths a region reads, for the `RegionStart` journal record.
pub fn region_input_paths(region: &Region) -> Vec<String> {
    let mut paths = Vec::new();
    let Some(first) = region.commands.first() else {
        return paths;
    };
    if let Some(p) = &first.stdin_redirect {
        paths.push(p.clone());
    }
    if first.name == "cat" {
        for a in first.args.iter().filter(|a| !a.starts_with('-')) {
            paths.push(a.clone());
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_codes_follow_the_128_plus_sig_convention() {
        assert_eq!(shutdown_code(&shutdown_reason(2)), Some(130));
        assert_eq!(shutdown_code(&shutdown_reason(15)), Some(143));
        assert_eq!(shutdown_code("watchdog: region stalled"), None);
        assert_eq!(shutdown_code("injected: disk gone"), None);
    }

    #[test]
    fn cancel_exit_code_covers_both_graceful_flavors() {
        use std::time::Duration;
        assert_eq!(cancel_exit_code(&shutdown_reason(15)), Some(143));
        assert_eq!(
            cancel_exit_code(&jash_io::cancel::deadline_reason(Duration::from_secs(3))),
            Some(124)
        );
        assert_eq!(cancel_exit_code("watchdog: region stalled"), None);
        assert_eq!(cancel_exit_code("client disconnected"), None);
    }

    #[test]
    fn resume_plan_consumes_duplicate_shapes_in_order() {
        let records = vec![
            JournalRecord::RegionDone {
                fingerprint: 7,
                status: 0,
                clean: true,
            },
            JournalRecord::RegionDone {
                fingerprint: 7,
                status: 0,
                clean: true,
            },
            // Unclean and nonzero completions are not resumable.
            JournalRecord::RegionDone {
                fingerprint: 8,
                status: 0,
                clean: false,
            },
            JournalRecord::RegionDone {
                fingerprint: 9,
                status: 1,
                clean: true,
            },
        ];
        let mut plan = ResumePlan::from_records(&records);
        assert_eq!(plan.total(), 2);
        assert!(plan.take(7).is_some());
        assert!(plan.take(7).is_some());
        assert!(plan.take(7).is_none(), "third occurrence must re-execute");
        assert!(plan.take(8).is_none());
        assert!(plan.take(9).is_none());
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn region_input_digest_matches_the_concatenated_bytes() {
        use jash_dataflow::ExpandedCommand;
        let fs = jash_io::mem_fs();
        // More than one 128 KiB chunk, with a ragged tail.
        let big: Vec<u8> = (0..300_001u32).map(|i| (i % 251) as u8).collect();
        for (p, c) in [("/empty", &b""[..]), ("/small", b"b\na\n"), ("/big", &big)] {
            jash_io::fs::write_file(fs.as_ref(), p, c).unwrap();
        }
        let stage = |name: &str, args: &[&str], stdin: Option<&str>| {
            let mut c = ExpandedCommand::new(name, args);
            c.stdin_redirect = stdin.map(str::to_string);
            c
        };
        let cases: [(ExpandedCommand, Vec<&[u8]>); 5] = [
            (stage("sort", &[], Some("/big")), vec![&big]),
            (stage("sort", &[], Some("/empty")), vec![]),
            (
                stage("cat", &["/small", "/big"], None),
                vec![b"b\na\n", &big],
            ),
            (
                stage("cat", &["-n", "/empty", "/small"], Some("/big")),
                vec![&big, b"b\na\n"],
            ),
            // Only a leading `cat` reads its operands as region input.
            (stage("grep", &["/small"], None), vec![]),
        ];
        for (first, parts) in cases {
            let region = Region {
                commands: vec![first.clone(), ExpandedCommand::new("wc", &["-l"])],
            };
            let bytes = parts.concat();
            assert_eq!(
                region_input_digest(&fs, &region).unwrap(),
                (bytes.len() as u64, jash_io::fnv1a(&bytes)),
                "{first:?}"
            );
        }
        let missing = Region {
            commands: vec![stage("cat", &["/nope"], None)],
        };
        assert!(region_input_digest(&fs, &missing).is_err());
    }

    #[test]
    fn janitor_sweeps_planted_debris_only() {
        let fs = jash_io::mem_fs();
        for (p, c) in [
            ("/out.jash-stage-3", "stranded"),
            ("/data/deep/out.txt.jash-stage-11", "stranded"),
            ("/data/out.txt", "keep"),
            ("/notes.jash-stage-x", "keep: non-numeric tail"),
            ("/.jash/journal", "keep"),
        ] {
            jash_io::fs::write_file(fs.as_ref(), p, c.as_bytes()).unwrap();
        }
        let swept = sweep_stage_debris(fs.as_ref());
        assert_eq!(
            swept,
            vec![
                "/data/deep/out.txt.jash-stage-11".to_string(),
                "/out.jash-stage-3".to_string()
            ]
        );
        assert!(!fs.exists("/out.jash-stage-3"));
        assert!(fs.exists("/data/out.txt"));
        assert!(fs.exists("/notes.jash-stage-x"));
        assert!(fs.exists("/.jash/journal"));
    }

    #[test]
    fn scan_flags_interruption_and_next_epoch() {
        let mut replay = Replay {
            records: vec![
                JournalRecord::RunStart { epoch: 1 },
                JournalRecord::RunComplete,
                JournalRecord::RunStart { epoch: 2 },
                JournalRecord::RegionDone {
                    fingerprint: 1,
                    status: 0,
                    clean: true,
                },
            ],
            torn_tail: false,
            last_epoch: 2,
        };
        let (report, plan) = scan_journal(&replay);
        assert!(report.interrupted);
        assert_eq!(report.resumable, 1);
        assert_eq!(report.epoch, 3);
        assert!(plan.is_some());

        replay.records.push(JournalRecord::RunComplete);
        let (report, plan) = scan_journal(&replay);
        assert!(!report.interrupted);
        assert!(plan.is_none());
    }
}
