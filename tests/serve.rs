//! Integration suite for the `jash serve` daemon: a concurrent-client
//! storm under injected faults, admission-control overload, mid-run
//! client disconnects, wall-clock deadlines, graceful drain — and the
//! trace-flush-on-SIGTERM regression test for the one-shot binary.
//!
//! The in-process tests run a real [`jash::serve::Server`] on a real
//! unix socket over an in-memory filesystem, so fault injection and
//! debris audits are deterministic; the binary tests spawn the actual
//! `jash` executable and deliver actual signals.

use jash::cost::MachineProfile;
use jash::io::{CpuModel, FsHandle, TempDir};
use jash::serve::{reject, Request, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn machine() -> MachineProfile {
    MachineProfile {
        cores: 8,
        disk: jash::io::DiskProfile::ramdisk(),
        mem_mb: 8 * 1024,
    }
}

/// Deterministic mixed-case input, large enough that eager width-4
/// plans actually split it.
fn docs(bytes: usize) -> Vec<u8> {
    let words = ["alpha", "Bravo", "CHARLIE", "delta", "Echo", "Foxtrot", "golf"];
    let mut out = Vec::with_capacity(bytes + 64);
    let mut x = 0x5eedu64;
    while out.len() < bytes {
        for _ in 0..8 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(words[(x % words.len() as u64) as usize].as_bytes());
            out.push(b' ');
        }
        out.push(b'\n');
    }
    out
}

const SCRIPT: &str = "cat /data/docs.txt | tr A-Z a-z | tr -cs a-z '\\n' | sort -u";

/// A server over a staged MemFs, plus everything a test needs to audit
/// it afterwards.
struct Rig {
    server: Server,
    fs: FsHandle,
    socket: PathBuf,
    _dir: TempDir,
}

fn rig(workers: usize, queue_cap: usize, configure: impl FnOnce(&mut ServerConfig)) -> Rig {
    let dir = TempDir::new("jash-it-serve");
    let socket = dir.path().join("sock");
    let fs = jash::io::mem_fs();
    jash::io::fs::write_file(fs.as_ref(), "/data/docs.txt", &docs(96 * 1024)).unwrap();
    let mut cfg = ServerConfig::new(&socket, Arc::clone(&fs));
    cfg.machine = machine();
    cfg.workers = workers;
    cfg.queue_cap = queue_cap;
    cfg.eager = true;
    cfg.durable = false;
    cfg.drain_budget = Duration::from_secs(10);
    cfg.journal_root = Some("/.jash-serve".to_string());
    cfg.trace_root = Some("/traces".to_string());
    cfg.cpu = Some(CpuModel::new(8, 0.0));
    cfg.fault_injector = Some(jash::serve::spec_fault_injector());
    configure(&mut cfg);
    Rig {
        server: Server::start(cfg).unwrap(),
        fs,
        socket,
        _dir: dir,
    }
}

/// Recursively walks the virtual fs for leaked `.jash-stage-*` files.
fn debris(fs: &FsHandle) -> Vec<String> {
    let mut found = Vec::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        for name in fs.list_dir(&dir).unwrap_or_default() {
            let path = if dir == "/" {
                format!("/{name}")
            } else {
                format!("{dir}/{name}")
            };
            if fs.metadata(&path).map(|m| m.is_dir).unwrap_or(false) {
                stack.push(path);
            } else if name.contains(".jash-stage-") {
                found.push(path);
            }
        }
    }
    found
}

/// Looks up `key` in a span's insertion-ordered attribute list.
fn attr<'a>(
    attrs: &'a [(String, jash::trace::AttrValue)],
    key: &str,
) -> Option<&'a jash::trace::AttrValue> {
    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses run `run_id`'s trace with the schema-v1 parser and returns
/// its records, panicking with the parse error if the file is invalid
/// or missing.
fn parsed_trace(fs: &FsHandle, run_id: u64) -> Vec<jash::trace::Record> {
    let path = format!("/traces/run-{run_id}.jsonl");
    let bytes = jash::io::fs::read_to_vec(fs.as_ref(), &path)
        .unwrap_or_else(|e| panic!("trace {path} unreadable: {e}"));
    let text = String::from_utf8(bytes).expect("trace is utf-8");
    jash::trace::parse_jsonl(&text).unwrap_or_else(|e| panic!("trace {path} unparseable: {e}"))
}

fn poll_until(what: &str, deadline: Duration, mut ok: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn storm_of_sixteen_clients_with_mixed_faults_stays_sound() {
    let rig = rig(4, 16, |_| {});
    let expected = {
        // The ground truth: the same script under the sequential engine.
        let fs = jash::io::mem_fs();
        jash::io::fs::write_file(fs.as_ref(), "/data/docs.txt", &docs(96 * 1024)).unwrap();
        let mut state = jash::expand::ShellState::new(fs);
        let mut shell = jash::core::Jash::new(jash::core::Engine::Bash, machine());
        shell.run_script(&mut state, SCRIPT).unwrap().stdout
    };

    let socket = rig.socket.clone();
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut req = Request::new(SCRIPT);
                req.tenant = format!("tenant-{}", i % 4);
                // Mixed workload: 12 clean runs, 2 transient faults the
                // supervisor must absorb, 2 sticky faults that fail.
                req.fault = match i % 8 {
                    3 => Some("transient-read:/data/docs.txt:32768".to_string()),
                    6 => Some("read-error:/data/docs.txt:32768".to_string()),
                    _ => None,
                };
                (i, jash::serve::submit(&socket, &req).unwrap())
            })
        })
        .collect();

    let mut completed = 0;
    for h in handles {
        let (i, reply) = h.join().unwrap();
        assert!(
            reply.completed(),
            "client {i} did not complete: {:?}",
            reply.rejected
        );
        completed += 1;
        let run_id = reply.run_id.expect("accepted runs carry a run id");
        match i % 8 {
            // Sticky read errors fail on every engine; status is
            // nonzero but the daemon answered in full.
            6 => assert_ne!(reply.status, Some(0), "client {i} should have faulted"),
            // Clean and transient-fault runs both deliver the exact
            // sequential answer — retry absorbed the transient.
            _ => {
                assert_eq!(reply.status, Some(0), "client {i}: {:?}", reply);
                assert_eq!(
                    reply.stdout, expected,
                    "client {i} diverged from the sequential baseline"
                );
            }
        }
        // Every run's trace parses with the schema-v1 parser and is
        // attributed to its run and tenant.
        let records = parsed_trace(&rig.fs, run_id);
        let run_attrs = records
            .iter()
            .find_map(|r| match r {
                jash::trace::Record::Span { kind, attrs, .. } if kind == "run" => Some(attrs),
                _ => None,
            })
            .expect("trace has a run span");
        assert_eq!(
            attr(run_attrs, "run_id"),
            Some(&jash::trace::AttrValue::UInt(run_id))
        );
        assert!(attr(run_attrs, "tenant").is_some());
    }
    assert_eq!(completed, 16);

    let stats = rig.server.stats();
    assert_eq!(stats.accepted, 16);
    assert_eq!(stats.rejected_overload, 0, "queue of 16 never overflows here");
    assert_eq!(debris(&rig.fs), Vec::<String>::new(), "no staging debris");

    let report = rig.server.drain();
    assert!(report.within_budget);
    assert_eq!(report.stragglers, 0);
    assert_eq!(report.stats.completed, 16);
}

#[test]
fn overload_is_shed_with_a_structured_rejection() {
    let rig = rig(1, 1, |_| {});
    let stall = || {
        let mut req = Request::new(SCRIPT);
        req.fault = Some("stall-read:/data/docs.txt:60000".to_string());
        req
    };
    // Fill the worker...
    let running = jash::serve::submit_detached(&rig.socket, &stall())
        .unwrap()
        .expect("first submission admitted");
    poll_until("worker to pick up the stalled run", Duration::from_secs(5), || {
        rig.server.load() == (1, 0)
    });
    // ...and the queue...
    let queued = jash::serve::submit_detached(&rig.socket, &stall())
        .unwrap()
        .expect("second submission queued");
    poll_until("queue to fill", Duration::from_secs(5), || {
        rig.server.load() == (1, 1)
    });
    // ...and the next submission must be rejected immediately — shed,
    // never stalled.
    let t0 = Instant::now();
    let reply = jash::serve::submit(&rig.socket, &Request::new(SCRIPT)).unwrap();
    let answered_in = t0.elapsed();
    let (code, active, queued_n, reason) = reply.rejected.expect("structured rejection");
    assert_eq!(code, reject::OVERLOADED);
    assert_eq!((active, queued_n), (1, 1));
    assert!(reason.contains("queue full"), "reason: {reason}");
    assert!(
        answered_in < Duration::from_secs(2),
        "rejection stalled for {answered_in:?}"
    );
    assert_eq!(rig.server.stats().rejected_overload, 1);

    // Drain: the stalled run aborts via its (cancel-wired) fault stall,
    // the queued one is shed with the DRAINING code.
    let report = rig.server.drain();
    assert!(report.within_budget, "stalled run ignored its cancel");
    assert_eq!(report.in_flight, 1);
    assert_eq!(report.shed, 1);
    let (mut c1, _run) = running;
    let mut r1 = jash::serve::RunReply::default();
    jash::serve::client::collect(&mut c1, &mut r1).unwrap();
    assert_eq!(r1.status, Some(143), "in-flight run aborted with 128+15");
    assert!(r1.aborted.unwrap().starts_with("shutdown:"));
    let (mut c2, _run) = queued;
    let mut r2 = jash::serve::RunReply::default();
    jash::serve::client::collect(&mut c2, &mut r2).unwrap();
    assert_eq!(r2.rejected.as_ref().map(|r| r.0), Some(reject::DRAINING));
}

#[test]
fn client_disconnect_cancels_the_run_and_frees_its_slot() {
    let rig = rig(1, 4, |_| {});
    let mut req = Request::new(SCRIPT);
    req.fault = Some("stall-read:/data/docs.txt:60000".to_string());
    let (conn, _run_id) = jash::serve::submit_detached(&rig.socket, &req)
        .unwrap()
        .expect("admitted");
    poll_until("worker to pick up the stalled run", Duration::from_secs(5), || {
        rig.server.load().0 == 1
    });
    // The client vanishes mid-run; the daemon must notice, cancel the
    // orphaned run, and free the only worker slot.
    drop(conn);
    poll_until("disconnect to cancel the run", Duration::from_secs(5), || {
        rig.server.stats().disconnect_cancels >= 1 && rig.server.load().0 == 0
    });
    // The freed slot serves the next client normally.
    let reply = jash::serve::submit(&rig.socket, &Request::new(SCRIPT)).unwrap();
    assert_eq!(reply.status, Some(0), "{reply:?}");
    let report = rig.server.drain();
    assert!(report.within_budget);
    assert_eq!(debris(&rig.fs), Vec::<String>::new());
}

#[test]
fn deadline_aborts_the_run_with_exit_124_and_journals_it() {
    let rig = rig(1, 2, |_| {});
    let mut req = Request::new(SCRIPT);
    req.timeout_ms = 150;
    req.fault = Some("stall-read:/data/docs.txt:60000".to_string());
    let reply = jash::serve::submit(&rig.socket, &req).unwrap();
    assert_eq!(reply.status, Some(124), "{reply:?}");
    let aborted = reply.aborted.expect("deadline abort carries its reason");
    assert!(aborted.starts_with("deadline:"), "reason: {aborted}");
    assert_eq!(rig.server.stats().deadline_aborts, 1);
    // The abort was journaled: the run is interrupted-but-resumable,
    // exactly like a SIGTERM.
    let run_id = reply.run_id.unwrap();
    let journal = jash::io::fs::read_to_vec(
        rig.fs.as_ref(),
        &format!("/.jash-serve/run-{run_id}/journal"),
    )
    .expect("per-run journal exists");
    let text = String::from_utf8(journal).unwrap();
    assert!(
        text.lines().any(|l| l.contains("region-aborted")),
        "journal lacks the aborted region:\n{text}"
    );
    assert!(!text.contains("run-complete"), "aborted run must stay resumable");
    rig.server.drain();
}

#[test]
fn graceful_drain_retires_every_run_within_budget_with_zero_debris() {
    let rig = rig(4, 8, |_| {});
    let stall = || {
        let mut req = Request::new(SCRIPT);
        req.fault = Some("stall-read:/data/docs.txt:60000".to_string());
        req
    };
    // Four runs wedged in the workers, two more waiting in the queue.
    let mut streams = Vec::new();
    for _ in 0..6 {
        streams.push(
            jash::serve::submit_detached(&rig.socket, &stall())
                .unwrap()
                .expect("admitted"),
        );
    }
    poll_until("4 active + 2 queued", Duration::from_secs(5), || {
        rig.server.load() == (4, 2)
    });

    let t0 = Instant::now();
    let report = rig.server.drain();
    assert!(report.within_budget, "drain blew its budget");
    assert!(t0.elapsed() < Duration::from_secs(10));
    assert_eq!(report.in_flight, 4);
    assert_eq!(report.shed, 2);
    assert_eq!(report.stragglers, 0);

    // Every client got a definitive answer: aborted Done for in-flight
    // runs, DRAINING rejection for queued ones.
    let mut aborted = 0;
    let mut shed = 0;
    for (mut conn, run_id) in streams {
        let mut reply = jash::serve::RunReply::default();
        jash::serve::client::collect(&mut conn, &mut reply).unwrap();
        if let Some(status) = reply.status {
            assert_eq!(status, 143);
            aborted += 1;
            // The aborted run's trace still flushed and still parses.
            let records = parsed_trace(&rig.fs, run_id);
            assert!(!records.is_empty());
        } else {
            assert_eq!(reply.rejected.as_ref().map(|r| r.0), Some(reject::DRAINING));
            shed += 1;
        }
    }
    assert_eq!((aborted, shed), (4, 2));
    assert_eq!(debris(&rig.fs), Vec::<String>::new(), "drain left staging debris");
}

#[test]
fn drain_does_not_wait_on_an_accept_loop_it_cannot_reach() {
    let rig = rig(1, 2, |_| {});
    let reply = jash::serve::submit(&rig.socket, &Request::new(SCRIPT)).unwrap();
    assert_eq!(reply.status, Some(0), "{reply:?}");
    // The socket file vanishes under the daemon: drain's wake-up connect
    // fails, and the accept loop (blocked in accept, unreachable for good)
    // must be left behind, not joined.
    std::fs::remove_file(&rig.socket).unwrap();
    let t0 = Instant::now();
    let report = rig.server.drain();
    assert!(t0.elapsed() < Duration::from_secs(2), "drain hung on the accept thread");
    assert!(report.within_budget);
    assert_eq!(report.stats.completed, 1);
}

#[test]
fn pressure_tightens_the_planner_as_the_daemon_loads_up() {
    let rig = rig(2, 4, |_| {});
    let idle = rig.server.pressure();
    assert!(idle < 0.3, "idle daemon reads high pressure: {idle}");
    let mut req = Request::new(SCRIPT);
    req.fault = Some("stall-read:/data/docs.txt:60000".to_string());
    let _a = jash::serve::submit_detached(&rig.socket, &req).unwrap().unwrap();
    let _b = jash::serve::submit_detached(&rig.socket, &req).unwrap().unwrap();
    poll_until("both workers busy", Duration::from_secs(5), || {
        rig.server.load().0 == 2
    });
    let busy = rig.server.pressure();
    assert!(busy > idle, "pressure did not rise under load: {idle} -> {busy}");
    // The signal feeds the planner: under full pressure widening is off.
    let opts = jash::cost::PlannerOptions::default().under_pressure(1.0);
    assert_eq!(opts.force_width, Some(1));
    rig.server.drain();
}

/// Starvation drill: a flooding tenant hammers the daemon while a light
/// tenant trickles in. Fair-share scheduling must keep the light tenant
/// whole — every light submission completes with the exact sequential
/// answer and a bounded queue wait — while the flooder alone absorbs
/// every per-tenant QUOTA rejection.
#[test]
fn flooding_tenant_cannot_starve_the_light_tenant() {
    let rig = rig(2, 64, |cfg| {
        // The flooder gets one worker slot and a shallow queue; the
        // light tenant rides the (unbounded) default policy.
        cfg.tenants = vec![(
            "flood".to_string(),
            jash::serve::TenantPolicy {
                weight: 1.0,
                max_active: 1,
                queue_cap: 4,
            },
        )];
    });
    let expected = {
        let fs = jash::io::mem_fs();
        jash::io::fs::write_file(fs.as_ref(), "/data/docs.txt", &docs(96 * 1024)).unwrap();
        let mut state = jash::expand::ShellState::new(fs);
        let mut shell = jash::core::Jash::new(jash::core::Engine::Bash, machine());
        shell.run_script(&mut state, SCRIPT).unwrap().stdout
    };

    // 16 flood clients arrive at once. Each run stalls ~400ms, so the
    // flooder's single slot plus 4 queue places wedge; the rest must be
    // shed with QUOTA, immediately, and never promoted over the cap.
    let socket = rig.socket.clone();
    let flood: Vec<_> = (0..16)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut req = Request::new(SCRIPT).with_tenant("flood");
                req.fault = Some("stall-read:/data/docs.txt:400".to_string());
                jash::serve::submit(&socket, &req).unwrap()
            })
        })
        .collect();
    poll_until("flood to wedge its quota", Duration::from_secs(5), || {
        rig.server
            .tenants()
            .iter()
            .any(|t| t.tenant == "flood" && t.active == 1 && t.queued >= 1)
    });

    // The light tenant submits six runs through the storm; all must
    // come back complete, correct, and un-queued (the second worker is
    // the light tenant's by fair share — the flooder is capped at one).
    for i in 0..6 {
        let req = Request::new(SCRIPT).with_tenant("light");
        let reply = jash::serve::submit(&rig.socket, &req).unwrap();
        assert_eq!(reply.status, Some(0), "light run {i}: {:?}", reply.rejected);
        assert_eq!(reply.stdout, expected, "light run {i} diverged");
    }

    let mut flood_completed = 0;
    let mut flood_quota = 0;
    for h in flood {
        let reply = h.join().unwrap();
        if let Some((code, _, _, reason)) = &reply.rejected {
            assert_eq!(*code, reject::QUOTA, "flood shed with the wrong code");
            assert!(reason.contains("quota"), "reason: {reason}");
            flood_quota += 1;
        } else {
            assert!(reply.completed());
            flood_completed += 1;
        }
    }
    assert_eq!(flood_completed + flood_quota, 16);
    assert!(flood_quota >= 8, "only {flood_quota} of 16 flood runs shed");

    let report = rig.server.drain();
    assert!(report.within_budget);
    let row = |name: &str| {
        report
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("no tenant report for {name}"))
            .clone()
    };
    let light = row("light");
    assert_eq!(light.completed, 6);
    assert_eq!(light.rejected_quota, 0, "light tenant absorbed a QUOTA shed");
    assert!(
        light.max_queue_wait_ms < 2_000,
        "light tenant waited {}ms behind the flood",
        light.max_queue_wait_ms
    );
    let flood_row = row("flood");
    assert_eq!(flood_row.rejected_quota, flood_quota as u64);
    assert_eq!(flood_row.completed, flood_completed as u64);
    assert!(
        flood_row.disk_bytes > 0 && flood_row.cpu_seconds > 0.0,
        "flood usage not attributed: {flood_row:?}"
    );
    assert_eq!(debris(&rig.fs), Vec::<String>::new());
}

/// Quarantine round-trip: a tenant that fails its threshold of
/// consecutive runs is exiled with `QUARANTINED` while a bystander
/// keeps committing cleanly; after the cooldown, exactly one half-open
/// probe is admitted, and its success lifts the quarantine.
#[test]
fn failing_tenant_is_quarantined_and_paroled_by_a_probe() {
    let rig = rig(1, 8, |cfg| {
        cfg.quarantine_failures = 3;
        cfg.quarantine_cooldown = 2;
    });
    let sticky = || {
        let mut req = Request::new(SCRIPT).with_tenant("victim");
        req.fault = Some("read-error:/data/docs.txt:32768".to_string());
        req
    };

    // Ticks 1-3: three consecutive sticky-fault failures trip the
    // breaker (threshold 3), opening the quarantine through tick 5.
    for i in 0..3 {
        let reply = jash::serve::submit(&rig.socket, &sticky()).unwrap();
        assert!(reply.completed(), "failing run {i} still gets an answer");
        assert_ne!(reply.status, Some(0), "run {i} was meant to fail");
    }
    assert_eq!(rig.server.stats().tenants_quarantined, 1);

    // Tick 4: the quarantined tenant is bounced without running.
    let reply = jash::serve::submit(&rig.socket, &sticky()).unwrap();
    let (code, _, _, reason) = reply.rejected.expect("quarantined tenants are shed");
    assert_eq!(code, reject::QUARANTINED);
    assert!(reason.contains("quarantined"), "reason: {reason}");
    assert!(reply.run_id.is_none(), "quarantined submission must not run");

    // Tick 5: a bystander sails through — quarantine is per-tenant.
    let reply =
        jash::serve::submit(&rig.socket, &Request::new(SCRIPT).with_tenant("bystander")).unwrap();
    assert_eq!(reply.status, Some(0), "bystander caught the quarantine");

    // Tick 6: cooldown elapsed — the victim's next submission is the
    // half-open probe. It runs clean, which closes the breaker.
    let reply =
        jash::serve::submit(&rig.socket, &Request::new(SCRIPT).with_tenant("victim")).unwrap();
    assert_eq!(reply.status, Some(0), "probe run failed: {:?}", reply.aborted);
    let probe_id = reply.run_id.expect("probe was admitted");
    let records = parsed_trace(&rig.fs, probe_id);
    let probed = records.iter().any(|r| match r {
        jash::trace::Record::Span { kind, attrs, .. } => {
            kind == "run"
                && attr(attrs, "quarantine_probe") == Some(&jash::trace::AttrValue::Bool(true))
        }
        _ => false,
    });
    assert!(probed, "probe run's trace is not marked quarantine_probe");

    // Tick 7: parole — the tenant is back to normal admission.
    let reply =
        jash::serve::submit(&rig.socket, &Request::new(SCRIPT).with_tenant("victim")).unwrap();
    assert_eq!(reply.status, Some(0));

    let report = rig.server.drain();
    let victim = report
        .tenants
        .iter()
        .find(|t| t.tenant == "victim")
        .expect("victim report");
    assert_eq!(victim.failures, 3);
    assert_eq!(victim.quarantines, 1);
    assert_eq!(victim.rejected_quarantined, 1);
    assert!(!victim.quarantined_now, "parole did not stick");
    assert_eq!(report.stats.rejected_quarantined, 1);
    assert_eq!(debris(&rig.fs), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// Exactly-once: idempotency keys, restart recovery, client resilience.
// ---------------------------------------------------------------------

#[test]
fn duplicate_keyed_submission_replays_the_cached_result() {
    let rig = rig(2, 4, |_| {});
    let req = Request::new(SCRIPT).with_key("nightly-etl");
    let first = jash::serve::submit(&rig.socket, &req).unwrap();
    assert_eq!(first.status, Some(0), "{first:?}");
    assert!(first.attached.is_none(), "first submission must execute");

    // Clobber the input: if the duplicate re-executes instead of
    // replaying, its stdout diverges.
    jash::io::fs::write_file(rig.fs.as_ref(), "/data/docs.txt", b"SENTINEL JUNK\n").unwrap();

    let dup = jash::serve::submit(&rig.socket, &req).unwrap();
    assert_eq!(dup.status, Some(0), "{dup:?}");
    assert_eq!(dup.attached, first.run_id, "duplicate must attach, not execute");
    assert_eq!(dup.stdout, first.stdout, "replay must be byte-identical");
    assert_eq!(rig.server.stats().replayed, 1);

    // A cleanly-retired ledgered run needs no journal scope.
    let scopes: Vec<String> = rig
        .fs
        .list_dir("/.jash-serve")
        .unwrap_or_default()
        .into_iter()
        .filter(|n| n.starts_with("run-"))
        .collect();
    assert_eq!(scopes, Vec::<String>::new(), "clean run left its scope behind");

    rig.server.drain();
    assert_eq!(debris(&rig.fs), Vec::<String>::new());
}

#[test]
fn duplicate_keyed_submission_attaches_to_the_live_run() {
    let rig = rig(1, 2, |_| {});
    let req = {
        let mut r = Request::new(SCRIPT).with_key("long-haul");
        // A finite stall: long enough for the duplicate to arrive
        // mid-run, short enough that both clients then finish cleanly.
        r.fault = Some("stall-read:/data/docs.txt:800".to_string());
        r
    };
    let socket = rig.socket.clone();
    let racer = {
        let req = req.clone();
        std::thread::spawn(move || jash::serve::submit(&socket, &req).unwrap())
    };
    poll_until("worker to pick up the keyed run", Duration::from_secs(5), || {
        rig.server.load().0 == 1
    });

    // Same key while the run is in flight: the daemon must attach this
    // connection as a waiter, not queue a second execution.
    let dup = jash::serve::submit(&rig.socket, &req).unwrap();
    let first = racer.join().unwrap();
    assert_eq!(first.status, Some(0), "{first:?}");
    assert_eq!(dup.status, Some(0), "{dup:?}");
    assert_eq!(dup.attached, first.run_id, "duplicate must attach to the live run");
    assert_eq!(dup.stdout, first.stdout);
    assert!(rig.server.stats().attached >= 1);
    assert_eq!(rig.server.stats().replayed + rig.server.stats().attached, 1);

    rig.server.drain();
    assert_eq!(debris(&rig.fs), Vec::<String>::new());
}

#[test]
fn restart_recovery_finalizes_orphans_and_replays_cached_results() {
    use jash::io::{Ledger, LedgerRecord};

    let dir = TempDir::new("jash-it-recover");
    let socket = dir.path().join("sock");
    let fs = jash::io::mem_fs();
    jash::io::fs::write_file(fs.as_ref(), "/data/docs.txt", &docs(96 * 1024)).unwrap();

    // Fabricate the estate of a daemon that died mid-storm. Run 1: a
    // keyed run interrupted mid-flight — execute it once to build a
    // real journal, then strip `run-complete` so it reads as
    // interrupted (the crash_recovery idiom).
    let eager = jash::cost::PlannerOptions {
        min_speedup: 0.0,
        force_width: Some(4),
        ..Default::default()
    };
    let mut shell = jash::core::Jash::new(jash::core::Engine::JashJit, machine());
    shell.planner = eager;
    shell.durable = false;
    shell.attach_journal(&fs, "/.jash-serve/run-1", false).unwrap();
    let mut state = jash::expand::ShellState::new(Arc::clone(&fs));
    let first = shell.run_script(&mut state, SCRIPT).unwrap();
    assert_eq!(first.status, 0);
    let journal = jash::io::fs::read_to_vec(fs.as_ref(), "/.jash-serve/run-1/journal").unwrap();
    let doctored: String = String::from_utf8(journal)
        .unwrap()
        .lines()
        .filter(|l| !l.contains("run-complete"))
        .map(|l| format!("{l}\n"))
        .collect();
    jash::io::fs::write_file(fs.as_ref(), "/.jash-serve/run-1/journal", doctored.as_bytes())
        .unwrap();

    // The admission ledger the dead daemon left behind: run 1 keyed and
    // open, run 2 unkeyed and open, run 3 keyed and finished with its
    // result blobs on disk.
    let accepted = |run_id: u64, key: &str| LedgerRecord::Accepted {
        run_id,
        key: key.to_string(),
        tenant: "cli".to_string(),
        timeout_ms: 0,
        script_hash: jash::io::fnv1a(SCRIPT.as_bytes()),
        script: SCRIPT.to_string(),
    };
    let ledger = Ledger::open(Arc::clone(&fs), "/.jash-serve/ledger", false);
    ledger.append(&accepted(1, "nightly")).unwrap();
    ledger.append(&accepted(2, "")).unwrap();
    ledger.append(&accepted(3, "archived")).unwrap();
    jash::io::ledger::write_result_blobs(
        fs.as_ref(),
        "/.jash-serve",
        3,
        b"hello from the previous daemon\n",
        b"",
        false,
    )
    .unwrap();
    ledger
        .append(&LedgerRecord::Done { run_id: 3, status: 0, aborted: None })
        .unwrap();
    drop(ledger);

    let mut cfg = ServerConfig::new(&socket, Arc::clone(&fs));
    cfg.machine = machine();
    cfg.workers = 2;
    cfg.queue_cap = 4;
    cfg.eager = true;
    cfg.durable = false;
    cfg.journal_root = Some("/.jash-serve".to_string());
    let server = Server::start(cfg).unwrap();

    let rec = server.recovery();
    assert_eq!(rec.finalized, 1, "keyed orphan must be finalized: {rec:?}");
    assert_eq!(rec.aborted, 1, "unkeyed orphan must be aborted: {rec:?}");
    assert_eq!(rec.cached, 1, "finished keyed run must be cached: {rec:?}");
    assert!(rec.regions_resumed >= 1, "clean regions must resume from memo: {rec:?}");

    // Clobber the input *after* recovery: the keyed resubmissions below
    // must come from the result cache — re-execution would diverge.
    jash::io::fs::write_file(fs.as_ref(), "/data/docs.txt", b"SENTINEL JUNK\n").unwrap();

    // Resubmitting the interrupted run's key replays the recovered
    // terminal result, byte-identical to the uninterrupted first run.
    let r1 = jash::serve::submit(&socket, &Request::new(SCRIPT).with_key("nightly")).unwrap();
    assert_eq!(r1.status, Some(0), "{r1:?}");
    assert_eq!(r1.attached, Some(1));
    assert_eq!(r1.stdout, first.stdout, "recovered stdout must match the original");

    // Resubmitting the finished run's key replays its cached blobs.
    let r3 = jash::serve::submit(&socket, &Request::new(SCRIPT).with_key("archived")).unwrap();
    assert_eq!(r3.status, Some(0), "{r3:?}");
    assert_eq!(r3.attached, Some(3));
    assert_eq!(r3.stdout, b"hello from the previous daemon\n".to_vec());

    // The run-id watermark continues past the dead daemon's ledger.
    let fresh = jash::serve::submit(&socket, &Request::new(SCRIPT)).unwrap();
    assert_eq!(fresh.status, Some(0), "{fresh:?}");
    assert!(fresh.run_id >= Some(4), "watermark regressed: {:?}", fresh.run_id);

    // The janitor removed every orphaned run scope.
    let scopes: Vec<String> = fs
        .list_dir("/.jash-serve")
        .unwrap_or_default()
        .into_iter()
        .filter(|n| n.starts_with("run-"))
        .collect();
    assert_eq!(scopes, Vec::<String>::new(), "orphan scopes survived recovery");

    server.drain();
    assert_eq!(debris(&fs), Vec::<String>::new());
}

#[test]
fn submit_with_retry_rides_out_connect_failure_and_overload() {
    use jash::serve::{submit_with_retry, RetryConfig};
    let retry = || RetryConfig {
        attempts: 60,
        base: Duration::from_millis(50),
        max: Duration::from_millis(200),
        ..RetryConfig::default()
    };

    // Connect failure: the client starts before the daemon exists and
    // must ride its backoff until the socket appears.
    let dir = TempDir::new("jash-it-retry");
    let socket = dir.path().join("sock");
    let client = {
        let socket = socket.clone();
        let retry = retry();
        std::thread::spawn(move || submit_with_retry(&socket, &Request::new(SCRIPT), &retry))
    };
    std::thread::sleep(Duration::from_millis(250));
    let fs = jash::io::mem_fs();
    jash::io::fs::write_file(fs.as_ref(), "/data/docs.txt", &docs(96 * 1024)).unwrap();
    let mut cfg = ServerConfig::new(&socket, Arc::clone(&fs));
    cfg.machine = machine();
    cfg.workers = 1;
    cfg.queue_cap = 2;
    cfg.eager = true;
    cfg.durable = false;
    cfg.journal_root = Some("/.jash-serve".to_string());
    cfg.fault_injector = Some(jash::serve::spec_fault_injector());
    let server = Server::start(cfg).unwrap();
    let reply = client.join().unwrap().expect("retry must outlast the late bind");
    assert_eq!(reply.status, Some(0), "{reply:?}");
    assert!(reply.retries >= 1, "no retry was needed, so the drill proved nothing");
    server.drain();

    // Overload: a full daemon sheds with OVERLOADED (retryable); the
    // client's backoff must outlast the congestion.
    let rig = rig(1, 1, |_| {});
    let stall = || {
        let mut r = Request::new(SCRIPT);
        r.fault = Some("stall-read:/data/docs.txt:60000".to_string());
        r
    };
    let mut wedged = Vec::new();
    for queued in 0..2 {
        wedged.push(
            jash::serve::submit_detached(&rig.socket, &stall())
                .unwrap()
                .expect("admitted"),
        );
        // The first must be running, not still in the one-slot queue,
        // before the second is submitted, or the second is shed.
        poll_until("1 active + the rest queued", Duration::from_secs(5), || {
            rig.server.load() == (1, queued)
        });
    }
    let racer = {
        let socket = rig.socket.clone();
        let retry = retry();
        std::thread::spawn(move || submit_with_retry(&socket, &Request::new(SCRIPT), &retry))
    };
    // Give the racer time to absorb at least one OVERLOADED rejection,
    // then clear the congestion by hanging up the wedged clients.
    std::thread::sleep(Duration::from_millis(300));
    drop(wedged);
    let reply = racer.join().unwrap().expect("retry must outlast the overload");
    assert_eq!(reply.status, Some(0), "{reply:?}");
    assert!(reply.retries >= 1, "overload never pushed back");
    assert!(rig.server.stats().rejected_overload >= 1);
    rig.server.drain();
    assert_eq!(debris(&rig.fs), Vec::<String>::new());
}

#[test]
fn slow_loris_client_cannot_wedge_a_worker_forever() {
    use jash::serve::{write_frame, Frame};
    let rig = rig(1, 2, |cfg| {
        cfg.write_stall = Duration::from_millis(500);
    });
    // Enough stdout to overflow the socket buffer of a client that
    // never reads: the daemon's frame writes must hit the write-stall
    // timeout instead of blocking the worker forever.
    jash::io::fs::write_file(rig.fs.as_ref(), "/data/big.txt", &docs(4 * 1024 * 1024)).unwrap();
    let mut conn = std::os::unix::net::UnixStream::connect(&rig.socket).unwrap();
    write_frame(
        &mut conn,
        &Frame::Submit {
            script: "cat /data/big.txt".to_string(),
            timeout_ms: 0,
            tenant: "loris".to_string(),
            key: String::new(),
            fault: None,
        },
    )
    .unwrap();
    // The client goes silent — connected, never reading.
    poll_until("write stall to fire and free the slot", Duration::from_secs(10), || {
        rig.server.stats().write_stalls >= 1 && rig.server.load().0 == 0
    });
    drop(conn);

    // The freed slot serves the next client normally.
    let reply = jash::serve::submit(&rig.socket, &Request::new(SCRIPT)).unwrap();
    assert_eq!(reply.status, Some(0), "{reply:?}");
    rig.server.drain();
    assert_eq!(debris(&rig.fs), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// Binary-level regression tests (real process, real signals).
// ---------------------------------------------------------------------

const JASH: &str = env!("CARGO_BIN_EXE_jash");

fn stage_root(name: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new(&format!("jash-it-{name}"));
    let root = dir.path().to_path_buf();
    std::fs::write(root.join("in"), docs(256 * 1024)).unwrap();
    (dir, root)
}

fn host_debris(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".jash-stage-"))
            {
                found.push(p.display().to_string());
            }
        }
    }
    found
}

/// Blocks until the wedged region is actually executing (staging file
/// visible), so the signal/deadline lands mid-region.
fn wait_for_stall(root: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if !host_debris(root).is_empty() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stalled region never started in {}", root.display());
}

/// Satellite regression: a SIGTERM received while the trace sink is
/// open must flush the buffered JSONL records — the file parses with
/// the schema-v1 parser and records the aborted region.
#[test]
fn sigterm_mid_region_flushes_a_parseable_trace() {
    let (_guard, root) = stage_root("trace-term");
    let trace_file = root.join("trace.jsonl");
    let mut child = std::process::Command::new(JASH)
        .arg("--root")
        .arg(&root)
        .arg("--trace")
        .arg(&trace_file)
        .args(["-c", "cat /in | tr A-Z a-z | sort > /out"])
        .env("JASH_TEST_EAGER", "1")
        .env("JASH_TEST_STALL_WRITE", "/out:65536:600000")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    wait_for_stall(&root);
    let ok = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(ok.success());
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(143), "graceful SIGTERM exit");

    let text = std::fs::read_to_string(&trace_file).expect("trace file written on abort");
    let records = jash::trace::parse_jsonl(&text)
        .unwrap_or_else(|e| panic!("SIGTERM truncated the trace: {e}\n{text}"));
    let aborted_region = records.iter().any(|r| match r {
        jash::trace::Record::Span { kind, attrs, .. } => {
            kind == "region"
                && attr(attrs, "action") == Some(&jash::trace::AttrValue::Str("aborted".into()))
        }
        _ => false,
    });
    assert!(aborted_region, "trace lacks the aborted region span:\n{text}");
    let run_closed = records.iter().any(|r| match r {
        jash::trace::Record::Span { kind, attrs, .. } => {
            kind == "run" && attr(attrs, "status") == Some(&jash::trace::AttrValue::Int(143))
        }
        _ => false,
    });
    assert!(run_closed, "run span missing its final status:\n{text}");
}

/// Satellite: `--timeout` arms the shared deadline machinery — exit
/// 124, region aborted and journaled, no staging debris, trace intact.
#[test]
fn one_shot_timeout_exits_124_with_journaled_abort() {
    let (_guard, root) = stage_root("timeout");
    let trace_file = root.join("trace.jsonl");
    let t0 = Instant::now();
    let out = std::process::Command::new(JASH)
        .arg("--root")
        .arg(&root)
        .arg("--trace")
        .arg(&trace_file)
        .args(["--timeout", "1", "-c", "cat /in | tr A-Z a-z | sort > /out"])
        .env("JASH_TEST_EAGER", "1")
        .env("JASH_TEST_STALL_WRITE", "/out:65536:600000")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(124), "timeout(1) convention");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "deadline did not interrupt the stall"
    );
    // The abort is journaled (run interrupted, resumable)...
    let journal = std::fs::read_to_string(root.join(".jash/journal")).unwrap();
    assert!(journal.lines().any(|l| l.contains("region-aborted")), "{journal}");
    assert!(!journal.contains("run-complete"));
    // ...the transaction rolled back...
    assert_eq!(host_debris(&root), Vec::<String>::new());
    assert!(!root.join("out").exists(), "aborted region must not commit");
    // ...and the trace flushed and parses.
    let text = std::fs::read_to_string(&trace_file).unwrap();
    jash::trace::parse_jsonl(&text).unwrap();
}
