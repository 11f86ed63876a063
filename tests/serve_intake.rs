//! The daemon's per-request fixed cost: intake is event-driven and a run
//! that journals nothing leaves nothing behind. One test in a file (and
//! so a process) of its own, because it counts the process's threads.

use jash::serve::{Request, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn sequential_storm_is_not_clocked_by_a_poll_and_leaves_nothing_behind() {
    let dir = jash::io::TempDir::new("jash-it-intake");
    let socket = dir.path().join("sock");
    let fs = jash::io::mem_fs();
    let mut cfg = ServerConfig::new(&socket, Arc::clone(&fs));
    cfg.workers = 2;
    cfg.journal_root = Some("/.jash-serve".to_string());
    let server = Server::start(cfg).unwrap();
    // The daemon at rest: accept loop and workers, no per-run thread yet.
    let threads_before = thread_count();
    // One request first, so first-use costs are not charged to the storm.
    let warm_up = jash::serve::submit(&socket, &Request::new(":")).unwrap();
    assert_eq!(warm_up.status, Some(0), "{warm_up:?}");

    // A closed loop of trivial requests. With a 10 ms accept poll each
    // one waited out a tick (≈ 2 s in all); event-driven intake leaves
    // only the work.
    let t0 = Instant::now();
    for _ in 0..200 {
        let reply = jash::serve::submit(&socket, &Request::new(":")).unwrap();
        assert_eq!(reply.status, Some(0), "{reply:?}");
    }
    let storm = t0.elapsed();
    assert!(
        storm < Duration::from_secs(1),
        "200 requests took {storm:?}"
    );

    // No run opened a region, so none journaled: no scope was ever made.
    assert_eq!(
        jash::core::list_run_scopes(fs.as_ref(), "/.jash-serve"),
        vec![]
    );
    // Every per-run thread (intake, disconnect monitor) is released by
    // the reply itself, not by a timeout some time later.
    let settle = Instant::now() + Duration::from_millis(100);
    while thread_count() > threads_before && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        thread_count(),
        threads_before,
        "threads outlived their runs"
    );

    // An idle daemon drains at once: the accept loop is woken, not
    // waited for, and the wake-up is not mistaken for a client.
    let t0 = Instant::now();
    let report = server.drain();
    let drained = t0.elapsed();
    assert!(
        drained < Duration::from_millis(50),
        "idle drain took {drained:?}"
    );
    assert!(report.within_budget);
    assert_eq!(report.stats.rejected_malformed, 0);
    assert_eq!(report.stats.completed, 201);
}
