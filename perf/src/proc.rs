//! Child processes: spawn, time, bound, reap, and read their peak memory.
//!
//! `std::process` cannot signal or reap a child the way the harness needs,
//! so it does both itself. Every Rust binary on this target already links
//! the C runtime; declaring the two symbols needed avoids a libc crate (the
//! way `src/bin/jash.rs` declares `signal`).
//!
//! Peak memory does *not* come from `wait4`'s `ru_maxrss`: a spawned child
//! shares its parent's address space until `exec`, and Linux folds that
//! space's high-water mark into the child's `ru_maxrss`, so every child of a
//! harness that ever held 80 MiB "peaks" at 80 MiB. The kernel's mark for
//! the child's *own* address space is `VmHWM` in `/proc/<pid>/status`; it is
//! gone once the child is a zombie, so a sampler reads it every few
//! milliseconds while the child runs and the last reading stands. What it
//! can miss is growth in a run's final 2 ms (at 10 ms wordsort, which grows
//! to the end, read a MiB low and twice as unsteady).

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

extern "C" {
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How often a running child's `VmHWM` is read.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(2);

pub const SIGKILL: i32 = 9;
pub const SIGTERM: i32 = 15;

/// How a reaped child ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Exit {
    /// Exit code, or `128 + signal` when a signal killed it.
    pub code: i32,
    /// The last `VmHWM` read while it ran; 0 when it ended before a first
    /// reading.
    pub peak_rss_mib: f64,
}

/// The peak resident set of a live process, in MiB: the kernel's own
/// high-water mark for its address space.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn send_signal(child: &Child, sig: i32) {
    // SAFETY: `kill` takes plain integers and touches no memory. The pid
    // names a child this process spawned; callers signal it before they
    // reap it (`finish`'s minder is told the moment `waitpid` returns), so the
    // kernel cannot have handed the pid to another process.
    unsafe {
        kill(child.id() as i32, sig);
    }
}

/// Blocks until `child` ends and reaps it, returning its exit code (or
/// `128 + signal`). The `Child` must not be waited on through `std`
/// afterwards (the kernel has already released the pid).
pub fn reap(child: &Child) -> std::io::Result<i32> {
    let mut status = 0i32;
    // SAFETY: the out-pointer is valid for a write of an `i32` for the
    // duration of the call; the other arguments are plain integers.
    let got = unsafe { waitpid(child.id() as i32, &mut status, 0) };
    if got < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let signal = status & 0x7f;
    Ok(if signal == 0 {
        (status >> 8) & 0xff
    } else {
        128 + signal
    })
}

/// One finished child.
#[derive(Debug)]
pub struct RunOutput {
    pub exit: Exit,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    /// Spawn to reaped.
    pub wall: Duration,
    pub timed_out: bool,
}

/// Runs `cmd` to completion, capturing its output. A child still running
/// after `timeout` is killed and reported as timed out.
pub fn run(cmd: &mut Command, timeout: Duration) -> std::io::Result<RunOutput> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let child = cmd.spawn()?;
    finish(child, start, timeout)
}

/// Waits for a spawned `child` to end, draining whichever of its output
/// pipes were captured, and reaps it. A child still running `timeout`
/// after this call is killed and reported as timed out.
pub fn finish(mut child: Child, start: Instant, timeout: Duration) -> std::io::Result<RunOutput> {
    let out_pipe = child.stdout.take();
    let err_pipe = child.stderr.take();
    fn drain(pipe: Option<impl Read>) -> Vec<u8> {
        let mut buf = Vec::new();
        if let Some(mut pipe) = pipe {
            let _ = pipe.read_to_end(&mut buf);
        }
        buf
    }

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (code, wall, stdout, stderr, (peak_rss_mib, timed_out)) = std::thread::scope(|s| {
        let child = &child;
        // One minder does both jobs that need a clock: it samples the
        // child's peak memory, and kills a child that outlives its budget.
        let minder = s.spawn(move || {
            let waiting_since = Instant::now();
            let mut peak = 0.0;
            loop {
                peak = peak_rss_mib(child.id()).unwrap_or(peak);
                if done_rx.recv_timeout(RSS_SAMPLE_EVERY) != Err(mpsc::RecvTimeoutError::Timeout) {
                    return (peak, false);
                }
                if waiting_since.elapsed() > timeout {
                    send_signal(child, SIGKILL);
                    let _ = done_rx.recv();
                    return (peak, true);
                }
            }
        });
        let err_reader = s.spawn(move || drain(err_pipe));
        let stdout = drain(out_pipe);
        let code = reap(child);
        let wall = start.elapsed();
        let _ = done_tx.send(());
        let minded = minder.join().expect("minder thread panicked");
        let stderr = err_reader.join().expect("stderr reader panicked");
        (code, wall, stdout, stderr, minded)
    });
    Ok(RunOutput {
        exit: Exit {
            code: code?,
            peak_rss_mib,
        },
        stdout,
        stderr,
        wall,
        timed_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_output_exit_code_and_memory() {
        let out = run(
            Command::new("sh").args(["-c", "echo out; echo err >&2; exit 3"]),
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(out.exit.code, 3);
        assert_eq!(out.stdout, b"out\n");
        assert_eq!(out.stderr, b"err\n");
        assert!(!out.timed_out);
    }

    #[test]
    fn peak_memory_is_the_childs_own_not_the_parents() {
        // This process holds far more than `sleep` ever will; a child's
        // `ru_maxrss` would report this process's peak instead.
        let ballast = vec![1u8; 64 << 20];
        let own = peak_rss_mib(std::process::id()).unwrap();
        assert!(own > 64.0, "{own}");
        let out = run(Command::new("sleep").arg("0.1"), Duration::from_secs(10)).unwrap();
        assert!(
            out.exit.peak_rss_mib > 0.1 && out.exit.peak_rss_mib < 32.0,
            "{:?}",
            out.exit
        );
        assert!(ballast.iter().all(|&b| b == 1));
    }

    #[test]
    fn kills_a_child_that_outlives_its_timeout() {
        let out = run(Command::new("sleep").arg("30"), Duration::from_millis(100)).unwrap();
        assert!(out.timed_out);
        assert_eq!(out.exit.code, 128 + SIGKILL);
        assert!(out.wall < Duration::from_secs(10));
    }
}
