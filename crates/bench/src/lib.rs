//! Benchmark harness: workload generators, simulated machines, and
//! engine runners for regenerating the paper's figure and in-text claims.
//!
//! Every experiment follows the same scheme: build a fresh simulated
//! machine (in-memory filesystem + modeled disk + modeled multi-core
//! CPU), stage inputs for free, run a script under one of the three
//! engines, and report wall-clock time — which, because the models sleep,
//! reflects the *modeled* machine rather than the CI host.
//!
//! Environment knobs:
//! * `JASH_BENCH_MB` — input corpus size in MiB (default 16);
//! * `JASH_TIME_SCALE` — multiplier on all modeled durations (default
//!   5.0 so the modeled machine dominates host compute — scales below
//!   ~2 let the host's real single-core time pollute the ratios; the
//!   full Figure 1 run stays under a minute).

use jash_core::{Engine, Jash, TraceEvent};

pub mod crash;
pub mod dynbench;
pub mod faults;
pub mod fig1;
pub mod fusion;
pub mod serve;
pub mod servecrash;
pub mod tenant;
pub mod traceover;
use jash_cost::MachineProfile;
use jash_expand::ShellState;
use jash_io::{CpuModel, DiskModel, DiskProfile, FsHandle, MemFs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The corpus size the paper's Figure 1 used.
pub const PAPER_INPUT_BYTES: u64 = 3 * 1024 * 1024 * 1024;

/// Input size for benchmark runs.
pub fn bench_input_bytes() -> u64 {
    let mb: u64 = std::env::var("JASH_BENCH_MB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    mb * 1024 * 1024
}

/// Global time-scale for modeled durations.
pub fn time_scale() -> f64 {
    std::env::var("JASH_TIME_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0)
}

/// Scales a disk profile's burst bucket to the benchmark input size, so a
/// scaled-down corpus exhausts gp2 burst credit the way 3 GB exhausts the
/// real one.
pub fn scale_burst(mut profile: DiskProfile, input_bytes: u64) -> DiskProfile {
    let ratio = input_bytes as f64 / PAPER_INPUT_BYTES as f64;
    profile.burst_credit_ios = (profile.burst_credit_ios * ratio).max(1.0);
    profile
}

/// A fully wired simulated machine.
pub struct SimMachine {
    /// Planner-visible profile.
    pub profile: MachineProfile,
    /// Filesystem with the modeled disk attached.
    pub fs: FsHandle,
    /// Concrete handle for free staging of inputs.
    mem: Arc<MemFs>,
    /// The modeled CPU.
    pub cpu: Arc<CpuModel>,
}

/// Builds a simulated machine for `profile`, scaling the disk's burst
/// bucket to `input_bytes` and applying the global time scale.
pub fn sim_machine(profile: MachineProfile, input_bytes: u64) -> SimMachine {
    let scale = time_scale();
    let disk = scale_burst(profile.disk, input_bytes).scaled(scale);
    let mem = Arc::new(MemFs::with_disk(DiskModel::new(disk)));
    let cpu = CpuModel::new(profile.cores, scale);
    SimMachine {
        // The planner sees the *unscaled* profile: its estimates are in
        // modeled seconds, consistent with the modeled sleeps.
        profile: MachineProfile {
            disk: scale_burst(profile.disk, input_bytes),
            ..profile
        },
        fs: Arc::clone(&mem) as FsHandle,
        mem,
        cpu,
    }
}

/// Stages a file without charging the disk model.
pub fn stage(sim: &SimMachine, path: &str, data: &[u8]) {
    sim.mem.install(path, data.to_vec());
}

/// One engine run: returns wall time, the result, and the JIT trace.
pub fn run_engine(
    engine: Engine,
    sim: &SimMachine,
    script: &str,
) -> (Duration, jash_interp::RunResult, Vec<TraceEvent>) {
    run_engine_traced(engine, sim, script, None)
}

/// [`run_engine`] with an optional structured tracer attached — the
/// probe the trace-overhead gate measures against the untraced run.
pub fn run_engine_traced(
    engine: Engine,
    sim: &SimMachine,
    script: &str,
    tracer: Option<Arc<jash_trace::Tracer>>,
) -> (Duration, jash_interp::RunResult, Vec<TraceEvent>) {
    let mut state = ShellState::new(Arc::clone(&sim.fs));
    state.cpu = Some(Arc::clone(&sim.cpu));
    let mut shell = Jash::new(engine, sim.profile);
    shell.tracer = tracer;
    let t0 = Instant::now();
    let result = shell
        .run_script(&mut state, script)
        .expect("benchmark script runs");
    (t0.elapsed(), result, shell.trace)
}

// ---------------------------------------------------------------------
// Workload generators
// ---------------------------------------------------------------------

const VOCAB: &[&str] = &[
    "the", "quick", "brown", "Fox", "jumps", "OVER", "lazy", "dog", "shell", "pipeline",
    "stream", "Unix", "data", "sort", "words", "paper", "HotOS", "jash", "compile", "merge",
    "split", "cloud", "script", "posix", "expand", "Kernel", "buffer", "thread", "core",
];

/// A corpus of whitespace-separated words, ~`bytes` long.
pub fn word_corpus(bytes: u64, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(bytes as usize + 64);
    while (out.len() as u64) < bytes {
        let words = rng.random_range(4..12);
        for i in 0..words {
            if i > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(VOCAB[rng.random_range(0..VOCAB.len())].as_bytes());
        }
        out.push(b'\n');
    }
    out
}

/// NOAA-style fixed-width weather records (temperature in columns 89-92,
/// `9999` meaning missing) — the input of the paper's §2.1 pipeline.
pub fn noaa_records(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * 106);
    for _ in 0..n {
        let mut line = vec![b'0'; 105];
        for b in line.iter_mut().take(88) {
            *b = b'a' + rng.random_range(0..26) as u8;
        }
        let temp: u32 = if rng.random_range(0..10) == 0 {
            9999
        } else {
            rng.random_range(0..600)
        };
        line[88..92].copy_from_slice(format!("{temp:04}").as_bytes());
        line.push(b'\n');
        out.extend_from_slice(&line);
    }
    out
}

/// The maximum temperature surviving `grep -v 999` in a generated record
/// set — the oracle the pipeline's answer is checked against.
pub fn noaa_max_valid(records: &[u8]) -> u32 {
    jash_io::split_lines(records)
        .iter()
        .filter_map(|l| {
            let field = std::str::from_utf8(&l[88..92]).ok()?;
            if field.contains("999") {
                return None;
            }
            field.parse::<u32>().ok()
        })
        .max()
        .unwrap_or(0)
}

/// A small English dictionary, sorted, for the spell workload.
pub fn dictionary() -> Vec<u8> {
    let mut words: Vec<&str> = VOCAB.to_vec();
    let mut lower: Vec<String> = words.drain(..).map(|w| w.to_lowercase()).collect();
    lower.sort();
    lower.dedup();
    let mut out = Vec::new();
    for w in lower {
        out.extend_from_slice(w.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Documents with occasional misspellings for the spell workload.
pub fn documents(bytes: u64, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = word_corpus(bytes, seed);
    // Sprinkle misspellings.
    for _ in 0..8 {
        let word = format!(" misspeling{} ", rng.random_range(0..100));
        out.extend_from_slice(word.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Apache-ish log lines for incremental workloads.
pub fn log_lines(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * 48);
    for i in 0..n {
        let status = [200, 200, 200, 404, 500][rng.random_range(0..5)];
        out.extend_from_slice(
            format!("10.0.0.{} GET /page/{i} {status}\n", rng.random_range(0..255)).as_bytes(),
        );
    }
    out
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// Prints one table row: label plus time in modeled-seconds.
pub fn report_row(label: &str, wall: Duration) {
    println!("{label:<44} {:>9.3} s", wall.as_secs_f64());
}

/// Prints a section header.
pub fn report_header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_line_shaped_and_sized() {
        let c = word_corpus(10_000, 1);
        assert!(c.len() >= 10_000);
        assert!(c.ends_with(b"\n"));
        assert!(c.iter().filter(|&&b| b == b'\n').count() > 50);
    }

    #[test]
    fn corpus_deterministic_by_seed() {
        assert_eq!(word_corpus(5_000, 7), word_corpus(5_000, 7));
        assert_ne!(word_corpus(5_000, 7), word_corpus(5_000, 8));
    }

    #[test]
    fn noaa_records_fixed_width() {
        let r = noaa_records(100, 3);
        for line in jash_io::split_lines(&r) {
            assert_eq!(line.len(), 105);
            assert!(line[88..92].iter().all(u8::is_ascii_digit));
        }
    }

    #[test]
    fn dictionary_sorted() {
        let d = dictionary();
        let lines: Vec<&[u8]> = jash_io::split_lines(&d);
        assert!(lines.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn burst_scaling_proportional() {
        let p = scale_burst(DiskProfile::gp2_standard(), PAPER_INPUT_BYTES / 96);
        assert!(p.burst_credit_ios < DiskProfile::gp2_standard().burst_credit_ios / 50.0);
    }

    #[test]
    fn sim_machine_runs_an_engine() {
        let sim = sim_machine(
            MachineProfile {
                cores: 4,
                disk: DiskProfile::ramdisk(),
                mem_mb: 1024,
            },
            1024,
        );
        stage(&sim, "/in", b"b\na\n");
        let (wall, result, _) = run_engine(Engine::Bash, &sim, "sort /in");
        assert_eq!(result.stdout, b"a\nb\n");
        assert!(wall.as_nanos() > 0);
    }
}
