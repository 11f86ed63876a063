//! **In-text claim T-3 (E2)** — "PaSh and POSH showed that shell scripts
//! can enjoy order-of-magnitude performance improvements with adroit
//! preprocessing": a width sweep over a suite of common one-liner
//! pipelines on a CPU-rich machine.
//!
//! Reported: modeled wall time per (pipeline, width), and the speedup at
//! the widest setting.

use jash_bench::{bench_input_bytes, report_header, run_engine, sim_machine, stage, word_corpus};
use jash_core::Engine;
use jash_cost::MachineProfile;
use jash_io::DiskProfile;

const SUITE: &[(&str, &str)] = &[
    ("wf (word frequency)", "cat /in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c"),
    ("sort", "cat /in.txt | sort"),
    ("grep-filter", "cat /in.txt | tr A-Z a-z | grep shell | grep -v paper"),
    ("set-ops", "cat /in.txt | tr -cs A-Za-z '\\n' | sort -u"),
    ("count", "cat /in.txt | grep -c shell"),
];

fn main() {
    let bytes = bench_input_bytes();
    let corpus = word_corpus(bytes, 99);
    let widths = [1usize, 2, 4, 8, 16];
    println!(
        "one-liner suite, {} MiB corpus, width sweep {widths:?} on a 16-core machine",
        bytes / (1024 * 1024)
    );

    for (name, script) in SUITE {
        report_header(name);
        let mut base = 0.0f64;
        let mut reference: Option<Vec<u8>> = None;
        for &w in &widths {
            let profile = MachineProfile {
                cores: 16,
                disk: DiskProfile::ramdisk(),
                mem_mb: 16 * 1024,
            };
            let sim = sim_machine(profile, bytes);
            stage(&sim, "/in.txt", &corpus);
            let (wall, result, trace) = if w == 1 {
                run_engine(Engine::Bash, &sim, script)
            } else {
                // Force the width so the sweep is exact.
                let mut state = jash_expand::ShellState::new(std::sync::Arc::clone(&sim.fs));
                state.cpu = Some(std::sync::Arc::clone(&sim.cpu));
                let mut shell = jash_core::Jash::new(Engine::JashJit, sim.profile);
                shell.planner.force_width = Some(w);
                let t0 = std::time::Instant::now();
                let r = shell.run_script(&mut state, script).expect("runs");
                (t0.elapsed(), r, shell.trace)
            };
            assert!(result.status == 0 || result.status == 1, "{trace:?}");
            match &reference {
                None => reference = Some(result.stdout.clone()),
                Some(r) => assert_eq!(r, &result.stdout, "{name} diverged at width {w}"),
            }
            let t = wall.as_secs_f64();
            if w == 1 {
                base = t;
            }
            println!("  width {w:>2}: {t:>8.3} s   speedup {:>5.2}x", base / t);
        }
    }
}
