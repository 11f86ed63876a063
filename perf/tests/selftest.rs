//! The whole harness against the real binaries, in smoke mode: `jash-perf
//! run --quick` must pass every output check, report every metric for
//! every workload, write both files, and compare clean against itself.
//! Skips when the release `jash` binary has not been built.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ has a parent")
        .to_path_buf()
}

#[test]
fn quick_run_reports_everything_and_compares_clean_against_itself() {
    let root = repo_root();
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let jash = target.join("release/jash");
    if !jash.exists() {
        eprintln!(
            "skipped: {} is absent (cargo build --release first)",
            jash.display()
        );
        return;
    }
    let out = std::env::temp_dir().join(format!("jash-perf-selftest-{}", std::process::id()));
    let perf = env!("CARGO_BIN_EXE_jash-perf");
    let run = Command::new(perf)
        .args(["run", "--quick", "--seed", "11", "--out"])
        .arg(&out)
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(&root)
        .output()
        .expect("jash-perf runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(!stdout.contains("FAILED"), "{stdout}");

    let results =
        std::fs::read_to_string(out.join("results.json")).expect("results.json was written");
    let manifest = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    // Every metric and workload the manifest names appears in the results,
    // once per workload that reports it.
    let names: Vec<&str> = manifest
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(names.len() > 60, "{names:?}");
    for name in &names {
        let times = results.matches(&format!("\"{name}\": {{")).count();
        assert!(times == 1 || times == 5, "{name} appears {times} times");
    }
    for host_fact in ["nproc", "rustc", "commit", "seed", "input_bytes"] {
        assert!(results.contains(&format!("\"{host_fact}\"")), "{host_fact}");
    }
    let trace = std::fs::read_to_string(out.join("trace.jsonl")).expect("trace.jsonl was written");
    for w in [
        "wordsort",
        "fusedchain",
        "temperature",
        "loopsmall",
        "servestorm",
    ] {
        assert!(
            trace.lines().any(|l| l.contains("\"name\":\"replay\"")
                && l.contains(&format!("\"workload\":\"{w}\""))),
            "no replay span for {w}"
        );
    }

    let results_path = out.join("results.json");
    let compare = Command::new(perf)
        .arg("compare")
        .args([&results_path, &results_path])
        .output()
        .expect("jash-perf compare runs");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(!table.contains("regressed"), "{table}");
    let _ = std::fs::remove_dir_all(&out);
}
