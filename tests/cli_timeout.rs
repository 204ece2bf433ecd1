//! `preinfer --timeout-ms`: a run the deadline cut short says so on every
//! path, including the one that found no failure to infer from.

use std::process::Command;

/// Every executor run takes about 90 000 steps, far past a 1 ms deadline,
/// so every run is cut and the suite holds no failing test.
const BURN: &str = "
fn burn(n int) -> int {
    let s = 0;
    for (let i = 0; i < 30000; i = i + 1) { s = s + 1; }
    if (n > 5) { assert(n != 77); }
    return s;
}
";

#[test]
fn a_timed_out_run_that_found_no_failure_prints_the_marker() {
    let dir = std::env::temp_dir().join(format!("preinfer-cli-timeout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("burn.ml");
    std::fs::write(&program, BURN).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_preinfer"))
        .arg(&program)
        .args(["--timeout-ms", "1"])
        .output()
        .expect("preinfer runs");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success(), "preinfer failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no failures found"), "unexpected output:\n{stdout}");
    assert!(stdout.contains("[TIMED OUT after 1 ms"), "timed-out run lacks the marker:\n{stdout}");
}
