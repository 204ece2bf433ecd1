//! `preinfer --interproc summary --trace-out` traces the callee summary
//! build like any other inference: the callee's pruning runs under the
//! same sink as the entry's, so its `prune` spans (and the solver calls
//! inside them) are in the trace file. `--interproc` takes only `inline`
//! or `summary`. A trace file that cannot be written fails the run (exit 1)
//! after the results are printed.

use std::process::Command;

/// A callee with a reachable assertion, lifted into its caller.
const PROGRAM: &str = "
fn check_pos(v int) -> int {
    assert(v > 0);
    return v;
}
fn lift_guard(x int) -> int {
    return check_pos(x - 3);
}
";

#[test]
fn summary_mode_trace_records_the_callees_prune_spans() {
    let dir = std::env::temp_dir().join(format!("preinfer-cli-summary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (program, trace) = (dir.join("lift.ml"), dir.join("trace.jsonl"));
    std::fs::write(&program, PROGRAM).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_preinfer"))
        .arg(&program)
        .args(["--fn", "lift_guard", "--interproc", "summary", "--trace-out"])
        .arg(&trace)
        .output()
        .expect("preinfer runs");
    assert!(out.status.success(), "preinfer failed: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<String> =
        std::fs::read_to_string(&trace).unwrap().lines().map(str::to_string).collect();
    std::fs::remove_dir_all(&dir).unwrap();

    // Callee summaries are built before the entry's test generation, so
    // every span that starts before the last `testgen` span is the callee's.
    let span_starts: Vec<&str> = lines
        .iter()
        .filter(|l| l.contains(r#""ev":"span_start""#))
        .filter_map(|l| l.split(r#""stage":""#).nth(1)?.split('"').next())
        .collect();
    let entry_testgen =
        span_starts.iter().rposition(|&s| s == "testgen").expect("the entry's testgen span");
    let callee_prunes = span_starts[..entry_testgen].iter().filter(|&&s| s == "prune").count();
    assert!(callee_prunes > 0, "no callee prune spans before the entry's testgen: {span_starts:?}");
    let psi_events = lines.iter().filter(|l| l.contains(r#""ev":"psi""#)).count();
    assert_eq!(psi_events, 2, "expected the callee's ψ and the entry's ψ in the trace");
}

#[test]
fn an_unknown_interproc_mode_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_preinfer"))
        .args(["lift.ml", "--interproc", "both"])
        .output()
        .expect("preinfer runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: preinfer"), "{stderr}");
}

#[test]
fn an_unwritable_trace_file_prints_the_results_then_exits_1() {
    let dir = std::env::temp_dir().join(format!("preinfer-cli-trace-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("lift.ml");
    std::fs::write(&program, PROGRAM).unwrap();
    let trace = dir.join("missing-dir").join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_preinfer"))
        .arg(&program)
        .args(["--fn", "lift_guard", "--trace-out"])
        .arg(&trace)
        .output()
        .expect("preinfer runs");
    std::fs::remove_dir_all(&dir).unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("preinfer: cannot create {}", trace.display())), "{stderr}");
    assert!(stdout.contains("inferred 1 precondition(s)"), "results not printed: {stdout}");
}
