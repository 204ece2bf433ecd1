//! `tables` refuses what it cannot do: an unknown selection, or `--json`
//! without a path, prints the usage text and exits 2 before any table is
//! computed, instead of printing nothing (or running the whole evaluation
//! and writing no file) and exiting 0; an unwritable `--json` path exits
//! 1 before the corpus is evaluated.

use std::process::Command;

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    for args in
        [&["bogus"][..], &["7"], &["1", "f4"], &["--json"], &["3", "--json"], &["--csv", "out.csv"]]
    {
        let out =
            Command::new(env!("CARGO_BIN_EXE_tables")).args(args).output().expect("tables runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error: {stderr}");
        assert!(stderr.starts_with("usage: tables"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table before refusing");
    }
}

/// An unwritable `--json` path is refused with exit 1 before the corpus is
/// evaluated, instead of a panic after the whole evaluation.
#[test]
fn an_unwritable_json_path_exits_1_before_evaluating() {
    let path = std::env::temp_dir()
        .join(format!("tables-cli-missing-{}", std::process::id()))
        .join("out.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["3", "--json"])
        .arg(&path)
        .output()
        .expect("tables runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let expected = format!("tables: cannot write {}: ", path.display());
    assert!(stderr.starts_with(&expected), "{stderr}");
    assert!(!stderr.contains("evaluating corpus"), "evaluated before refusing: {stderr}");
    assert!(out.stdout.is_empty(), "printed a table before refusing");
}
