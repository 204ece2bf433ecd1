//! The flag surface of the two serving binaries, `preinferd` and
//! `preinfer-router`: each exits 2 with its usage text on an unknown flag,
//! on a flag without its value and on a value it refuses, and starts with
//! every flag set, prints `listening on HOST:PORT` and exits 0 on SIGTERM.
//! Load generators and scripts spawn these binaries with these flags, so
//! a flag joins or leaves this surface only together with this test.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Command, Stdio};

const DAEMON: &str = env!("CARGO_BIN_EXE_preinferd");
const ROUTER: &str = env!("CARGO_BIN_EXE_preinfer-router");

/// The flags both binaries take, each with a value it accepts.
const SHARED: [(&str, &str); 5] = [
    ("--addr", "127.0.0.1:0"),
    ("--idle-timeout-ms", "0"),
    ("--trace-sample", "2"),
    ("--slow-trace-ms", "5"),
    ("--trace-buffer", "8"),
];

fn usage_error(bin: &str, name: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?} must be a usage error: {stderr}");
    assert!(stderr.starts_with(&format!("usage: {name}")), "{name} {args:?}: {stderr}");
}

/// Spawns `bin`, reads its `listening on` line, then stops it with
/// SIGTERM and expects a clean exit.
fn starts_and_drains(bin: &str, name: &str, args: &[String]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary starts");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the first line");
    let addr = line.trim_end().strip_prefix("listening on ").unwrap_or_else(|| {
        let _ = child.kill();
        panic!("{name}: first line is {line:?}")
    });
    assert!(addr.starts_with("127.0.0.1:") && !addr.ends_with(":0"), "{name}: {addr}");
    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(term.success());
    assert_eq!(child.wait().expect("wait").code(), Some(0), "{name} must drain and exit 0");
}

#[test]
fn both_binaries_refuse_bad_flags_with_usage() {
    let shard = ["--shard", "127.0.0.1:1"];
    for (bin, name, base, own) in [
        (DAEMON, "preinferd", &[][..], &[["--workers", "0"], ["--queue", "0"]][..]),
        (ROUTER, "preinfer-router", &shard[..], &[][..]),
    ] {
        let with = |extra: &[&'static str]| [base, extra].concat();
        usage_error(bin, name, &with(&["--bogus", "1"]));
        usage_error(bin, name, &with(&["--help"]));
        for (flag, _) in SHARED {
            usage_error(bin, name, &with(&[flag]));
        }
        usage_error(bin, name, &with(&["--trace-buffer", "0"]));
        usage_error(bin, name, &with(&["--trace-sample", "-1"]));
        usage_error(bin, name, &with(&["--idle-timeout-ms", "soon"]));
        for pair in own {
            usage_error(bin, name, &with(pair));
        }
    }
    usage_error(DAEMON, "preinferd", &["--interproc", "both"]);
    usage_error(DAEMON, "preinferd", &["--conns-per-shard", "1"]);
    usage_error(ROUTER, "preinfer-router", &["--workers", "1"]);
    usage_error(ROUTER, "preinfer-router", &["--shard", "127.0.0.1:1", "--conns-per-shard", "1"]);
    usage_error(ROUTER, "preinfer-router", &[]);
    usage_error(ROUTER, "preinfer-router", &["--addr", "127.0.0.1:0"]);
}

#[test]
fn both_binaries_start_with_every_flag_set_and_drain_on_sigterm() {
    let shared: Vec<String> =
        SHARED.iter().flat_map(|(f, v)| [f.to_string(), v.to_string()]).collect();
    let own = |flags: &[&str]| -> Vec<String> {
        shared.iter().cloned().chain(flags.iter().map(|s| s.to_string())).collect()
    };
    starts_and_drains(
        DAEMON,
        "preinferd",
        &own(&["--workers", "1", "--queue", "4", "--interproc", "summary"]),
    );
    // A bound listener stands in for a shard: the router's dials land in
    // its backlog, which is all start-up waits for.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a stand-in shard");
    let shard = listener.local_addr().expect("shard addr").to_string();
    starts_and_drains(ROUTER, "preinfer-router", &own(&["--shard", &shard]));
}
