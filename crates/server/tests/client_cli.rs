//! `preinfer-client`'s exit status against a live daemon: 0 for an `ok`
//! reply, 1 for an `"ok":false` reply (still printed), and 2 with the
//! usage text for a flag the command does not take or a flag without its
//! value — so a script can tell a refused request and a mistyped or
//! retired flag from success.

use server::{Server, ServerConfig};
use std::process::{Command, Output};

fn client(addr: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_preinfer-client"))
        .args(["--addr", addr])
        .args(args)
        .output()
        .expect("preinfer-client runs")
}

#[test]
fn exit_status_tells_refused_requests_and_bad_flags_from_success() {
    let server =
        Server::start(ServerConfig { workers: 1, ..ServerConfig::default() }).expect("bind");
    let addr = server.local_addr().to_string();
    let dir = std::env::temp_dir().join(format!("preinfer-client-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("div.ml");
    std::fs::write(&program, "fn div(x int) -> int { return 10 / x; }\n").unwrap();
    let program = program.to_str().unwrap();

    for args in [&["ping"][..], &["infer", program], &["infer", program, "--fn", "div"]] {
        let out = client(&addr, args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let refused = client(&addr, &["infer", program, "--fn", "nope"]);
    let stdout = String::from_utf8_lossy(&refused.stdout);
    assert_eq!(refused.status.code(), Some(1), "an ok:false reply must fail: {stdout}");
    assert!(stdout.contains("\"ok\":false") && stdout.contains("bad_request"), "{stdout}");

    for args in [
        &["infer", program, "--jobs", "4"][..],
        &["infer", program, "--fn"],
        &["infer", program, "--deadline-ms", "--tests", "3"],
        &["ping", "--last", "1"],
        &["trace", "--last"],
        &["corpus", "guarded_div", "--bogus"],
    ] {
        let out = client(&addr, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error: {stderr}");
        assert!(stderr.starts_with("usage: preinfer-client"), "{args:?}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
    server.handle().shutdown();
    server.join();
}
