//! `preinferd` — the resident precondition-inference daemon. Its flags
//! are in `USAGE` below and in the shared part `server::shell` prints
//! after it.

use server::{shell, Server, ServerConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: preinferd [--addr HOST:PORT] [--workers N] [--queue N]\n\
     \x20                [--idle-timeout-ms N]\n\
     \x20                [--interproc inline|summary]\n\
     \x20                [--trace-sample N] [--slow-trace-ms N]\n\
     \x20                [--trace-buffer K]\n\
     \n\
     Serves the PreInfer pipeline over the length-prefixed JSON protocol\n\
     (see PROTOCOL.md). Defaults: --workers = cores, --queue 64.\n\
     \n\
     One event-driven thread serves every connection; a connection\n\
     may pipeline requests, and `infer` replies arrive in completion\n\
     order, matched by `id`. A worker pool runs inference.\n\
     \n\
     --interproc inline|summary (default inline) chooses how user\n\
     calls are handled: inline unrolls callee bodies; summary applies\n\
     bottom-up callee ψ-summaries at call sites, reusing a\n\
     daemon-lifetime table across requests (α-equivalent callee\n\
     closures hit instead of re-inferring; see `stats.summaries`).";

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    shell::parse_flags(USAGE, &mut cfg.shell, |flag, value| {
        match flag {
            "--workers" => cfg.workers = shell::positive(value)?,
            "--queue" => cfg.queue_capacity = shell::positive(value)?,
            "--interproc" => {
                cfg.summaries = match value {
                    "inline" => false,
                    "summary" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
        Some(())
    });
    shell::serve("preinferd", Server::start(cfg))
}
