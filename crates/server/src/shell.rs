//! The serving shell `preinferd` and `preinfer-router` share: the five
//! settings both take ([`ShellConfig`]), the one flag parser both binaries
//! run ([`parse_flags`]), the start-up that binds the listener and builds
//! what every serving process keeps (`Shell`), and the
//! start → `listening on` → signal → drain → exit `main` ([`serve`]).
//!
//! What a process does with a request is its own; how it is configured,
//! started, observed through its connection counters and trace ring, and
//! stopped is written once, here.

use crate::netcore::{wait_for_signal, ConnCounters, Reactor, ShutdownHandle};
use crate::trace::{SamplingPolicy, TraceRing};
use obs::MetricsRegistry;
use std::io;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The settings both serving processes take, under the same flags.
#[derive(Debug, Clone)]
pub struct ShellConfig {
    /// Bind address (`--addr`); port 0 picks a free port, which the
    /// `listening on` line reports.
    pub addr: String,
    /// Close client connections with no in-flight work that have been
    /// silent this long, with a typed `idle_timeout` response
    /// (`--idle-timeout-ms`; 0 disables).
    pub idle_timeout_ms: u64,
    /// Head-sample every N-th `infer` request this process admits for
    /// per-request tracing (`--trace-sample`; deterministic on the
    /// admission counter; 0 disables). A request that arrives with a trace
    /// context follows the context instead (see [`crate::trace`]).
    pub trace_sample: u64,
    /// Tail capture (`--slow-trace-ms`): also retain the trace of any
    /// request slower than this many milliseconds, sampled or not (`None`
    /// disables; 0 retains every request).
    pub slow_trace_ms: Option<u64>,
    /// Capacity of the retained-trace ring served by the `trace` verb
    /// (`--trace-buffer`; at least 1).
    pub trace_buffer: usize,
}

impl Default for ShellConfig {
    fn default() -> Self {
        ShellConfig {
            addr: "127.0.0.1:0".to_string(),
            idle_timeout_ms: 60_000,
            trace_sample: 0,
            slow_trace_ms: None,
            trace_buffer: 64,
        }
    }
}

impl ShellConfig {
    /// Sets the setting `flag` names from `value`; `None` when `flag` is
    /// not a shared flag or `value` is refused.
    fn set(&mut self, flag: &str, value: &str) -> Option<()> {
        match flag {
            "--addr" => self.addr = value.to_string(),
            "--idle-timeout-ms" => self.idle_timeout_ms = value.parse().ok()?,
            "--trace-sample" => self.trace_sample = value.parse().ok()?,
            "--slow-trace-ms" => self.slow_trace_ms = Some(value.parse().ok()?),
            "--trace-buffer" => self.trace_buffer = positive(value)?,
            _ => return None,
        }
        Some(())
    }
}

/// A count that must be at least 1 (`--workers`, `--trace-buffer`, …).
pub fn positive(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&n| n > 0)
}

/// The shared flags' part of both binaries' usage text.
const SHARED_USAGE: &str = "Both serving binaries take these flags, each with one value:\n\
     \n\
     --addr HOST:PORT (default 127.0.0.1:0) binds there and prints\n\
     `listening on HOST:PORT` once bound (port 0 picks a free port).\n\
     SIGTERM or SIGINT drains and exits 0.\n\
     \n\
     --idle-timeout-ms N (default 60000, 0 = off) closes connections\n\
     that stay silent with no in-flight work, with a typed\n\
     `idle_timeout` response.\n\
     \n\
     Tracing: --trace-sample N head-samples every N-th request\n\
     (deterministic, 0 = off); --slow-trace-ms T also retains any\n\
     request slower than T ms (absent = off, 0 = every request);\n\
     --trace-buffer K (default 64) bounds the retained-trace ring\n\
     served by the `trace` verb. A request that arrives with a trace\n\
     context follows it instead.";

/// Prints `usage`, then the shared flags' usage, and exits 2.
pub fn refuse(usage: &str) -> ! {
    eprintln!("{usage}\n\n{SHARED_USAGE}");
    std::process::exit(2);
}

/// Parses a serving binary's command line, where every flag takes one
/// value. The shared flags set `shell`; `own` takes every other flag with
/// its value and returns `None` for a flag it does not know or a value it
/// refuses. A refused flag, or a flag without its value, prints `usage`
/// and exits 2.
pub fn parse_flags(
    usage: &str,
    shell: &mut ShellConfig,
    mut own: impl FnMut(&str, &str) -> Option<()>,
) {
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { refuse(usage) };
        if shell.set(&flag, &value).or_else(|| own(&flag, &value)).is_none() {
            refuse(usage);
        }
    }
}

/// What start-up builds for every serving process, kept for its life.
pub(crate) struct Shell {
    pub(crate) local_addr: SocketAddr,
    pub(crate) shutdown: ShutdownHandle,
    /// Client-connection lifecycle counters, kept by the run loop's
    /// `Clients`.
    pub(crate) conns: Arc<ConnCounters>,
    /// Retained per-request traces, served by the `trace` verb.
    pub(crate) ring: Arc<TraceRing>,
    /// Deterministic per-request sampling policy.
    pub(crate) sampling: SamplingPolicy,
    /// Every served value, declared once: rendered by the `stats` and
    /// `metrics` verbs.
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) started: Instant,
    /// Idle-close deadline for silent client connections; `None` when
    /// disabled.
    pub(crate) idle_timeout: Option<Duration>,
}

impl Shell {
    /// Binds `cfg.addr` and builds the shell; the returned reactor is the
    /// process's run loop's to own.
    pub(crate) fn start(cfg: &ShellConfig) -> io::Result<(Reactor, Shell)> {
        let reactor = Reactor::bind(&cfg.addr)?;
        let shell = Shell {
            local_addr: reactor.listener.local_addr()?,
            shutdown: reactor.shutdown_handle(),
            conns: Arc::new(ConnCounters::default()),
            ring: Arc::new(TraceRing::new(cfg.trace_buffer)),
            sampling: SamplingPolicy::new(cfg.trace_sample, cfg.slow_trace_ms),
            registry: Arc::new(MetricsRegistry::new()),
            started: Instant::now(),
            idle_timeout: (cfg.idle_timeout_ms > 0)
                .then(|| Duration::from_millis(cfg.idle_timeout_ms)),
        };
        Ok((reactor, shell))
    }
}

/// A running serving process, as [`serve`] drives it.
pub trait Serving {
    /// The bound address (resolves port 0).
    fn local_addr(&self) -> SocketAddr;
    /// The process's graceful-shutdown trigger.
    fn handle(&self) -> ShutdownHandle;
    /// Blocks until the process has drained and every thread exited.
    fn join(self);
}

/// The `main` of both serving binaries. A failed start prints
/// `NAME: cannot start: ERROR` and exits 1. Otherwise it prints
/// `listening on HOST:PORT` once (scripts parse it to learn a `:0` port;
/// keep the format stable), waits for SIGTERM or SIGINT, drains, and
/// exits 0.
pub fn serve(name: &str, started: io::Result<impl Serving>) -> ExitCode {
    let process = match started {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{name}: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    wait_for_signal(|| println!("listening on {}", process.local_addr()));
    eprintln!("{name}: signal received, draining …");
    process.handle().shutdown();
    process.join();
    eprintln!("{name}: drained, bye");
    ExitCode::SUCCESS
}
