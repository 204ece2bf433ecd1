//! The serving workloads: `preinferd` with default flags, or
//! `preinfer-router` in front of two `preinferd --workers 1` shards,
//! driven over TCP by this process with two connections, one per thread.
//!
//! After set-up (spawn → `listening on` → one warm-up pass over every
//! method) a run has two phases:
//! 1. **Open loop** at a fixed offered rate: request `k` is due at
//!    `t0 + k / rate` whatever the daemon is doing, and its latency is
//!    timed from that due instant, so a stall is charged to every request
//!    queued behind it.
//! 2. **Closed loop**: each connection keeps a fixed number of requests in
//!    flight; completions per second after a short ramp is the throughput.
//!
//! Per-request splits come from each reply's `queue_ms` and `elapsed_ms`;
//! per-stage time comes from `stats` deltas across the measured phases.

use crate::inputs::Method;
use crate::report::{put, Measured, Metrics, Tally, TraceTotals};
use crate::stats::{quantile, ratio, shuffle, sorted, Rng, Zipf};
use crate::wire::{self, encode_frame, Conn};
use server::json::{self, Json};
use std::io::Read;
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load of the open-loop phase (both connections together). In
/// one interleaved ten-seed sweep, 400 requests/s gave p90 spreads of 31%
/// (uniform) and 45% (Zipf) against 11% and 5% at this rate: at the
/// higher rate each host slowdown also adds queueing.
const OPEN_RPS: f64 = 200.0;
/// Requests each connection keeps in flight in the closed-loop phase.
const CLOSED_DEPTH: usize = 4;
/// Uncounted start of the closed-loop phase. Going from the open loop's
/// light load to full load, the first one or two half-second windows
/// often completed about half as many requests as the rest on the
/// calibration host.
const CLOSED_RAMP: Duration = Duration::from_secs(1);
/// Head-sampling period of a traced run (`--trace-sample`).
const TRACE_SAMPLE: u64 = 50;
/// Retained traces fetched after a traced run.
const TRACE_LAST: u64 = 64;
/// Longest wait for any one reply, start-up line, or drain.
const PATIENCE: Duration = Duration::from_secs(30);

const STREAM_OPEN: u64 = 0x2000;
const STREAM_CLOSED: u64 = 0x3000;

/// Keys per block of a Zipf key stream: enough that the least popular of
/// 82 ranks still appears about twice.
const ZIPF_BLOCK: usize = 1000;

/// How request keys are spread over the pinned methods.
#[derive(Debug, Clone)]
pub enum Keys {
    Uniform,
    /// Zipf over the pinned rank order (`methods.txt` order).
    Zipf(Zipf),
}

impl Keys {
    /// An endless seeded key stream. It is cut into blocks that hold every
    /// key in its exact share (each method once; or the Zipf quantiles of
    /// `ZIPF_BLOCK` evenly spaced points), each block shuffled by `rng`.
    /// The seed then decides the order of requests but not the work mix,
    /// so two seeds measure the same amount of work.
    fn stream(&self, n: usize, mut rng: Rng) -> impl Iterator<Item = usize> + '_ {
        let mut block: Vec<usize> = Vec::new();
        std::iter::from_fn(move || {
            if block.is_empty() {
                block = match self {
                    Keys::Uniform => (0..n).collect(),
                    Keys::Zipf(z) => (0..ZIPF_BLOCK)
                        .map(|i| z.rank_at((i as f64 + 0.5) / ZIPF_BLOCK as f64))
                        .collect(),
                };
                shuffle(&mut block, &mut rng);
            }
            block.pop()
        })
    }
}

/// One serving workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub keys: Keys,
    pub routed: bool,
}

/// A spawned daemon or router, stopped (SIGTERM, then waited for) on drop.
struct Proc {
    child: Child,
    addr: String,
    _stdout: ChildStdout,
}

impl Proc {
    fn spawn(bin: &str, args: &[String]) -> Result<Proc, String> {
        let path = bin_dir()?.join(bin);
        let mut cmd = Command::new(&path);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null());
        // SAFETY: the hook runs in the forked child before exec and makes
        // one async-signal-safe system call, touching no shared state.
        unsafe { cmd.pre_exec(wire::die_with_parent) };
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        match read_listening_line(&mut stdout) {
            Ok(addr) => Ok(Proc { child, addr, _stdout: stdout }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("{bin}: {e}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        wire::terminate(self.child.id());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads the child's stdout up to its `listening on HOST:PORT` line.
fn read_listening_line(stdout: &mut ChildStdout) -> Result<String, String> {
    let deadline = Instant::now() + PATIENCE;
    let mut seen = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        if let Some(line) = seen.split(|&b| b == b'\n').next().filter(|_| seen.contains(&b'\n')) {
            let line = String::from_utf8_lossy(line);
            return line
                .strip_prefix("listening on ")
                .map(|a| a.trim().to_string())
                .ok_or(format!("unexpected first line `{line}`"));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("no `listening on` line".into());
        }
        if wire::wait_readable(stdout.as_raw_fd(), left).map_err(|e| e.to_string())? {
            match stdout.read(&mut buf).map_err(|e| e.to_string())? {
                0 => return Err("exited before listening".into()),
                n => seen.extend_from_slice(&buf[..n]),
            }
        }
    }
}

/// The serving binaries sit next to this executable (one target dir).
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe.parent().ok_or("executable has no directory")?.to_path_buf())
}

/// The processes under test; the entry process (router, if any) first so
/// it drains before its shards.
struct Topology {
    procs: Vec<Proc>,
}

impl Topology {
    fn start(spec: &Spec, traced: bool) -> Result<Topology, String> {
        let addr = ["--addr".to_string(), "127.0.0.1:0".to_string()];
        let sample = ["--trace-sample".to_string(), TRACE_SAMPLE.to_string()];
        if !spec.routed {
            let mut args = addr.to_vec();
            if traced {
                args.extend(sample);
            }
            return Ok(Topology { procs: vec![Proc::spawn("preinferd", &args)?] });
        }
        // Two single-worker shards: the same total worker count as the
        // default daemon on a two-core host.
        let mut procs = Vec::new();
        for _ in 0..2 {
            let mut args = addr.to_vec();
            args.extend(["--workers".to_string(), "1".to_string()]);
            procs.push(Proc::spawn("preinferd", &args)?);
        }
        let mut args = addr.to_vec();
        for p in &procs {
            args.extend(["--shard".to_string(), p.addr.clone()]);
        }
        if traced {
            args.extend(sample);
        }
        procs.insert(0, Proc::spawn("preinfer-router", &args)?);
        Ok(Topology { procs })
    }

    fn entry(&self) -> &str {
        &self.procs[0].addr
    }

    /// Summed peak resident set of every process under test, MB.
    fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().filter_map(|p| crate::peak_rss_mb(p.pid())).sum()
    }
}

/// Pre-rendered `infer` request bodies; only the `id` varies per send.
struct Requests {
    tails: Vec<String>,
}

impl Requests {
    fn new(methods: &[Method]) -> Requests {
        let tails = methods
            .iter()
            .map(|m| {
                format!(
                    ",\"program\":{},\"func\":{}}}",
                    json::escape(m.source),
                    json::escape(m.func)
                )
            })
            .collect();
        Requests { tails }
    }

    fn frame(&self, key: usize, id: usize) -> Vec<u8> {
        encode_frame(&format!("{{\"verb\":\"infer\",\"id\":\"{id}\"{}", self.tails[key]))
    }
}

/// One successful reply.
#[derive(Debug, Clone, Copy)]
struct Reply {
    /// Due instant to arrival (open loop only).
    lat_ms: f64,
    queue_ms: f64,
    service_ms: f64,
}

/// What one connection observed in one phase.
#[derive(Debug, Default)]
struct Phase {
    tally: Tally,
    /// Replies that arrived inside the measured window (closed loop).
    in_window: u64,
    sent: u64,
    last_send: Option<Instant>,
    replies: Vec<Reply>,
    late_ms: Vec<f64>,
    tests: u64,
    examined: u64,
    removed: u64,
    dynamic_runs: u64,
}

impl Phase {
    fn merge(mut self, o: Phase) -> Phase {
        self.tally.add(o.tally);
        self.in_window += o.in_window;
        self.sent += o.sent;
        self.last_send = self.last_send.max(o.last_send);
        self.replies.extend(o.replies);
        self.late_ms.extend(o.late_ms);
        self.tests += o.tests;
        self.examined += o.examined;
        self.removed += o.removed;
        self.dynamic_runs += o.dynamic_runs;
        self
    }

    /// Checks one reply against the oracle and counts it. Returns the
    /// request id it answers and, if it succeeded, its `queue_ms` and
    /// `elapsed_ms`.
    fn account(
        &mut self,
        text: &str,
        methods: &[Method],
        keys: &[usize],
    ) -> Result<(usize, Option<(f64, f64)>), String> {
        let v = json::parse(text).map_err(|e| format!("unparseable reply: {e}"))?;
        let id: usize = v
            .str_field("id")
            .and_then(|s| s.parse().ok())
            .filter(|&id| id < keys.len())
            .ok_or(format!("reply with an unknown id: {text}"))?;
        let m = &methods[keys[id]];
        self.tally.attempted += 1;
        let acls = v.get("acls").and_then(Json::as_array).unwrap_or(&[]);
        let got = acls
            .iter()
            .map(|a| (a.str_field("acl").unwrap_or(""), a.str_field("psi").unwrap_or("")));
        if v.get("ok").and_then(Json::as_bool) != Some(true)
            || v.get("timed_out").and_then(Json::as_bool) != Some(false)
        {
            eprintln!("{}: request failed or timed out: {text}", m.id);
            self.tally.failed += 1;
            return Ok((id, None));
        }
        if !m.matches(got) {
            eprintln!("ψ mismatch on {}: {text}", m.id);
            self.tally.failed += 1;
            self.tally.mismatches += 1;
            return Ok((id, None));
        }
        let num =
            |j: Option<&Json>, k| j.and_then(|j| j.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
        self.tests += num(Some(&v), "tests") as u64;
        for a in acls {
            let prune = a.get("prune");
            self.examined += num(prune, "examined") as u64;
            self.removed += num(prune, "removed") as u64;
            self.dynamic_runs += num(prune, "dynamic_runs") as u64;
        }
        Ok((id, Some((num(Some(&v), "queue_ms"), num(Some(&v), "elapsed_ms")))))
    }
}

/// Open loop on one connection: send each request at its due instant,
/// read replies in between, then drain.
fn open_loop(
    conn: &mut Conn,
    req: &Requests,
    methods: &[Method],
    keys: &[usize],
    dues: &[Instant],
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let mut frames = Vec::new();
    let mut next = 0;
    let mut pending = 0usize;
    let mut drain_deadline = None;
    loop {
        let now = Instant::now();
        if next < keys.len() && now >= dues[next] {
            p.late_ms.push(ms(now - dues[next]));
            conn.send(&req.frame(keys[next], next)).map_err(|e| e.to_string())?;
            p.sent += 1;
            p.last_send = Some(now);
            next += 1;
            pending += 1;
            continue;
        }
        if next == keys.len() && pending == 0 {
            break;
        }
        let wait = if next < keys.len() {
            dues[next] - now
        } else {
            let d = *drain_deadline.get_or_insert(now + PATIENCE);
            if now >= d {
                return Err(format!("{pending} open-loop replies never arrived"));
            }
            d - now
        };
        conn.recv(wait, &mut frames).map_err(|e| e.to_string())?;
        let at = Instant::now();
        for f in frames.drain(..) {
            let (id, ok) = p.account(&f, methods, keys)?;
            pending -= 1;
            if let Some((queue_ms, service_ms)) = ok {
                p.replies.push(Reply { lat_ms: ms(at - dues[id]), queue_ms, service_ms });
            }
        }
    }
    Ok(p)
}

/// Closed loop on one connection: keep `depth` requests in flight, taking
/// keys from `next_key` until it runs dry or the `window` ends, then
/// drain. Replies that arrive inside `[start, end)` of the window count as
/// `in_window`.
fn closed_loop(
    conn: &mut Conn,
    req: &Requests,
    methods: &[Method],
    depth: usize,
    window: Option<(Instant, Instant)>,
    mut next_key: impl FnMut() -> Option<usize>,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let mut keys: Vec<usize> = Vec::new();
    let mut frames = Vec::new();
    let mut pending = 0usize;
    let open = |now: Instant| window.is_none_or(|(_, end)| now < end);
    loop {
        while pending < depth && open(Instant::now()) {
            let Some(k) = next_key() else { break };
            conn.send(&req.frame(k, keys.len())).map_err(|e| e.to_string())?;
            keys.push(k);
            p.sent += 1;
            pending += 1;
        }
        if pending == 0 {
            return Ok(p);
        }
        let give_up = Instant::now() + PATIENCE;
        while frames.is_empty() {
            let left = give_up.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("{pending} closed-loop replies never arrived"));
            }
            conn.recv(left, &mut frames).map_err(|e| e.to_string())?;
        }
        let at = Instant::now();
        for f in frames.drain(..) {
            let (_, ok) = p.account(&f, methods, &keys)?;
            pending -= 1;
            if let Some((queue_ms, service_ms)) = ok {
                p.replies.push(Reply { lat_ms: 0.0, queue_ms, service_ms });
            }
            p.in_window += u64::from(window.is_some_and(|(start, end)| start <= at && at < end));
        }
    }
}

/// Runs `f` on both connections at once: connection 1 on a second
/// thread, connection 0 on this one.
fn both<F>(conns: &mut [Conn; 2], f: F) -> Result<Phase, String>
where
    F: Fn(usize, &mut Conn) -> Result<Phase, String> + Sync,
{
    let [c0, c1] = conns;
    std::thread::scope(|s| {
        let h = s.spawn(|| f(1, c1));
        let a = f(0, c0);
        let b = h.join().expect("load generator thread panicked");
        Ok(a?.merge(b?))
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn control(conn: &mut Conn, payload: &str) -> Result<Json, String> {
    let text = conn.call(payload, PATIENCE).map_err(|e| format!("{payload}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{payload}: {e}"))
}

/// The per-daemon `stats` objects of a direct or merged router response.
fn daemons(stats: &Json) -> Vec<&Json> {
    match stats.get("shards").and_then(Json::as_array) {
        Some(shards) => shards.iter().filter_map(|s| s.get("stats")).collect(),
        None => vec![stats],
    }
}

fn field(stats: &Json, path: &[&str]) -> f64 {
    path.iter().try_fold(stats, |v, k| v.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Sum of one `stats` field over every daemon.
fn total(stats: &Json, path: &[&str]) -> f64 {
    daemons(stats).iter().map(|d| field(d, path)).sum()
}

/// Stitches the retained traces of a `trace` reply (router part first,
/// then the shard part sharing its trace id) and analyzes each.
fn analyze_traces(v: &Json, totals: &mut TraceTotals) {
    let mut groups: Vec<(Option<&str>, Vec<&Json>)> = Vec::new();
    for t in v.get("traces").and_then(Json::as_array).unwrap_or(&[]) {
        let tid = t.str_field("trace_id");
        match groups.iter_mut().find(|(g, _)| tid.is_some() && *g == tid) {
            Some((_, parts)) => parts.push(t),
            None => groups.push((tid, vec![t])),
        }
    }
    for (_, mut parts) in groups {
        parts.sort_by_key(|t| t.get("process").is_none());
        let lines: Vec<String> = parts
            .iter()
            .flat_map(|t| t.get("events").and_then(Json::as_array).unwrap_or(&[]))
            .map(json::render)
            .collect();
        if let Ok(a) = obs::TraceAnalysis::from_lines(lines.iter().map(String::as_str)) {
            totals.add(&a, true);
        }
    }
}

/// A started topology and its two client connections, which close first.
struct Live {
    conns: [Conn; 2],
    topo: Topology,
}

/// One timed set-up: spawn every process, read each `listening on` line,
/// connect, and send one warm-up pass over every method.
fn set_up(
    spec: &Spec,
    traced: bool,
    req: &Requests,
    methods: &[Method],
    tally: &mut Tally,
    setup_s: &mut Vec<f64>,
) -> Result<Live, String> {
    let t = Instant::now();
    let topo = Topology::start(spec, traced)?;
    let connect =
        || Conn::connect(topo.entry()).map_err(|e| format!("connect {}: {e}", topo.entry()));
    let mut conns = [connect()?, connect()?];
    let warm = both(&mut conns, |c, conn| {
        let mut keys = (c..methods.len()).step_by(2);
        closed_loop(conn, req, methods, CLOSED_DEPTH, None, || keys.next())
    })?;
    tally.add(warm.tally);
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(Live { conns, topo })
}

pub fn measure(
    methods: &[Method],
    spec: &Spec,
    seed: u64,
    secs: f64,
    traced: bool,
    setups: usize,
) -> Result<Measured, String> {
    let req = Requests::new(methods);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    // The set-ups are spread over the run so that they sample the host
    // over all of it: a third before the measured phases (the last of
    // these is the one measured), a third between them and a third after.
    // Each group starts on warmed CPUs; the later groups are stopped as
    // soon as they are timed.
    let later = setups / 3;
    let mut timed_set_ups = |n: usize, tally: &mut Tally| -> Result<Option<Live>, String> {
        if n > 0 {
            crate::warm_cpus();
        }
        let mut live = None;
        for _ in 0..n {
            drop(live.take()); // stop the previous set-up's processes first
            live = Some(set_up(spec, traced, &req, methods, tally, &mut setup_s)?);
        }
        Ok(live)
    };
    let Live { mut conns, topo } =
        timed_set_ups(setups - 2 * later, &mut tally)?.ok_or("no set-up ran")?;

    let before = control(&mut conns[0], "{\"verb\":\"stats\"}")?;

    // Phase 1: open loop. Keys and due instants are fixed up front from
    // the seed; request k goes out on connection k % 2.
    let open_secs = secs * 2.0 / 3.0;
    let n = (OPEN_RPS * open_secs).round().max(2.0) as usize;
    let all_keys: Vec<usize> =
        spec.keys.stream(methods.len(), Rng::stream(seed, STREAM_OPEN)).take(n).collect();
    let t0 = Instant::now() + Duration::from_millis(10);
    let open = both(&mut conns, |c, conn| {
        let mine: Vec<usize> = (c..n).step_by(2).collect();
        let keys: Vec<usize> = mine.iter().map(|&k| all_keys[k]).collect();
        let dues: Vec<Instant> =
            mine.iter().map(|&k| t0 + Duration::from_secs_f64(k as f64 / OPEN_RPS)).collect();
        open_loop(conn, &req, methods, &keys, &dues)
    })?;
    // The schedule spans n periods; a generator that fell behind sent its
    // last request late, which stretches the span and lowers the rate.
    let open_span =
        open.last_send.map_or(Duration::ZERO, |t| t - t0) + Duration::from_secs_f64(1.0 / OPEN_RPS);
    // The sampled traces of the open-loop phase, whose latency the client
    // metrics report (the ring holds the most recent ones).
    let mut totals = TraceTotals::default();
    if traced {
        let v = control(&mut conns[0], &format!("{{\"verb\":\"trace\",\"last\":{TRACE_LAST}}}"))?;
        analyze_traces(&v, &mut totals);
    }
    timed_set_ups(later, &mut tally)?;

    // Phase 2: closed loop, counted from the end of its ramp until the end
    // instant.
    let closed_secs = secs - open_secs;
    let start = Instant::now() + CLOSED_RAMP;
    let window = (start, start + Duration::from_secs_f64(closed_secs));
    let closed = both(&mut conns, |c, conn| {
        let mut keys = spec.keys.stream(methods.len(), Rng::stream(seed, STREAM_CLOSED + c as u64));
        closed_loop(conn, &req, methods, CLOSED_DEPTH, Some(window), || keys.next())
    })?;

    let after = control(&mut conns[0], "{\"verb\":\"stats\"}")?;
    let (rss, procs) = (topo.peak_rss_mb(), topo.procs.len() as u64);
    drop(conns);
    drop(topo);
    timed_set_ups(later, &mut tally)?;

    tally.add(open.tally);
    tally.add(closed.tally);
    let mut e2e = Metrics::new();
    let setups_n = setup_s.len() as u64;
    put(&mut e2e, "setup_s", quantile(&sorted(setup_s), 0.5), setups_n);
    put(&mut e2e, "peak_rss_mb", rss, procs);

    let mut l = Metrics::new();
    put(&mut l, "client.throughput_per_s", closed.in_window as f64 / closed_secs, closed.in_window);
    let lat = sorted(open.replies.iter().map(|r| r.lat_ms).collect());
    let nl = lat.len() as u64;
    put(&mut l, "client.latency_p50_ms", quantile(&lat, 0.50), nl);
    put(&mut l, "client.latency_p90_ms", quantile(&lat, 0.90), nl);
    put(&mut l, "client.latency_p99_ms", quantile(&lat, 0.99), nl);
    layer_metrics(&mut l, spec, &open, &closed, open_span, &before, &after);
    if traced {
        let (tg, other) = totals.solver_split_ms();
        put(&mut l, "solver.testgen_ms", tg, totals.traces);
        put(&mut l, "solver.prune_ms", other, totals.traces);
        put(&mut l, "testgen.self_ms_per_method", totals.stage_ms("testgen"), totals.traces);
        put(&mut l, "preinfer-core.prune_self_ms", totals.stage_ms("prune"), totals.traces);
        totals.put_into(&mut l);
    }
    Ok(Measured { tally, e2e, layers: l })
}

/// Per-layer metrics of an untraced serving run.
fn layer_metrics(
    l: &mut Metrics,
    spec: &Spec,
    open: &Phase,
    closed: &Phase,
    open_span: Duration,
    before: &Json,
    after: &Json,
) {
    let d = |path: &[&str]| total(after, path) - total(before, path);
    let infers = d(&["counters", "infers_ok"]);
    let nd = infers as u64;
    let per = |x: f64| ratio(x, infers);
    let stage_ms = |s: &str| d(&["stages", s, "total_us"]) / 1e3;
    put(l, "testgen.ms_per_method", per(stage_ms("testgen")), nd);
    let core: f64 =
        ["partition", "prune", "generalize", "assemble"].iter().map(|s| stage_ms(s)).sum();
    put(l, "preinfer-core.ms_per_method", per(core), nd);
    put(l, "preinfer-core.generalize_ms", per(stage_ms("generalize")), nd);
    put(l, "preinfer-core.assemble_ms", per(stage_ms("assemble")), nd);
    put(l, "preinfer-core.passing_guard_ms", per(stage_ms("passing_guard")), nd);
    let (hits, misses) = (d(&["cache", "hits"]), d(&["cache", "misses"]));
    put(l, "solver.queries_per_method", per(hits + misses), nd);
    put(l, "solver.cache_hit_rate", ratio(hits, hits + misses), (hits + misses) as u64);
    let tiers: f64 = ["syntactic", "interval", "simplex"]
        .iter()
        .map(|t| d(&["solver_tiers", &format!("answered_by_{t}")]))
        .sum();
    put(
        l,
        "solver.simplex_share",
        ratio(d(&["solver_tiers", "answered_by_simplex"]), tiers),
        tiers as u64,
    );
    let queries = d(&["solver_incremental", "queries"]);
    put(
        l,
        "solver.incremental_reused_depth",
        ratio(d(&["solver_incremental", "reused_depth_sum"]), queries),
        queries as u64,
    );
    let denom = stage_ms("testgen") + core;
    put(l, "server.stage_share.testgen", ratio(stage_ms("testgen"), denom), nd);
    put(l, "server.stage_share.prune", ratio(stage_ms("prune"), denom), nd);
    put(l, "server.stage_share.solver", ratio(stage_ms("solver"), denom), nd);
    put(l, "server.overloaded", d(&["counters", "overloaded"]), nd);
    put(l, "server.timed_out", d(&["counters", "timed_out"]), nd);

    let ok = (open.replies.len() + closed.replies.len()) as u64;
    let okf = ok as f64;
    put(l, "testgen.tests_per_method", ratio((open.tests + closed.tests) as f64, okf), ok);
    put(
        l,
        "preinfer-core.dynamic_runs_per_method",
        ratio((open.dynamic_runs + closed.dynamic_runs) as f64, okf),
        ok,
    );
    let examined = open.examined + closed.examined;
    put(
        l,
        "preinfer-core.removed_ratio",
        ratio((open.removed + closed.removed) as f64, examined as f64),
        examined,
    );

    // Open-loop splits: client latency = queue + service + the rest
    // (client and daemon io; on a routed run also the router hop, whose
    // own share the traced run's `trace.process.preinfer-router.self_ms`
    // gives).
    let n = open.replies.len() as u64;
    let q = |f: fn(&Reply) -> f64, p| quantile(&sorted(open.replies.iter().map(f).collect()), p);
    let io = |r: &Reply| r.lat_ms - r.queue_ms - r.service_ms;
    put(l, "server.queue_ms_p50", q(|r| r.queue_ms, 0.50), n);
    put(l, "server.queue_ms_p99", q(|r| r.queue_ms, 0.99), n);
    put(l, "server.service_ms_p50", q(|r| r.service_ms, 0.50), n);
    put(l, "server.service_ms_p99", q(|r| r.service_ms, 0.99), n);
    put(l, "server.io_ms_p50", q(io, 0.50), n);
    put(l, "server.io_ms_p99", q(io, 0.99), n);
    if spec.routed {
        let per_shard: Vec<f64> = daemons(after)
            .iter()
            .zip(daemons(before))
            .map(|(a, b)| {
                field(a, &["counters", "infers_ok"]) - field(b, &["counters", "infers_ok"])
            })
            .collect();
        let lo = per_shard.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = per_shard.iter().copied().fold(0.0, f64::max);
        put(l, "router.shard_balance", ratio(lo, hi), nd);
    }
    let late = sorted(open.late_ms.clone());
    put(l, "loadgen.late_ms_p99", quantile(&late, 0.99), late.len() as u64);
    put(l, "loadgen.achieved_rps", open.sent as f64 / open_span.as_secs_f64(), open.sent);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_streams_are_seeded_orders_of_a_fixed_mix() {
        let count = |keys: &Keys, seed| {
            let mut c = vec![0usize; 82];
            for k in keys.stream(82, Rng::stream(seed, 1)).take(82 * 10) {
                c[k] += 1;
            }
            c
        };
        let uniform = Keys::Uniform;
        let take = |seed| uniform.stream(82, Rng::stream(seed, 1)).take(500).collect::<Vec<_>>();
        assert_eq!(take(1), take(1), "same seed, same keys");
        assert_ne!(take(1), take(2), "another seed, another order");
        assert_eq!(count(&uniform, 1), vec![10; 82], "every method once per block");
        let zipf = Keys::Zipf(Zipf::new(82, 1.1));
        let z: Vec<usize> = zipf.stream(82, Rng::stream(3, 1)).take(ZIPF_BLOCK).collect();
        let mut by_rank = vec![0usize; 82];
        for &k in &z {
            by_rank[k] += 1;
        }
        let top10: usize = by_rank[..10].iter().sum();
        assert!((600..700).contains(&top10), "top-10 share of a block: {top10}");
        assert!(by_rank.iter().all(|&c| c >= 1), "every rank appears in a block");
        let mut other: Vec<usize> = zipf.stream(82, Rng::stream(4, 1)).take(ZIPF_BLOCK).collect();
        assert_ne!(z, other, "another seed, another order");
        let mut z = z;
        z.sort_unstable();
        other.sort_unstable();
        assert_eq!(z, other, "the same Zipf mix for every seed");
    }
}
