//! `preinfer_bench` — the repository benchmark.
//!
//! ```text
//! preinfer_bench [--workload NAME|all] --seed N [--trace] [--reps N]
//!                [--seconds S] [--smoke]
//! ```
//!
//! Runs each selected workload (see `workloads/README.md` for what each
//! one stresses and why), checks every inference against the pinned ψ
//! oracle outside the timed spans, and prints every metric as
//! `workload metric value unit n=N`, followed by one JSON result line per
//! workload run. A JSON copy of everything goes next to the executable
//! (`preinfer_bench.json`). Exits non-zero on any failed request or ψ
//! mismatch.
//!
//! `--trace` splits the run: the first half runs untraced, the second
//! with trace sinks attached, and the result line carries the per-layer
//! metrics plus `trace.overhead_pct` (the second half's rate against the
//! first's). `--reps N` runs every selected workload N times, alternating
//! the workload order, and ends with each metric's median and
//! interquartile range.

mod inputs;
mod offline;
mod report;
mod serve;
mod stats;
mod wire;

use report::{catalog, human_lines, json_num, put, result_line, Measured, Metrics, Tally};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineCold,
    ServeUniform,
    ServeZipf,
    RoutedUniform,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfflineCold,
        Workload::ServeUniform,
        Workload::ServeZipf,
        Workload::RoutedUniform,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineCold => "offline_cold",
            Workload::ServeUniform => "serve_uniform",
            Workload::ServeZipf => "serve_zipf",
            Workload::RoutedUniform => "routed_uniform",
        }
    }

    /// The serving set-up over `methods` pinned methods, if this is a
    /// serving workload.
    fn serving(self, methods: usize) -> Option<serve::Spec> {
        let uniform = serve::Keys::Uniform;
        match self {
            Workload::OfflineCold => None,
            Workload::ServeUniform => Some(serve::Spec { keys: uniform, routed: false }),
            Workload::ServeZipf => Some(serve::Spec {
                keys: serve::Keys::Zipf(stats::Zipf::new(methods, 1.1)),
                routed: false,
            }),
            Workload::RoutedUniform => Some(serve::Spec { keys: uniform, routed: true }),
        }
    }
}

/// Set-ups per run; `setup_s` is their median. Each workload spreads them
/// over the whole run, so that they sample the host's speed as the
/// measured span does, not just its first seconds.
const SETUPS: usize = 9;

/// How long both vCPUs are kept busy before anything is timed.
const WARM_CPUS: Duration = Duration::from_millis(1500);

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    trace: bool,
    reps: usize,
    seconds: f64,
    setups: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: preinfer_bench [--workload NAME|all] --seed N [--trace] [--reps N]\n\
         \x20                     [--seconds S] [--smoke]\n\
         \n\
         workloads: offline_cold, serve_uniform, serve_zipf, routed_uniform\n\
         --seconds S  measured span per workload run (default 20; serving\n\
         \x20            splits it 2:1 into open- and closed-loop phases)\n\
         --smoke      1.5-second runs with one set-up, for quick checks\n\
         --trace      untraced first half, traced second half; prints the\n\
         \x20            per-layer metrics\n\
         --reps N     N runs per workload in alternating order, then each\n\
         \x20            metric's median and interquartile range"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        trace: false,
        reps: 1,
        seconds: 20.0,
        setups: SETUPS,
    };
    let mut seed = None;
    let mut args = std::env::args().skip(1);
    let num = |v: Option<String>| v.and_then(|v| v.parse::<f64>().ok()).filter(|&v| v > 0.0);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                opts.workloads = match args.next().as_deref() {
                    Some("all") => Workload::ALL.to_vec(),
                    Some(n) => vec![Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == n)
                        .unwrap_or_else(|| usage())],
                    None => usage(),
                }
            }
            "--seed" => {
                seed = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--trace" => opts.trace = true,
            "--reps" => opts.reps = num(args.next()).unwrap_or_else(|| usage()) as usize,
            "--seconds" => opts.seconds = num(args.next()).unwrap_or_else(|| usage()),
            "--smoke" => {
                opts.seconds = 1.5;
                opts.setups = 1;
            }
            _ => usage(),
        }
    }
    opts.seed = seed.unwrap_or_else(|| usage());
    opts.reps = opts.reps.max(1);
    opts
}

/// Peak resident set (`VmHWM`) of a process, MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Spins on two threads for `WARM_CPUS` before a group of set-ups. On the
/// shared two-vCPU host the benchmark was calibrated on, a fixed spin loop
/// ran about 1.4× slower for the first second after a 3 s idle in half of
/// the trials, and at full speed after it. Serving set-ups timed after the
/// light load of the open loop took 1.6× as long as those timed after this
/// spin, and `preinfer-router` then waited its 100 ms start-up tick in
/// nearly every start.
pub fn warm_cpus() {
    let until = Instant::now() + WARM_CPUS;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) + 1);
                }
            });
        }
    });
}

fn measure(
    w: Workload,
    methods: &[inputs::Method],
    opts: &Options,
    secs: f64,
    traced: bool,
) -> Result<Measured, String> {
    match w.serving(methods.len()) {
        None => offline::measure(methods.len(), opts.seed, secs, traced, opts.setups),
        Some(spec) => serve::measure(methods, &spec, opts.seed, secs, traced, opts.setups),
    }
}

/// One run of one workload. Under `--trace` the measured span is split
/// between an untraced and a traced half.
fn run(w: Workload, methods: &[inputs::Method], opts: &Options) -> Result<Measured, String> {
    if !opts.trace {
        return measure(w, methods, opts, opts.seconds, false);
    }
    let plain = measure(w, methods, opts, opts.seconds / 2.0, false)?;
    let traced = measure(w, methods, opts, opts.seconds / 2.0, true)?;
    let rate = |m: &Measured| m.layers.get("client.throughput_per_s").map_or(0.0, |v| v.value);
    let overhead =
        if rate(&traced) > 0.0 { 100.0 * (rate(&plain) / rate(&traced) - 1.0) } else { 0.0 };
    let mut tally = plain.tally;
    tally.add(traced.tally);
    let mut layers = plain.layers;
    for (k, v) in traced.layers {
        layers.entry(k).or_insert(v);
    }
    put(&mut layers, "trace.overhead_pct", overhead, 2);
    for (name, _) in &catalog().per_layer {
        if !layers.contains_key(name.as_str()) {
            put(&mut layers, name, 0.0, 0);
        }
    }
    Ok(Measured { tally, e2e: plain.e2e, layers })
}

fn main() -> ExitCode {
    let opts = parse_args();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if catalog().workloads != names {
        eprintln!(
            "preinfer_bench: BENCHMARK.json lists workloads {:?}, not {names:?}",
            catalog().workloads
        );
        return ExitCode::FAILURE;
    }
    let methods = match inputs::load() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("preinfer_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs: Vec<(Workload, usize, Measured)> = Vec::new();
    let mut total = Tally::default();
    for rep in 0..opts.reps {
        let mut order = opts.workloads.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let m = match run(w, &methods, &opts) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("preinfer_bench: {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let mut shown = m.e2e.clone();
            shown.extend(m.layers.iter().map(|(k, v)| (*k, *v)));
            print!("{}", human_lines(w.name(), &shown));
            println!(
                "{} error_pct {} % n={} mismatches={}",
                w.name(),
                m.tally.error_pct(),
                m.tally.attempted,
                m.tally.mismatches
            );
            let (listed, list) = if opts.trace {
                (&m.layers, &catalog().per_layer)
            } else {
                (&m.e2e, &catalog().end_to_end)
            };
            match result_line(&m.tally, listed, list) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("preinfer_bench: {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
            total.add(m.tally);
            runs.push((w, rep, m));
        }
    }
    if opts.reps > 1 {
        print!("{}", spread_table(&opts.workloads, &runs));
    }
    if let Err(e) = write_json_copy(&opts, &runs) {
        eprintln!("preinfer_bench: cannot write the JSON copy: {e}");
    }
    if total.failed > 0 {
        eprintln!(
            "preinfer_bench: {} failed of {} attempted ({} ψ mismatches)",
            total.failed, total.attempted, total.mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `workload metric median iqr iqr% n=reps` per metric, over the reps.
fn spread_table(workloads: &[Workload], runs: &[(Workload, usize, Measured)]) -> String {
    let mut out = String::from("# workload metric median iqr iqr_pct_of_median reps\n");
    for &w in workloads {
        let mine: Vec<&Measured> = runs.iter().filter(|r| r.0 == w).map(|r| &r.2).collect();
        let Some(first) = mine.first() else { continue };
        for name in first.e2e.keys().chain(first.layers.keys()) {
            let vals: Vec<f64> = mine
                .iter()
                .filter_map(|m| m.e2e.get(name).or(m.layers.get(name)).map(|v| v.value))
                .collect();
            let (q1, q2, q3) = stats::quartiles(&vals);
            let pct = if q2 != 0.0 { 100.0 * (q3 - q1) / q2.abs() } else { 0.0 };
            let _ = writeln!(out, "{} {name} {q2} {} {pct:.2} {}", w.name(), q3 - q1, vals.len());
        }
    }
    out
}

fn write_json_copy(opts: &Options, runs: &[(Workload, usize, Measured)]) -> std::io::Result<()> {
    let metrics = |m: &Metrics| -> String {
        m.iter()
            .map(|(k, v)| format!("\"{k}\":{{\"value\":{},\"n\":{}}}", json_num(v.value), v.n))
            .collect::<Vec<_>>()
            .join(",")
    };
    let items: Vec<String> = runs
        .iter()
        .map(|(w, rep, m)| {
            format!(
                "{{\"workload\":\"{}\",\"rep\":{rep},\"seed\":{},\"seconds\":{},\"traced\":{},\
                 \"attempted\":{},\"failed\":{},\"mismatches\":{},\"error_pct\":{},\
                 \"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
                w.name(),
                opts.seed,
                json_num(opts.seconds),
                opts.trace,
                m.tally.attempted,
                m.tally.failed,
                m.tally.mismatches,
                json_num(m.tally.error_pct()),
                metrics(&m.e2e),
                metrics(&m.layers),
            )
        })
        .collect();
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name("preinfer_bench.json");
    std::fs::write(path, format!("[\n{}\n]\n", items.join(",\n")))
}
