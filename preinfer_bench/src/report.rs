//! Metric names, one run's measurements, and how they are printed.
//!
//! The metric catalog is the repository's `BENCHMARK.json`, compiled in:
//! its `end_to_end` and `per_layer` lists name every metric this harness
//! reports and give its unit. A run that fails to produce a listed metric
//! is an error, so the file and the harness cannot drift apart.

use server::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The metrics and workloads `BENCHMARK.json` lists.
#[derive(Debug)]
pub struct Catalog {
    /// `(name, unit)` of every end-to-end metric, in file order.
    pub end_to_end: Vec<(String, String)>,
    /// `(name, unit)` of every per-layer metric, in file order.
    pub per_layer: Vec<(String, String)>,
    pub workloads: Vec<String>,
}

fn parse_catalog(text: &str) -> Result<Catalog, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key).and_then(Json::as_array).ok_or(format!("no `{key}` list"))
    };
    let field = |item: &Json, key: &str| -> Result<String, String> {
        item.str_field(key).map(str::to_string).ok_or(format!("an entry has no `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        list(key)?.iter().map(|m| Ok((field(m, "name")?, field(m, "unit")?))).collect()
    };
    Ok(Catalog {
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        workloads: list("workloads")?.iter().map(|w| field(w, "name")).collect::<Result<_, _>>()?,
    })
}

/// The compiled-in catalog.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        parse_catalog(BENCHMARK_JSON).unwrap_or_else(|e| panic!("compiled-in BENCHMARK.json: {e}"))
    })
}

fn lookup(name: &str) -> Option<(&'static str, &'static str)> {
    let c = catalog();
    c.end_to_end.iter().chain(&c.per_layer).find(|(k, _)| k == name).map(|(k, u)| (&**k, &**u))
}

/// One value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: u64,
}

pub type Metrics = BTreeMap<&'static str, Value>;

/// Inserts `name`, which must be a listed metric, into `m`.
pub fn put(m: &mut Metrics, name: &str, value: f64, n: u64) {
    let (key, _) =
        lookup(name).unwrap_or_else(|| panic!("metric `{name}` is not in BENCHMARK.json"));
    m.insert(key, Value { value, n });
}

fn unit_of(name: &str) -> &'static str {
    lookup(name).map_or("", |(_, u)| u)
}

/// Correctness tallies: every operation checked, failed, or answered
/// with a ψ that differs from the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
    }

    /// (failed + overloaded + timed out + ψ mismatch) / attempted, in %.
    /// Every such event is counted in `failed`.
    pub fn error_pct(&self) -> f64 {
        if self.attempted == 0 {
            100.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one run of one workload measured.
#[derive(Debug)]
pub struct Measured {
    pub tally: Tally,
    pub e2e: Metrics,
    pub layers: Metrics,
}

/// Per-stage exclusive self-time summed over sampled traces, plus the
/// solver split by caller and the cross-process split of stitched traces.
#[derive(Debug, Default)]
pub struct TraceTotals {
    pub traces: u64,
    stage_us: BTreeMap<String, u64>,
    solver_testgen_us: u64,
    solver_other_us: u64,
    process_us: BTreeMap<String, u64>,
}

impl TraceTotals {
    /// Adds one parsed trace. `count` says whether it is a new sampled
    /// request (a method's test-generation and inference recordings are
    /// two analyses of one sample).
    pub fn add(&mut self, a: &obs::TraceAnalysis, count: bool) {
        self.traces += u64::from(count);
        for t in a.stage_totals() {
            *self.stage_us.entry(t.stage).or_default() += t.exclusive_us;
        }
        for call in &a.solver_calls {
            let mut span = call.span.and_then(|id| a.spans.get(&id));
            let mut in_testgen = false;
            while let Some(s) = span {
                in_testgen |= s.stage == "testgen";
                span = s.parent.and_then(|p| a.spans.get(&p));
            }
            if in_testgen {
                self.solver_testgen_us += call.dur_us;
            } else {
                self.solver_other_us += call.dur_us;
            }
        }
        for (process, us) in a.process_totals() {
            *self.process_us.entry(process).or_default() += us;
        }
    }

    fn per_trace_ms(&self, us: u64) -> f64 {
        crate::stats::ratio(us as f64 / 1e3, self.traces as f64)
    }

    /// Self-time of one stage, ms per sampled request.
    pub fn stage_ms(&self, stage: &str) -> f64 {
        self.per_trace_ms(self.stage_us.get(stage).copied().unwrap_or(0))
    }

    /// Solver time under `testgen` spans and everywhere else, ms per
    /// sampled request.
    pub fn solver_split_ms(&self) -> (f64, f64) {
        (self.per_trace_ms(self.solver_testgen_us), self.per_trace_ms(self.solver_other_us))
    }

    /// Records every listed `trace.<stage>.self_ms` and
    /// `trace.process.<process>.self_ms` metric.
    pub fn put_into(&self, m: &mut Metrics) {
        for (name, _) in &catalog().per_layer {
            let Some(rest) = name.strip_prefix("trace.") else { continue };
            let Some(stage) = rest.strip_suffix(".self_ms") else { continue };
            let ms = match stage.strip_prefix("process.") {
                Some(p) => self.per_trace_ms(self.process_us.get(p).copied().unwrap_or(0)),
                None => self.stage_ms(stage),
            };
            put(m, name, ms, self.traces);
        }
    }
}

/// `workload metric value unit n=N` lines for the given metrics.
pub fn human_lines(workload: &str, m: &Metrics) -> String {
    let mut out = String::new();
    for (name, v) in m {
        let _ = writeln!(out, "{workload} {name} {} {} n={}", v.value, unit_of(name), v.n);
    }
    out
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, and every
/// metric of `list` with its unit. Errs if `m` lacks a listed metric.
pub fn result_line(
    tally: &Tally,
    m: &Metrics,
    list: &[(String, String)],
) -> Result<String, String> {
    let metrics = list
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name.as_str()).ok_or(format!("metric `{name}` was not measured"))?;
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(name),
                json_num(v.value),
                json::escape(unit)
            ))
        })
        .collect::<Result<Vec<String>, String>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    ))
}

/// A finite JSON number with every digit `f64` carries (non-finite → 0,
/// where `server::json::num` would write `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalog_meets_the_benchmark_format() {
        let c = catalog();
        let names: Vec<&str> =
            c.end_to_end.iter().chain(&c.per_layer).map(|(k, _)| k.as_str()).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(!names[..i].contains(n), "{n} listed twice");
        }
        for (_, u) in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert_eq!(c.workloads, crate::Workload::ALL.map(crate::Workload::name));
    }

    #[test]
    fn result_line_is_json_with_every_digit_and_every_listed_metric() {
        let list = &catalog().end_to_end;
        let mut m = Metrics::new();
        put(&mut m, "setup_s", 0.123_456_789_012, 9);
        assert!(result_line(&Tally::default(), &m, list).is_err(), "peak_rss_mb is missing");
        put(&mut m, "peak_rss_mb", 8.0, 1);
        put(&mut m, "client.latency_p90_ms", 1.0, 1);
        let line =
            result_line(&Tally { attempted: 10, failed: 0, mismatches: 0 }, &m, list).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics.get("setup_s").and_then(|s| s.get("value")).and_then(Json::as_f64),
            Some(0.123_456_789_012)
        );
        assert_eq!(metrics.get("peak_rss_mb").and_then(|s| s.str_field("unit")), Some("MB"));
        assert!(metrics.get("client.latency_p90_ms").is_none(), "only the listed metrics");
        assert!(line.contains("\"value\": 8.0"));
    }
}
