//! Request execution: one `infer` request against the shared warm cache.
//!
//! This is the bridge between the wire protocol and the offline pipeline:
//! a request runs the same [`SummaryBuildConfig::run`] the `preinfer` CLI
//! does. The invariant the differential tests lock in: an `infer`
//! response's ψ strings are byte-identical to an offline cold run of the
//! same program ([`crate::offline_psis`]), because the shared
//! [`SolverCache`] only memoizes values that are pure functions of their
//! canonical keys — serving from a warm cache amortizes cost without ever
//! changing an answer.

use crate::protocol::{ErrorCode, InferRequest};
use concolic::SummaryApplyStats;
use minilang::CheckId;
use obs::json::ObjBuilder;
use preinfer_core::{Inference, MethodRun, SummaryBuildConfig, SummaryTable};
use solver::{Deadline, IncrementalCounters, SolverCache, TierCounters};
use std::sync::Arc;
use std::time::Instant;
use testgen::TestGenConfig;

/// Daemon-wide interprocedural policy: the daemon-lifetime
/// [`SummaryTable`] shared by every worker when `infer` requests apply
/// callee ψ-summaries at call sites (`--interproc summary`; α-equivalent
/// callee closures across requests hit instead of re-inferring) — `None`
/// inlines callee bodies (the default) — and the lifetime apply/fallback
/// counters. Served under `stats.summaries` and the `preinfer_summary_*`
/// metrics.
#[derive(Debug, Clone, Default)]
pub struct SummaryPolicy {
    pub table: Option<Arc<SummaryTable>>,
    pub stats: Arc<SummaryApplyStats>,
}

/// A completed `infer` request.
#[derive(Debug)]
pub struct InferOutcome {
    pub func: String,
    pub tests: usize,
    pub coverage_percent: f64,
    /// One inference per triggered ACL, in ACL order.
    pub inferences: Vec<(CheckId, Inference)>,
    /// Whether the clock passed the per-request deadline before the reply
    /// (the result may be partial).
    pub timed_out: bool,
    /// Inference wall-clock, milliseconds.
    pub elapsed_ms: f64,
}

/// A failed `infer` request (typed; never a panic).
#[derive(Debug, Clone)]
pub struct ServiceError {
    pub code: ErrorCode,
    pub message: String,
}

/// Runs one `infer` request to completion. `deadline` must already be
/// running (the clock starts at admission, so queue wait counts against
/// the request's budget). `trace` is an observation-only sink (the daemon
/// passes its shared aggregate sink; it never changes any answer), and
/// `tiers` and `incremental` accumulate which solver tier answered each
/// executed query and what the warm solver sessions did — the daemon
/// shares one set of each across workers and serves them through its
/// registry (`stats` and `metrics`).
pub fn run_infer(
    req: &InferRequest,
    cache: &Arc<SolverCache>,
    deadline: &Deadline,
    trace: &Option<Arc<obs::TraceSink>>,
    tiers: &Arc<TierCounters>,
    incremental: &Arc<IncrementalCounters>,
    summaries: &SummaryPolicy,
) -> Result<InferOutcome, ServiceError> {
    let start = Instant::now();
    let program = minilang::compile(&req.program)
        .map_err(|e| ServiceError { code: ErrorCode::CompileError, message: e.to_string() })?;
    let func_name = program
        .program()
        .entry(req.func.as_deref(), "program")
        .map_err(|message| ServiceError { code: ErrorCode::BadRequest, message })?
        .name
        .clone();

    let mut tg = TestGenConfig::default();
    if let Some(n) = req.tests {
        tg.max_runs = n;
    }
    let run = SummaryBuildConfig {
        stats: summaries.stats.clone(),
        ..SummaryBuildConfig::new(
            tg,
            Some(cache.clone()),
            *deadline,
            trace.clone(),
            tiers.clone(),
            incremental.clone(),
        )
    };
    // Summary mode builds (or re-resolves from the shared table) the
    // callee summaries for this program before the entry inference.
    let MethodRun { suite, inferences, .. } =
        run.run(&program, &func_name, summaries.table.as_deref());
    let func = program.func(&func_name).expect("checked above");
    Ok(InferOutcome {
        coverage_percent: suite.coverage_percent(func),
        func: func_name,
        tests: suite.len(),
        inferences,
        timed_out: deadline.expired(),
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Renders a successful `infer` response frame. `request_id` is the
/// daemon's monotonic admission id (echoed so clients can later fetch the
/// request's retained trace with the `trace` verb).
pub fn render_infer_response(
    id: Option<&str>,
    request_id: u64,
    out: &InferOutcome,
    queue_ms: f64,
    cache: &SolverCache,
) -> String {
    let acls: Vec<String> = out
        .inferences
        .iter()
        .map(|(acl, inf)| {
            let (p, s) = (&inf.precondition, &inf.prune_stats);
            ObjBuilder::new()
                .str("acl", &format!("{acl:?}"))
                .str("kind", &acl.kind.to_string())
                .str("psi", &p.psi.to_string())
                .str("alpha", &p.alpha.to_string())
                .bool("quantified", p.quantified)
                .raw(
                    "prune",
                    ObjBuilder::new()
                        .u64("examined", s.examined as u64)
                        .u64("removed", s.removed as u64)
                        .u64("dynamic_runs", s.dynamic_runs as u64)
                        .build(),
                )
                .build()
        })
        .collect();
    let stats = cache.stats();
    ObjBuilder::new()
        .bool("ok", true)
        .opt_str("id", id)
        .str("verb", "infer")
        .u64("request_id", request_id)
        .str("func", &out.func)
        .u64("tests", out.tests as u64)
        .f64("coverage_percent", out.coverage_percent)
        .bool("timed_out", out.timed_out)
        .f64("elapsed_ms", out.elapsed_ms)
        .f64("queue_ms", queue_ms)
        .arr("acls", acls)
        .raw(
            "cache",
            ObjBuilder::new()
                .u64("hits", stats.hits)
                .u64("misses", stats.misses)
                .u64("entries", stats.entries)
                .f64("hit_rate", stats.hit_rate())
                .build(),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(program: &str) -> InferRequest {
        InferRequest {
            program: program.to_string(),
            func: None,
            deadline_ms: None,
            tests: None,
            trace: None,
        }
    }

    #[test]
    fn infers_the_guarded_div_shape() {
        let cache = Arc::new(SolverCache::new());
        let tiers = Arc::new(TierCounters::default());
        let inc = Arc::new(IncrementalCounters::default());
        let out = run_infer(
            &req("fn f(x int) -> int { return 10 / x; }"),
            &cache,
            &Deadline::none(),
            &None,
            &tiers,
            &inc,
            &SummaryPolicy::default(),
        )
        .unwrap();
        assert_eq!(out.func, "f");
        assert!(!out.timed_out);
        assert_eq!(out.inferences.len(), 1);
        assert_eq!(out.inferences[0].1.precondition.psi.to_string(), "x != 0");
        assert!(cache.stats().misses > 0, "inference went through the shared cache");
        assert!(tiers.snapshot().total() > 0, "tier attribution flowed through the service");
        let snap = inc.snapshot();
        assert!(snap.sessions > 0, "incremental sessions flowed through the service");
        assert!(snap.queries > 0, "session queries were counted");
    }

    #[test]
    fn compile_errors_are_typed() {
        let cache = Arc::new(SolverCache::new());
        let tiers = Arc::new(TierCounters::default());
        let err = run_infer(
            &req("fn f( {"),
            &cache,
            &Deadline::none(),
            &None,
            &tiers,
            &Arc::default(),
            &SummaryPolicy::default(),
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::CompileError);
        let err = run_infer(
            &InferRequest {
                func: Some("missing".into()),
                ..req("fn f(x int) -> int { return x; }")
            },
            &cache,
            &Deadline::none(),
            &None,
            &tiers,
            &Arc::default(),
            &SummaryPolicy::default(),
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn expired_deadline_yields_partial_timed_out_result() {
        let cache = Arc::new(SolverCache::new());
        let deadline = Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let out = run_infer(
            &req("fn f(x int, y int) -> int { if (x > 0) { return 10 / y; } return 0; }"),
            &cache,
            &deadline,
            &None,
            &Arc::new(TierCounters::default()),
            &Arc::default(),
            &SummaryPolicy::default(),
        )
        .unwrap();
        assert!(out.timed_out, "deadline was already expired at admission");
    }

    #[test]
    fn response_renders_as_valid_json() {
        let cache = Arc::new(SolverCache::new());
        let out = run_infer(
            &req("fn f(x int) -> int { return 10 / x; }"),
            &cache,
            &Deadline::none(),
            &None,
            &Arc::new(TierCounters::default()),
            &Arc::default(),
            &SummaryPolicy::default(),
        )
        .unwrap();
        let rendered = render_infer_response(Some("id-1"), 42, &out, 0.5, &cache);
        let v = obs::json::parse(&rendered).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.str_field("verb"), Some("infer"));
        assert_eq!(v.u64_field("request_id"), Some(42));
        let acls = v.get("acls").unwrap().as_array().unwrap();
        assert_eq!(acls[0].str_field("psi"), Some("x != 0"));
    }
}
