//! Hand-rolled JSON rendering for evaluation results.
//!
//! The offline build environment has no `serde`, so the per-ACL results are
//! serialized by hand, with the workspace's one escaper (`obs::json`). The shape matches what `#[derive(Serialize)]` used
//! to produce for `Vec<MethodResult>`, keeping downstream consumers of
//! `tables --json` working.

use crate::eval::{AclResult, ApproachResult, MethodResult, StageTiming};
use obs::json::{escape, num};
use std::fmt::Write;

/// Serializes the full evaluation output as pretty-printed JSON.
pub fn results_to_json(results: &[MethodResult]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in results.iter().enumerate() {
        write_method(&mut out, m, 1);
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

fn write_method(out: &mut String, m: &MethodResult, level: usize) {
    let pad = Indent(level);
    let inner = Indent(level + 1);
    let _ = writeln!(out, "{pad}{{");
    let _ = writeln!(out, "{inner}\"namespace\": {},", escape(&m.namespace));
    let _ = writeln!(out, "{inner}\"subject\": {},", escape(&m.subject));
    let _ = writeln!(out, "{inner}\"method\": {},", escape(&m.method));
    let _ = writeln!(out, "{inner}\"coverage_percent\": {},", num(m.coverage_percent));
    let _ = writeln!(out, "{inner}\"tests\": {},", m.tests);
    let _ = writeln!(out, "{inner}\"solver_cache_hits\": {},", m.solver_cache_hits);
    let _ = writeln!(out, "{inner}\"solver_cache_misses\": {},", m.solver_cache_misses);
    let _ = writeln!(out, "{inner}\"interproc\": {},", escape(m.interproc));
    let _ = writeln!(out, "{inner}\"summarized_callees\": {},", m.summarized_callees);
    let _ = writeln!(out, "{inner}\"summary_table_hits\": {},", m.summary_table_hits);
    let _ = writeln!(out, "{inner}\"summary_applies\": {},", m.summary_applies);
    let _ = writeln!(out, "{inner}\"summary_fallbacks\": {},", m.summary_fallbacks);
    // Rendered on a single line: timing values vary run to run, so
    // differential consumers can drop this one line and compare the rest.
    let _ = write!(out, "{inner}\"stage_timings\": [");
    for (i, t) in m.stage_timings.iter().enumerate() {
        write_stage_timing(out, t);
        if i + 1 < m.stage_timings.len() {
            out.push_str(", ");
        }
    }
    out.push_str("],\n");
    // Also one line: the tier split is scheduling-dependent under a shared
    // cache (which tier *executes* a query depends on who misses first).
    let t = &m.solver_tiers;
    let _ = writeln!(
        out,
        "{inner}\"solver_tiers\": {{\"answered_by_syntactic\": {}, \
         \"answered_by_interval\": {}, \"answered_by_simplex\": {}, \
         \"escalations\": {}}},",
        t.answered_by_syntactic, t.answered_by_interval, t.answered_by_simplex, t.escalations
    );
    if m.acls.is_empty() {
        let _ = writeln!(out, "{inner}\"acls\": []");
    } else {
        let _ = writeln!(out, "{inner}\"acls\": [");
        for (i, a) in m.acls.iter().enumerate() {
            write_acl(out, a, level + 2);
            out.push_str(if i + 1 < m.acls.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(out, "{inner}]");
    }
    let _ = write!(out, "{pad}}}");
}

fn write_stage_timing(out: &mut String, t: &StageTiming) {
    let _ = write!(
        out,
        "{{\"stage\": {}, \"count\": {}, \"total_us\": {}, \"mean_us\": {}, \
         \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}}}",
        escape(t.stage),
        t.count,
        t.total_us,
        t.mean_us,
        t.p50_us,
        t.p90_us,
        t.p99_us
    );
}

fn write_acl(out: &mut String, a: &AclResult, level: usize) {
    let pad = Indent(level);
    let inner = Indent(level + 1);
    let _ = writeln!(out, "{pad}{{");
    let _ = writeln!(out, "{inner}\"namespace\": {},", escape(&a.namespace));
    let _ = writeln!(out, "{inner}\"subject\": {},", escape(&a.subject));
    let _ = writeln!(out, "{inner}\"method\": {},", escape(&a.method));
    let _ = writeln!(out, "{inner}\"kind\": {},", escape(&a.kind));
    let _ = writeln!(out, "{inner}\"loop_pos_label\": {},", escape(&a.loop_pos_label));
    let _ = writeln!(out, "{inner}\"quantified_target\": {},", json_opt_bool(a.quantified_target));
    let _ = write!(out, "{inner}\"preinfer\": ");
    write_approach(out, &a.preinfer, level + 1);
    out.push_str(",\n");
    let _ = write!(out, "{inner}\"fixit\": ");
    write_approach(out, &a.fixit, level + 1);
    out.push_str(",\n");
    let _ = write!(out, "{inner}\"dysy\": ");
    write_approach(out, &a.dysy, level + 1);
    out.push('\n');
    let _ = write!(out, "{pad}}}");
}

fn write_approach(out: &mut String, r: &ApproachResult, level: usize) {
    let pad = Indent(level);
    let inner = Indent(level + 1);
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "{inner}\"sufficient\": {},", r.sufficient);
    let _ = writeln!(out, "{inner}\"necessary\": {},", r.necessary);
    let _ = writeln!(out, "{inner}\"correct\": {},", json_opt_bool(r.correct));
    let _ = writeln!(out, "{inner}\"complexity\": {},", r.complexity);
    let rel = match r.relative_complexity {
        Some(v) => num(v),
        None => "null".to_string(),
    };
    let _ = writeln!(out, "{inner}\"relative_complexity\": {rel},");
    let _ = writeln!(out, "{inner}\"quantified\": {},", r.quantified);
    let _ = writeln!(out, "{inner}\"psi\": {}", escape(&r.psi));
    let _ = write!(out, "{pad}}}");
}

struct Indent(usize);

impl std::fmt::Display for Indent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for _ in 0..self.0 {
            f.write_str("  ")?;
        }
        Ok(())
    }
}

fn json_opt_bool(v: Option<bool>) -> String {
    match v {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_results_render_as_empty_array() {
        assert_eq!(results_to_json(&[]), "[\n]");
    }
}
