//! Regenerates the paper's tables and figures from the corpus.
//!
//! Usage:
//!   tables                # everything
//!   tables 1 3 4 5 6 f3   # selected tables / figure 3
//!   tables interproc      # inline-vs-summary axis on the multi-function slice
//!   tables --json OUT     # additionally dump per-ACL results as JSON

use report::{evaluate_corpus, EvalConfig};
use std::io::Write;

/// The selections `tables` knows.
const PICKS: [&str; 8] = ["1", "2", "3", "4", "5", "6", "f3", "interproc"];

fn usage() -> ! {
    eprintln!(
        "usage: tables [1|2|3|4|5|6|f3|interproc ...] [--json OUT]\n\
         \n\
         Prints the paper's tables and Figure 3 from the corpus (all of\n\
         them when no selection is given); `interproc` prints the\n\
         inline-vs-summary table of the multi-function slice. --json OUT\n\
         also writes the per-ACL results of the evaluation to OUT."
    );
    std::process::exit(2);
}

/// Reports that the `--json` output cannot be written and exits 1.
fn cannot_write(path: &str, e: std::io::Error) -> ! {
    eprintln!("tables: cannot write {path}: {e}");
    std::process::exit(1);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut picks: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = Some(it.next().unwrap_or_else(|| usage()));
        } else if PICKS.contains(&a.as_str()) {
            picks.push(a);
        } else {
            usage();
        }
    }
    let want = |k: &str| picks.is_empty() || picks.iter().any(|p| p == k);
    // Opened before anything is evaluated, so an unwritable path fails fast.
    let json_out = json_path.map(|path| match std::fs::File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => cannot_write(&path, e),
    });

    if want("1") || want("2") {
        println!("{}", report::table_1_2());
    }
    if want("3") {
        println!("{}", report::table_3());
    }
    let needs_eval = want("4") || want("5") || want("6") || want("f3") || json_out.is_some();
    if needs_eval {
        eprintln!("evaluating corpus ({} methods)…", subjects::all_subjects().len());
        let start = std::time::Instant::now();
        let cfg = EvalConfig::default();
        let results = evaluate_corpus(&subjects::all_subjects(), &cfg);
        let hits: u64 = results.iter().map(|r| r.solver_cache_hits).sum();
        let misses: u64 = results.iter().map(|r| r.solver_cache_misses).sum();
        eprintln!(
            "done in {:.1}s ({} threads; solver cache: {} hits / {} misses, {:.1}% hit rate)",
            start.elapsed().as_secs_f64(),
            cfg.jobs,
            hits,
            misses,
            if hits + misses == 0 { 0.0 } else { 100.0 * hits as f64 / (hits + misses) as f64 },
        );
        // Per-stage totals across all methods (from the aggregate sinks).
        let mut stage_totals: std::collections::BTreeMap<&'static str, (u64, u64)> =
            Default::default();
        for r in &results {
            for (stage, t) in &r.stage_timings {
                let e = stage_totals.entry(stage.label()).or_insert((0, 0));
                e.0 += t.count;
                e.1 += t.total_us;
            }
        }
        if !stage_totals.is_empty() {
            eprintln!("stage breakdown (all methods):");
            for (stage, (count, total_us)) in &stage_totals {
                eprintln!("  {stage:>14}: {count:>7} spans, {:.2}s", *total_us as f64 / 1e6);
            }
        }
        if want("4") {
            println!("{}", report::table_4(&results));
        }
        if want("5") {
            println!("{}", report::table_5(&results));
        }
        if want("6") {
            println!("{}", report::table_6(&results));
        }
        if want("f3") {
            println!("{}", report::figure_3(&results));
        }
        if let Some((path, mut file)) = json_out {
            let json = report::results_to_json(&results);
            file.write_all(json.as_bytes()).unwrap_or_else(|e| cannot_write(&path, e));
            eprintln!("wrote {path}");
        }
    }
    if picks.iter().any(|p| p == "interproc") {
        // Multi-function slice, evaluated once per interprocedural mode.
        let slice: Vec<_> = subjects::all_subjects()
            .into_iter()
            .filter(|m| m.namespace == "Interproc.Summaries")
            .collect();
        eprintln!("evaluating interproc slice ({} methods, both modes)…", slice.len());
        let inline_cfg = EvalConfig::default();
        let summary_cfg = EvalConfig {
            summary_table: Some(std::sync::Arc::new(preinfer_core::SummaryTable::new())),
            ..EvalConfig::default()
        };
        let inline = evaluate_corpus(&slice, &inline_cfg);
        let summary = evaluate_corpus(&slice, &summary_cfg);
        println!("{}", report::interproc_table(&inline, &summary));
    }
}
