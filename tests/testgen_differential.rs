//! The test-generation differential: how flips are deduplicated is
//! unobservable.
//!
//! `tests/goldens/testgen_corpus.golden` records, for every corpus method,
//! the `runs` and `flips` of the generator's `testgen_done` event and a
//! digest of its ordered `flip` events (site, depth, verdict). It was
//! captured before flip signatures moved from vectors of canonical
//! predicates to vectors of per-call canonical ids, so a match shows the
//! new dedupe keys attempt exactly the same flips, in the same order, with
//! the same verdicts. The production pass of `tests/common/` renders it
//! from its recorded trace.
//!
//! Regenerate (only for changes that intentionally alter test generation)
//! with `UPDATE_TESTGEN_GOLDENS=1 cargo test --test testgen_differential`.

mod common;

#[test]
fn testgen_attempts_the_same_flips_as_the_golden() {
    let pass = common::production_pass();
    common::check_golden("testgen_corpus.golden", "UPDATE_TESTGEN_GOLDENS", &pass.testgen);
}
