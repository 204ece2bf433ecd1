//! The work ledger: how much work one production pass over the corpus
//! does, counted exactly (the fields are listed in `tests/common/`).
//!
//! Unlike a timing ratio, this is exact and immune to host noise: a change
//! that claims to do the same work more cheaply must pass it unchanged,
//! and a change that alters the work must regenerate it and say why.
//!
//! Regenerate with `UPDATE_WORK_LEDGER=1 cargo test --test work_ledger`.

mod common;

#[test]
fn corpus_pass_does_the_same_work_as_the_golden() {
    let pass = common::production_pass();
    common::check_golden("work_ledger.golden", "UPDATE_WORK_LEDGER", &pass.ledger);
}
