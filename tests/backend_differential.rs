//! The backend differential of the tiered solver core: swapping the
//! backend stack ([`BackendKind::Tiered`] vs [`BackendKind::Simplex`]) is
//! unobservable through the whole pipeline.
//!
//! The simplex-only rows of `tests/common/`, with the cache on and off,
//! must render the ψ golden that the tiered production pass renders. This
//! is the executable form of the escalation contract in `solver::interval`:
//! the cheap tiers only decide a query when the simplex tier would provably
//! return the same verdict and the same model.
//!
//! [`BackendKind::Tiered`]: preinfer::prelude::BackendKind::Tiered
//! [`BackendKind::Simplex`]: preinfer::prelude::BackendKind::Simplex

mod common;

#[test]
fn tiered_and_simplex_backends_infer_identical_psi_across_the_corpus() {
    common::assert_rows_render_psi_golden(&["simplex-only", "simplex-only, cache off"]);
}
