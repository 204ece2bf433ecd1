//! The interning differential: hash-consed term interning is unobservable.
//!
//! `tests/goldens/interning_corpus.golden` was captured *before* the
//! `symbolic` crate switched to hash-consed interned terms: ψ, α,
//! quantification, disjunct rendering and every pruning counter of every
//! inference over the corpus. The production pass of `tests/common/` must
//! render it byte for byte. It is also the ψ golden every config row is
//! checked against.
//!
//! Regenerate (only for changes that intentionally alter inference output)
//! with `UPDATE_INTERNING_GOLDENS=1 cargo test --test interning_differential`.

mod common;

#[test]
fn inference_output_is_byte_identical_to_pre_interning_goldens() {
    let pass = common::production_pass();
    common::check_golden(common::PSI_GOLDEN, "UPDATE_INTERNING_GOLDENS", &pass.psi);
}
