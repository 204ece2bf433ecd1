//! The canonicalization front-end: one normal form shared by the cache
//! key and the solve path.
//!
//! Two conjunctions that differ only in predicate order, duplicated
//! conjuncts, syntactic spelling (`a > 0` vs `0 < a`), or parameter names
//! (an order-preserving α-renaming of the signature) denote the same
//! constraint problem. The canonical form renames every parameter to a
//! positional placeholder (`%0`, `%1`, … following signature order — `%`
//! cannot start a MiniLang identifier, so placeholders never collide with
//! real names), canonicalizes every predicate with [`canon_pred`], and
//! sorts and de-duplicates the resulting list.
//!
//! Every tier consumes this form: the interval tier's complementary-pair
//! scan relies on canonical negation being a structural match, and the
//! cache keys on the same [`CacheKey`] the solve path is answered under —
//! there is exactly one definition of "the same query" in the crate.

use crate::backend::BackendKind;
use crate::theory::{FuncSig, SolveResult, SolverConfig};
use minilang::{InputValue, MethodEntryState, Ty};
use symbolic::linform::{canon_cpred, CPred, CanonPred};
use symbolic::pred::Pred;
use symbolic::{Renamer, Rewrite};

/// The canonical form of one solver query: the cache key.
///
/// Cloning is near-free (a slice of `Copy` interned handles plus a few
/// scalars), comparison is id-wise, and hashing replays one precomputed
/// 64-bit digest — the deep-tree costs the pre-interning representation
/// paid on every cache probe are all gone. The slices are boxed, not
/// `Vec`s: a key never grows, and the cache holds one per entry.
#[derive(Debug, Clone)]
pub struct CacheKey {
    /// Renamed, canonicalized, sorted, de-duplicated conjuncts (interned).
    preds: Box<[CPred]>,
    /// Parameter types in signature order (names are positional).
    tys: Box<[Ty]>,
    /// Solver budget — a bigger budget can turn `Unknown` into a verdict.
    budget_nodes: u64,
    /// Model-size ceiling — can turn `Sat` into `Unknown`.
    max_model_len: i64,
    /// Backend stack the verdict was produced by. Tiered and simplex-only
    /// runs agree on verdicts, but the *answering tier* stored with each
    /// entry is backend-dependent, so it is part of the key.
    backend: BackendKind,
    /// Digest of every field above, fixed at construction. Ids are
    /// process-local, so this hash is too — it never leaves the process.
    hash: u64,
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.preds == other.preds
            && self.tys == other.tys
            && self.budget_nodes == other.budget_nodes
            && self.max_model_len == other.max_model_len
            && self.backend == other.backend
    }
}

impl Eq for CacheKey {}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CacheKey {
    /// Bytes the key's boxed slices own on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.preds) + std::mem::size_of_val(&*self.tys)
    }
}

/// A canonical verdict held by position: `Sat` carries one value per
/// signature position, so placeholder `%i` is index `i`. This is what the
/// [`crate::SolverCache`] stores — no placeholder names, no map — and what
/// [`CanonQuery::named`] turns into the caller's entry state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Verdict {
    Sat(Box<[InputValue]>),
    Unsat,
    Unknown,
}

/// A solver query in canonical form, together with the renaming needed to
/// translate models back to the caller's parameter names. The scratch
/// path builds one per call ([`CanonQuery::build`]); an incremental
/// session maintains one across pushes and pops.
#[derive(Debug, Clone)]
pub struct CanonQuery {
    /// Renamed, canonicalized, sorted, de-duplicated conjuncts (interned),
    /// with trivial truths dropped.
    pub(crate) preds: Vec<CPred>,
    pub(crate) renaming: Renaming,
}

/// The α-renaming of one signature to positional placeholders.
#[derive(Debug, Clone)]
pub(crate) struct Renaming {
    /// `(caller name, placeholder name)` pairs in signature order: the
    /// renaming [`Renamer`] applies, read backwards for models.
    pub(crate) back: Vec<(String, String)>,
    /// Parameter types in signature order.
    pub(crate) tys: Vec<Ty>,
    /// The placeholder-named signature canonical queries are solved under.
    pub(crate) canon_sig: FuncSig,
}

impl Renaming {
    pub(crate) fn of(sig: &FuncSig) -> Renaming {
        let mut back = Vec::new();
        let mut tys = Vec::new();
        for (i, (name, ty)) in sig.params().enumerate() {
            back.push((name.to_string(), format!("%{i}")));
            tys.push(ty);
        }
        let canon_sig =
            FuncSig::from_pairs(back.iter().map(|(_, ph)| ph.clone()).zip(tys.iter().copied()));
        Renaming { back, tys, canon_sig }
    }

    /// Canonicalizes one predicate under this renaming, straight to its
    /// interned handle.
    pub(crate) fn canon_one(&self, p: &Pred) -> CPred {
        canon_cpred(&Renamer(&self.back).rewrite_pred(p))
    }
}

impl CanonQuery {
    /// Canonicalizes a query: α-rename to positional placeholders, apply
    /// [`canon_pred`], sort, de-duplicate, and drop trivial truths.
    pub fn build(preds: &[Pred], sig: &FuncSig) -> CanonQuery {
        let renaming = Renaming::of(sig);
        let mut canon: Vec<CPred> = preds.iter().map(|p| renaming.canon_one(p)).collect();
        canon.sort();
        canon.dedup();
        let truth = CanonPred::Const(true).intern();
        canon.retain(|p| *p != truth);
        CanonQuery { preds: canon, renaming }
    }

    /// The cache key of this query under `cfg`, its hash digest fixed.
    pub fn key(&self, cfg: &SolverConfig) -> CacheKey {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.preds.hash(&mut h);
        self.renaming.tys.hash(&mut h);
        cfg.budget_nodes.hash(&mut h);
        cfg.max_model_len.hash(&mut h);
        cfg.backend.hash(&mut h);
        CacheKey {
            preds: self.preds.as_slice().into(),
            tys: self.renaming.tys.as_slice().into(),
            budget_nodes: cfg.budget_nodes,
            max_model_len: cfg.max_model_len,
            backend: cfg.backend,
            hash: h.finish(),
        }
    }

    /// The canonical conjuncts.
    pub fn canon_preds(&self) -> &[CPred] {
        &self.preds
    }

    /// The placeholder-named signature the canonical query is solved under.
    pub fn canon_sig(&self) -> &FuncSig {
        &self.renaming.canon_sig
    }

    /// Holds a verdict on the canonical query by position: a model's value
    /// for placeholder `%i` goes to index `i`. A model missing a
    /// placeholder becomes `Unknown` (defensive — `build_model` always
    /// assigns every parameter).
    pub(crate) fn positional(&self, canonical: SolveResult) -> Verdict {
        match canonical {
            SolveResult::Sat(canon_state) => {
                let values: Option<Box<[InputValue]>> = self
                    .renaming
                    .back
                    .iter()
                    .map(|(_, placeholder)| canon_state.get(placeholder).cloned())
                    .collect();
                values.map_or(Verdict::Unknown, Verdict::Sat)
            }
            SolveResult::Unsat => Verdict::Unsat,
            SolveResult::Unknown => Verdict::Unknown,
        }
    }

    /// The caller's verdict: a positional model's value `i` is bound to the
    /// caller's `i`-th parameter name.
    pub(crate) fn named(&self, verdict: Verdict) -> SolveResult {
        match verdict {
            Verdict::Sat(values) => SolveResult::Sat(MethodEntryState::from_pairs(
                self.renaming.back.iter().map(|(caller, _)| caller.as_str()).zip(values.into_vec()),
            )),
            Verdict::Unsat => SolveResult::Unsat,
            Verdict::Unknown => SolveResult::Unknown,
        }
    }
}

/// Stable FNV-1a 64-bit hash of a canonical method rendering: the serving
/// router's key-affinity function.
///
/// The router feeds this the target function's pretty-printed source with
/// every parameter α-renamed to the same positional `%i` placeholders
/// [`Renaming`] assigns, so two methods that are α-equivalent — and
/// therefore produce identical [`CacheKey`]s for every solver query their
/// inference issues — also hash to the same shard. Routing by this hash
/// turns the per-process [`crate::SolverCache`] into a partitioned global
/// cache: every caller of the same method lands on the shard that already
/// holds its canonical verdicts.
///
/// FNV-1a is used (rather than `DefaultHasher`) because the value must be
/// stable across processes, runs, and Rust versions: the router and any
/// future client-side shard picker have to agree on it forever.
pub fn affinity_hash(canonical: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in canonical.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::pred::CmpOp;
    use symbolic::term::Term;

    fn sig_ab() -> FuncSig {
        FuncSig::from_pairs([("a", Ty::Int), ("b", Ty::Int)])
    }

    fn gt0(name: &str) -> Pred {
        Pred::cmp(CmpOp::Gt, Term::var(name), Term::int(0))
    }

    #[test]
    fn permutation_yields_same_key() {
        let cfg = SolverConfig::default();
        let q1 = CanonQuery::build(&[gt0("a"), gt0("b")], &sig_ab());
        let q2 = CanonQuery::build(&[gt0("b"), gt0("a")], &sig_ab());
        assert_eq!(q1.key(&cfg), q2.key(&cfg));
    }

    #[test]
    fn alpha_renaming_yields_same_key() {
        let cfg = SolverConfig::default();
        let q1 = CanonQuery::build(&[gt0("a"), gt0("b")], &sig_ab());
        let sig_xy = FuncSig::from_pairs([("x", Ty::Int), ("y", Ty::Int)]);
        let q2 = CanonQuery::build(&[gt0("x"), gt0("y")], &sig_xy);
        assert_eq!(q1.key(&cfg), q2.key(&cfg));
    }

    #[test]
    fn different_constraints_yield_different_keys() {
        let cfg = SolverConfig::default();
        let q1 = CanonQuery::build(&[gt0("a")], &sig_ab());
        let q2 = CanonQuery::build(&[gt0("b")], &sig_ab());
        assert_ne!(q1.key(&cfg), q2.key(&cfg), "a > 0 and b > 0 constrain different positions");
    }

    #[test]
    fn syntactic_variants_yield_same_key() {
        let cfg = SolverConfig::default();
        let q1 = CanonQuery::build(&[gt0("a")], &sig_ab());
        let flipped = Pred::cmp(CmpOp::Lt, Term::int(0), Term::var("a"));
        let q2 = CanonQuery::build(&[flipped, gt0("a")], &sig_ab());
        assert_eq!(q1.key(&cfg), q2.key(&cfg), "flip + duplicate canonicalize away");
    }

    #[test]
    fn budget_is_part_of_the_key() {
        let cfg = SolverConfig::default();
        let tight = SolverConfig { budget_nodes: 1, ..SolverConfig::default() };
        let q = CanonQuery::build(&[gt0("a")], &sig_ab());
        assert_ne!(q.key(&cfg), q.key(&tight));
    }

    #[test]
    fn backend_is_part_of_the_key() {
        let tiered = SolverConfig::default();
        let simplex = SolverConfig { backend: BackendKind::Simplex, ..SolverConfig::default() };
        let q = CanonQuery::build(&[gt0("a")], &sig_ab());
        assert_ne!(q.key(&tiered), q.key(&simplex), "tier attribution is backend-dependent");
    }

    #[test]
    fn canonical_model_renames_back() {
        let cfg = SolverConfig::default();
        let q = CanonQuery::build(&[gt0("a")], &sig_ab());
        let canonical = crate::builder::solve_fresh(&q, &cfg);
        let model = canonical.model().expect("a > 0 is satisfiable").clone();
        assert!(model.get("%0").is_some(), "canonical model binds placeholders");
        let verdict = q.positional(SolveResult::Sat(model.clone()));
        let Verdict::Sat(values) = &verdict else { panic!("still Sat: {verdict:?}") };
        assert_eq!(values.len(), 2, "one value per signature position");
        assert_eq!(Some(&values[0]), model.get("%0"));
        assert_eq!(Some(&values[1]), model.get("%1"));
        let back = q.named(verdict);
        let state = back.model().expect("still Sat");
        assert_eq!(state.get("a"), model.get("%0"));
        assert_eq!(state.get("b"), model.get("%1"));
        assert!(state.get("%0").is_none() && state.get("%1").is_none());
        assert_eq!(state.len(), 2);
        for plain in [SolveResult::Unsat, SolveResult::Unknown] {
            assert_eq!(q.named(q.positional(plain.clone())), plain);
        }
        let partial = MethodEntryState::from_pairs([("%0", InputValue::Int(1))]);
        assert_eq!(
            q.positional(SolveResult::Sat(partial)),
            Verdict::Unknown,
            "a model missing a placeholder is not held"
        );
    }
}
