//! The solver cache holds each canonical verdict by signature position and
//! binds it to the asker's parameter names on a hit. These tests store a
//! verdict under one naming of a 12-parameter signature and hit it through
//! an α-renamed one: every caller name must get the value a cache-free
//! solve returns. Twelve parameters make the placeholders sort unlike
//! their positions (`%10` and `%11` sort before `%2`), and the signature
//! mixes every non-boolean parameter type.

use minilang::{InputValue, Ty};
use solver::{solve_preds_with, CacheLookup, FuncSig, SolveResult, SolverCache, SolverConfig};
use symbolic::{CmpOp, Place, Pred, Term};

const TYS: [Ty; 4] = [Ty::Int, Ty::Str, Ty::ArrayInt, Ty::ArrayStr];

/// Parameter `i` is named `prefix` + `i`, typed `TYS[i % 4]`.
fn names(prefix: &str) -> Vec<String> {
    (0..12).map(|i| format!("{prefix}{i}")).collect()
}

fn sig(names: &[String]) -> FuncSig {
    FuncSig::from_pairs(names.iter().enumerate().map(|(i, n)| (n.clone(), TYS[i % 4])))
}

/// One satisfiable constraint group per parameter, distinct per position
/// so a value bound to the wrong name shows.
fn sat_preds(names: &[String]) -> Vec<Pred> {
    let mut preds = Vec::new();
    for (i, n) in names.iter().enumerate() {
        let k = i as i64;
        let place = Place::param(n.clone());
        match TYS[i % 4] {
            Ty::Int => preds.push(Pred::cmp(CmpOp::Eq, Term::var(n.clone()), Term::int(k - 5))),
            Ty::Str => {
                preds.push(Pred::cmp(CmpOp::Eq, Term::len(place), Term::int(k / 4 + 1)));
                let c0 = Term::char_at(place, Term::int(0));
                preds.push(Pred::cmp(CmpOp::Eq, c0, Term::int(98 + k)));
            }
            Ty::ArrayInt => {
                preds.push(Pred::cmp(CmpOp::Eq, Term::len(place), Term::int(2)));
                let a1 = Term::int_elem(place, Term::int(1));
                preds.push(Pred::cmp(CmpOp::Eq, a1, Term::int(-k)));
            }
            _ => {
                let elem = Place::elem(place, 0);
                preds.push(Pred::cmp(CmpOp::Eq, Term::len(place), Term::int(k / 4 + 1)));
                preds.push(Pred::cmp(CmpOp::Eq, Term::len(elem), Term::int(k / 4)));
            }
        }
    }
    preds
}

/// Solves `preds` once through `cache` and once cache-free, asserting the
/// two agree, and returns the cached answer and its lookup.
fn solve_both(preds: &[Pred], sig: &FuncSig, cache: &SolverCache) -> (SolveResult, CacheLookup) {
    let cfg = SolverConfig::default();
    let (cached, lookup) = solve_preds_with(preds, sig, &cfg, Some(cache));
    let (fresh, bypass) = solve_preds_with(preds, sig, &cfg, None);
    assert_eq!(bypass, CacheLookup::Bypass);
    assert_eq!(cached, fresh, "cached ({lookup:?}) and cache-free verdicts differ");
    (cached, lookup)
}

#[test]
fn sat_verdict_round_trips_through_an_alpha_renamed_signature() {
    let cache = SolverCache::new();
    let (p, q) = (names("p"), names("q"));
    let (stored, first) = solve_both(&sat_preds(&p), &sig(&p), &cache);
    let (hit, second) = solve_both(&sat_preds(&q), &sig(&q), &cache);
    assert_eq!((first, second), (CacheLookup::Miss, CacheLookup::Hit));
    let (stored, hit) = (stored.model().expect("sat"), hit.model().expect("sat"));
    assert_eq!(hit.len(), 12);
    for i in 0..12 {
        let value = hit.get(&q[i]).unwrap_or_else(|| panic!("{} unbound in {hit}", q[i]));
        assert_eq!(Some(value), stored.get(&p[i]), "position {i}");
        assert_eq!(value.ty(), TYS[i % 4]);
    }
    assert_eq!(hit.get("q0"), Some(&InputValue::Int(-5)));
    assert_eq!(hit.get("q10"), Some(&InputValue::ArrayInt(Some(vec![0, -10]))));
    assert_eq!(hit.get("q11").map(|v| v.to_string()).as_deref(), Some(r#"["aa", null, null]"#));
    let Some(InputValue::Str(Some(q9))) = hit.get("q9") else { panic!("q9: {hit}") };
    assert_eq!(q9[0], 98 + 9);
}

#[test]
fn unsat_and_unknown_verdicts_round_trip_too() {
    let cache = SolverCache::new();
    let (p, q) = (names("p"), names("q"));
    let unsat = |n: &[String]| {
        vec![
            Pred::cmp(CmpOp::Gt, Term::var(n[4].clone()), Term::int(5)),
            Pred::cmp(CmpOp::Lt, Term::var(n[4].clone()), Term::int(3)),
        ]
    };
    // Out of the 48-bit range the simplex tier decides over.
    let unknown = |n: &[String]| {
        let sum = Term::var(n[0].clone()).add(Term::var(n[8].clone()));
        vec![Pred::cmp(CmpOp::Le, sum, Term::int(i64::MIN))]
    };
    for (preds, want) in
        [(unsat as fn(&[String]) -> Vec<Pred>, SolveResult::Unsat), (unknown, SolveResult::Unknown)]
    {
        let (stored, first) = solve_both(&preds(&p), &sig(&p), &cache);
        let (hit, second) = solve_both(&preds(&q), &sig(&q), &cache);
        assert_eq!((first, second), (CacheLookup::Miss, CacheLookup::Hit));
        assert_eq!((stored, hit), (want.clone(), want));
    }
}
