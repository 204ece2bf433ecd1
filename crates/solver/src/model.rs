//! Model construction: concretizing an integer assignment plus nullness
//! and boolean decisions into a [`MethodEntryState`].
//!
//! Shared by every tier that answers `Sat` — the interval tier and the
//! simplex tier build models through the *same* code over the same maps,
//! which is half of the byte-identical-model guarantee the backend
//! differential tests rely on (the other half is that both tiers compute
//! the same assignment in the first place).

use crate::theory::{FuncSig, SolverConfig};
use minilang::{InputValue, MethodEntryState, Ty};
use std::collections::{BTreeMap, HashMap};
use symbolic::linform::Monomial;
use symbolic::term::{Place, SymVar, SymVarNode, Term};

/// Builds a concrete entry state from the solved assignment. `None` when a
/// model cannot be materialized (negative or oversized lengths, `Void`
/// parameters) — callers report `Unknown`, never a bad model.
pub(crate) fn build_model(
    sig: &FuncSig,
    assign: &HashMap<Monomial, i64>,
    nulls: &BTreeMap<Place, bool>,
    bools: &BTreeMap<String, bool>,
    cfg: &SolverConfig,
) -> Option<MethodEntryState> {
    let mut state = MethodEntryState::new();
    for (name, ty) in sig.params() {
        let place = Place::param(name);
        let value = match ty {
            Ty::Int => InputValue::Int(lookup_int(assign, &SymVar::int(name))),
            Ty::Bool => InputValue::Bool(bools.get(name).copied().unwrap_or(false)),
            Ty::Str => InputValue::Str(build_str(&place, assign, nulls, cfg)?),
            Ty::ArrayInt => {
                if is_null(&place, nulls) {
                    InputValue::ArrayInt(None)
                } else {
                    let len = place_len(&place, assign, cfg)?;
                    let mut items = vec![0i64; len];
                    for (k, slot) in items.iter_mut().enumerate() {
                        let var = SymVarNode::IntElem(place, Term::int(k as i64)).intern();
                        if let Some(&v) = assign.get(&Monomial::Var(var)) {
                            *slot = v;
                        }
                    }
                    InputValue::ArrayInt(Some(items))
                }
            }
            Ty::ArrayStr => {
                if is_null(&place, nulls) {
                    InputValue::ArrayStr(None)
                } else {
                    let len = place_len(&place, assign, cfg)?;
                    let mut items = Vec::with_capacity(len);
                    for k in 0..len {
                        let elem = Place::elem(place, k as i64);
                        items.push(build_str(&elem, assign, nulls, cfg)?);
                    }
                    InputValue::ArrayStr(Some(items))
                }
            }
            Ty::Void => return None,
        };
        state.set(name, value);
    }
    Some(state)
}

fn is_null(place: &Place, nulls: &BTreeMap<Place, bool>) -> bool {
    // Undecided places default to null — the smallest model, matching the
    // test generator's all-defaults seed.
    nulls.get(place).copied().unwrap_or(true)
}

fn lookup_int(assign: &HashMap<Monomial, i64>, v: &SymVar) -> i64 {
    assign.get(&Monomial::Var(*v)).copied().unwrap_or(0)
}

fn place_len(place: &Place, assign: &HashMap<Monomial, i64>, cfg: &SolverConfig) -> Option<usize> {
    let len = lookup_int(assign, &SymVarNode::Len(*place).intern());
    if len < 0 || len > cfg.max_model_len {
        return None;
    }
    Some(len as usize)
}

fn build_str(
    place: &Place,
    assign: &HashMap<Monomial, i64>,
    nulls: &BTreeMap<Place, bool>,
    cfg: &SolverConfig,
) -> Option<Option<Vec<i64>>> {
    if is_null(place, nulls) {
        return Some(None);
    }
    let len = place_len(place, assign, cfg)?;
    let mut chars = vec![97i64; len]; // default: 'a'
    for (k, slot) in chars.iter_mut().enumerate() {
        let var = SymVarNode::Char(*place, Term::int(k as i64)).intern();
        if let Some(&v) = assign.get(&Monomial::Var(var)) {
            *slot = v;
        }
    }
    Some(Some(chars))
}
