//! The MiniLang value domain and *method-entry states*.
//!
//! A [`MethodEntryState`] (Definition 1 of the paper) is a concrete-value
//! assignment over the method inputs before invocation. It is deep and
//! immutable: path conditions and preconditions are predicates over entry
//! values, so evaluating them must be independent of any mutation the method
//! later performs. Strings are represented as vectors of character codes
//! (`char_at` observes them as `int`s).

use crate::ast::{Func, Ty};
use std::fmt;

/// A deep, immutable input value for one parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InputValue {
    Int(i64),
    Bool(bool),
    /// `None` is the null string.
    Str(Option<Vec<i64>>),
    /// `None` is the null array.
    ArrayInt(Option<Vec<i64>>),
    /// `None` is the null array; elements may themselves be null strings.
    ArrayStr(Option<Vec<Option<Vec<i64>>>>),
}

impl InputValue {
    /// The MiniLang type this value inhabits.
    pub fn ty(&self) -> Ty {
        match self {
            InputValue::Int(_) => Ty::Int,
            InputValue::Bool(_) => Ty::Bool,
            InputValue::Str(_) => Ty::Str,
            InputValue::ArrayInt(_) => Ty::ArrayInt,
            InputValue::ArrayStr(_) => Ty::ArrayStr,
        }
    }

    /// Whether this is a null reference value.
    pub fn is_null(&self) -> bool {
        matches!(
            self,
            InputValue::Str(None) | InputValue::ArrayInt(None) | InputValue::ArrayStr(None)
        )
    }

    /// A conventional default for a parameter type (zero / false / null),
    /// the seed the test generator starts from.
    pub fn default_for(ty: Ty) -> InputValue {
        match ty {
            Ty::Int => InputValue::Int(0),
            Ty::Bool => InputValue::Bool(false),
            Ty::Str => InputValue::Str(None),
            Ty::ArrayInt => InputValue::ArrayInt(None),
            Ty::ArrayStr => InputValue::ArrayStr(None),
            Ty::Void => unreachable!("void parameter"),
        }
    }

    /// Builds a string value from Rust text.
    pub fn str_from(text: &str) -> InputValue {
        InputValue::Str(Some(text.chars().map(|c| c as i64).collect()))
    }
}

impl fmt::Display for InputValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn str_repr(s: &Option<Vec<i64>>) -> String {
            match s {
                None => "null".to_string(),
                Some(cs) => {
                    let text: String = cs
                        .iter()
                        .map(|&c| char::from_u32(c.max(0) as u32).unwrap_or('\u{FFFD}'))
                        .collect();
                    format!("{text:?}")
                }
            }
        }
        match self {
            InputValue::Int(v) => write!(f, "{v}"),
            InputValue::Bool(b) => write!(f, "{b}"),
            InputValue::Str(s) => write!(f, "{}", str_repr(s)),
            InputValue::ArrayInt(None) => write!(f, "null"),
            InputValue::ArrayInt(Some(v)) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            InputValue::ArrayStr(None) => write!(f, "null"),
            InputValue::ArrayStr(Some(v)) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", str_repr(x))?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A concrete-value assignment over a method's parameters (Definition 1).
///
/// Stored as a vector of `(name, value)` pairs sorted by name, one pair
/// per name: a state binds a handful of parameters, and one small vector
/// costs far less than a `BTreeMap` leaf. The vector holds exactly the
/// sequence a name-keyed map would iterate, so the derived `Eq`, `Ord`
/// and `Hash` and the `Display` rendering are those of the map
/// (DESIGN.md §5e).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MethodEntryState {
    values: Vec<(String, InputValue)>,
}

impl MethodEntryState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a state assigning each parameter name its value, in order.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (impl Into<String>, InputValue)>) -> Self {
        let pairs = pairs.into_iter();
        let mut s = MethodEntryState { values: Vec::with_capacity(pairs.size_hint().0) };
        for (k, v) in pairs {
            s.set(k, v);
        }
        s
    }

    /// The all-defaults seed state for a function's signature.
    pub fn seed_for(func: &Func) -> Self {
        Self::from_pairs(
            func.params.iter().map(|p| (p.name.clone(), InputValue::default_for(p.ty))),
        )
    }

    /// Sets (or replaces) one assignment.
    pub fn set(&mut self, name: impl Into<String>, value: InputValue) {
        let name = name.into();
        match self.position(&name) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (name, value)),
        }
    }

    /// Looks up one assignment.
    pub fn get(&self, name: &str) -> Option<&InputValue> {
        self.position(name).ok().map(|i| &self.values[i].1)
    }

    /// Iterates assignments in parameter-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &InputValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Checks that the state assigns exactly the parameters of `func` with
    /// values of matching types.
    pub fn conforms_to(&self, func: &Func) -> bool {
        func.params.len() == self.values.len()
            && func
                .params
                .iter()
                .all(|p| self.get(&p.name).map(|v| v.ty() == p.ty).unwrap_or(false))
    }

    /// Where `name` is bound (`Ok`), or where it would be inserted (`Err`).
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.values.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }
}

impl fmt::Display for MethodEntryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn defaults_match_types() {
        assert_eq!(InputValue::default_for(Ty::Int), InputValue::Int(0));
        assert!(InputValue::default_for(Ty::Str).is_null());
        assert!(InputValue::default_for(Ty::ArrayStr).is_null());
    }

    #[test]
    fn seed_conforms() {
        let p = parse_program("fn f(a [str], n int, b bool) { return; }").unwrap();
        let f = p.func("f").unwrap();
        let s = MethodEntryState::seed_for(f);
        assert!(s.conforms_to(f));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn conformance_rejects_type_mismatch() {
        let p = parse_program("fn f(n int) { return; }").unwrap();
        let f = p.func("f").unwrap();
        let s = MethodEntryState::from_pairs([("n", InputValue::Bool(true))]);
        assert!(!s.conforms_to(f));
    }

    #[test]
    fn display_is_paperlike() {
        let s = MethodEntryState::from_pairs([
            ("a".to_string(), InputValue::Int(1)),
            ("s".to_string(), InputValue::ArrayStr(Some(vec![None]))),
        ]);
        assert_eq!(s.to_string(), "(a: 1, s: [null])");
    }

    #[test]
    fn str_from_round_trips_len() {
        let InputValue::Str(Some(cs)) = InputValue::str_from("ab c") else { panic!() };
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[2], 32);
    }
}
