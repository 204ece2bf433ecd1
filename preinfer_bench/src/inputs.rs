//! The pinned inputs: the method list in Zipf rank order and the ψ oracle.
//!
//! Both files are compiled in, so a build measures exactly the inputs it
//! was built with. Names resolve against the `subjects` corpus at run
//! time and the benchmark refuses to run when one no longer does, so new
//! corpus subjects cannot silently change a workload.

use std::collections::BTreeMap;

const METHODS_TXT: &str = include_str!("../workloads/methods.txt");
const PSI_REFERENCE_TXT: &str = include_str!("../workloads/psi_reference.txt");

/// One benchmark method with its expected inference outcome.
#[derive(Debug, Clone)]
pub struct Method {
    /// `Namespace::name`, as pinned in `methods.txt`.
    pub id: String,
    /// Entry function name.
    pub func: &'static str,
    /// Full MiniLang source (entry point plus helpers).
    pub source: &'static str,
    /// Expected `(ACL Debug rendering, ψ)` pairs, in ACL-id order.
    pub expected: Vec<(String, String)>,
}

impl Method {
    /// Whether an inference outcome matches the oracle exactly: the same
    /// ACLs, in the same order, each with a byte-identical ψ.
    pub fn matches<'a>(&self, got: impl IntoIterator<Item = (&'a str, &'a str)>) -> bool {
        let mut got = got.into_iter();
        for (acl, psi) in &self.expected {
            match got.next() {
                Some((a, p)) if a == acl && p == psi => {}
                _ => return false,
            }
        }
        got.next().is_none()
    }
}

/// Parses `methods.txt`: `#` comments, one `shuffle-seed: N` header, then
/// one `Namespace::name` per line in rank order.
pub fn parse_methods(text: &str) -> Result<(u64, Vec<String>), String> {
    let mut seed = None;
    let mut names = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        if let Some(v) = line.strip_prefix("shuffle-seed:") {
            seed = Some(v.trim().parse().map_err(|_| format!("bad shuffle-seed header `{line}`"))?);
        } else if names.iter().any(|n| n == line) {
            return Err(format!("method `{line}` is listed twice"));
        } else {
            names.push(line.to_string());
        }
    }
    let seed = seed.ok_or("methods list has no `shuffle-seed:` header")?;
    if names.is_empty() {
        return Err("methods list is empty".into());
    }
    Ok((seed, names))
}

/// Parses `psi_reference.txt`: `#` comments, `== Namespace::name` method
/// headers, and `<ACL>\t<ψ>` lines belonging to the preceding header.
pub fn parse_reference(text: &str) -> Result<BTreeMap<String, Vec<(String, String)>>, String> {
    let mut out: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(id) = line.strip_prefix("== ") {
            if out.insert(id.to_string(), Vec::new()).is_some() {
                return Err(format!("reference line {}: `{id}` appears twice", n + 1));
            }
            current = Some(id.to_string());
            continue;
        }
        let (acl, psi) =
            line.split_once('\t').ok_or(format!("reference line {}: no tab separator", n + 1))?;
        let id =
            current.as_ref().ok_or(format!("reference line {}: ACL before any method", n + 1))?;
        out.get_mut(id).expect("inserted with its header").push((acl.to_string(), psi.to_string()));
    }
    Ok(out)
}

/// The pinned methods, in rank order, resolved against the corpus and
/// paired with their expected ψ.
pub fn load() -> Result<Vec<Method>, String> {
    let (_, names) = parse_methods(METHODS_TXT)?;
    let mut reference = parse_reference(PSI_REFERENCE_TXT)?;
    let mut corpus = subjects::all_subjects();
    corpus.push(subjects::motivating::motivating());
    names
        .into_iter()
        .map(|id| {
            let m = corpus
                .iter()
                .find(|m| format!("{}::{}", m.namespace, m.name) == id)
                .ok_or(format!("pinned method `{id}` no longer resolves in the corpus"))?;
            let expected =
                reference.remove(&id).ok_or(format!("no ψ reference for pinned method `{id}`"))?;
            Ok(Method { id, func: m.name, source: m.source, expected })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{shuffle, Rng};

    #[test]
    fn pinned_order_is_the_header_seeds_shuffle() {
        let (seed, names) = parse_methods(METHODS_TXT).unwrap();
        let mut expect = names.clone();
        expect.sort();
        shuffle(&mut expect, &mut Rng::new(seed));
        assert_eq!(names, expect);
    }

    #[test]
    fn every_pinned_method_resolves_with_a_reference() {
        let methods = load().unwrap();
        assert_eq!(methods.len(), 82);
        assert!(methods.iter().any(|m| m.id == "Motivating::example"));
        assert!(methods.iter().any(|m| m.expected.is_empty()), "a method with no ACLs");
    }

    #[test]
    fn methods_parser_rejects_malformed_lists() {
        assert_eq!(
            parse_methods("# c\nshuffle-seed: 9\nA::f\nB::g\n").unwrap(),
            (9, vec!["A::f".into(), "B::g".into()])
        );
        assert!(parse_methods("A::f\n").is_err(), "missing seed header");
        assert!(parse_methods("shuffle-seed: x\nA::f\n").is_err());
        assert!(parse_methods("shuffle-seed: 1\nA::f\nA::f\n").is_err(), "duplicate");
        assert!(parse_methods("shuffle-seed: 1\n").is_err(), "empty");
    }

    #[test]
    fn reference_parser_groups_acls_under_their_method() {
        let r = parse_reference("# c\n== A::f\nacl1\tx != 0\nacl2\ty > 0\n== B::g\n").unwrap();
        assert_eq!(
            r["A::f"],
            vec![("acl1".into(), "x != 0".into()), ("acl2".into(), "y > 0".into())]
        );
        assert!(r["B::g"].is_empty());
        assert!(parse_reference("acl\tpsi\n").is_err(), "ACL before a method");
        assert!(parse_reference("== A::f\nno tab\n").is_err());
        assert!(parse_reference("== A::f\n== A::f\n").is_err(), "duplicate method");
    }

    #[test]
    fn matching_requires_the_same_acls_in_order() {
        let m = Method {
            id: "A::f".into(),
            func: "f",
            source: "",
            expected: vec![("a1".into(), "p1".into()), ("a2".into(), "p2".into())],
        };
        assert!(m.matches([("a1", "p1"), ("a2", "p2")]));
        assert!(!m.matches([("a1", "p1")]), "missing ACL");
        assert!(!m.matches([("a1", "p1"), ("a2", "p2"), ("a3", "p3")]), "extra ACL");
        assert!(!m.matches([("a2", "p2"), ("a1", "p1")]), "order");
        assert!(!m.matches([("a1", "p1"), ("a2", "p2 ")]), "ψ must be byte-identical");
    }
}
