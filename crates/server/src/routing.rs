//! Canonical method rendering: the key the router shards by.
//!
//! The canonical rendering of an `infer` request's target method is its
//! pretty-printed source with every parameter α-renamed to the positional
//! `%i` placeholders `solver::canon` uses — so two α-equivalent entry
//! functions share one canonical text, one [`solver::affinity_hash`] and
//! one shard, whose solver cache then holds the verdicts they share. The
//! key covers the entry function alone, not its callees, so it is an
//! affinity hint, never a method identity: two programs with the same
//! entry function and different callees can infer different ψ. `%` cannot
//! begin a MiniLang identifier, so placeholders never collide with real
//! names, and string literals are skipped by the renamer so a parameter
//! name appearing inside one is left alone.
//!
//! The hash must be stable across processes (router and shards agree on
//! it forever), which is why it is FNV-1a in `solver::canon` rather than
//! `DefaultHasher`.

use minilang::canonical_func_string;

/// A resolved canonical method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalMethod {
    /// The resolved entry-function name (the program's first function
    /// when the request named none).
    pub func: String,
    /// The α-renamed pretty-printed function source.
    pub canon: String,
}

/// Compiles `program`, resolves the entry function the same way the
/// service does (named, else first), and returns its canonical rendering.
/// `Err` carries a human-readable reason (compile error, missing
/// function, empty program).
pub fn canonical_method(program: &str, func: Option<&str>) -> Result<CanonicalMethod, String> {
    let typed = minilang::compile(program)?;
    let f = typed.program().entry(func, "program")?;
    Ok(CanonicalMethod { func: f.name.clone(), canon: canonical_func_string(f) })
}

/// The shard index an `infer` request routes to. Uncompilable programs
/// (which every shard would answer with the same `compile_error`) fall
/// back to hashing the raw `(program, func)` text so routing stays
/// deterministic and spread.
pub fn shard_of(program: &str, func: Option<&str>, shards: usize) -> usize {
    let h = match canonical_method(program, func) {
        Ok(m) => solver::affinity_hash(&m.canon),
        Err(_) => solver::affinity_hash(&format!("!{}\u{0}{}", func.unwrap_or(""), program)),
    };
    (h % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_equivalent_methods_share_a_canonical_text() {
        let a = canonical_method("fn f(x int, y int) -> int { return x / y; }", None).unwrap();
        let b = canonical_method("fn f(p int, q int) -> int { return p / q; }", Some("f")).unwrap();
        assert_eq!(a, b);
        assert!(a.canon.contains("%0") && a.canon.contains("%1"));
        assert_eq!(a.func, "f");
    }

    #[test]
    fn argument_order_distinguishes_methods() {
        let a = canonical_method("fn f(x int, y int) -> int { return x / y; }", None).unwrap();
        let b = canonical_method("fn f(y int, x int) -> int { return x / y; }", None).unwrap();
        assert_ne!(a.canon, b.canon, "positional renaming keeps distinct methods distinct");
    }

    #[test]
    fn entry_resolution_matches_the_service() {
        let two = "fn g(a int) -> int { return a; }\nfn h(b int) -> int { return b + 1; }";
        assert_eq!(canonical_method(two, None).unwrap().func, "g");
        assert_eq!(canonical_method(two, Some("h")).unwrap().func, "h");
        assert!(canonical_method(two, Some("nope")).is_err());
        assert!(canonical_method("fn broken(", None).is_err());
    }

    #[test]
    fn string_literals_are_not_renamed() {
        let m = canonical_method(
            "fn f(x int) -> str { if (x > 0) { return \"x\"; } return null; }",
            None,
        )
        .unwrap();
        assert!(m.canon.contains("\"x\""), "literal preserved: {}", m.canon);
        assert!(m.canon.contains("%0 >"), "parameter renamed: {}", m.canon);
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        let src = "fn f(x int) -> int { return 10 / x; }";
        let s1 = shard_of(src, None, 2);
        assert_eq!(s1, shard_of(src, None, 2), "stable");
        assert!(s1 < 2);
        assert!(shard_of("fn oops(", None, 3) < 3, "uncompilable still routes");
        // α-equivalent spelling routes identically.
        assert_eq!(s1, shard_of("fn f(z int) -> int { return 10 / z; }", None, 2));
    }
}
