//! Basic-block enumeration for coverage measurement.
//!
//! The paper's Table IV reports the *average block coverage* achieved by the
//! test generator on each evaluation subject. We approximate basic blocks by
//! `Block` AST nodes (function body, `then`/`else` branches, loop bodies,
//! `for`-desugaring scopes): each is entered as a unit, so visiting it marks
//! one coverage unit. The concolic executor reports visited block ids;
//! coverage is `visited / total`.

use crate::ast::*;
use crate::span::NodeId;

/// All block ids of a function, in syntactic order. The first entry is the
/// function body (always covered by any run that starts the function).
pub fn block_ids(func: &Func) -> Vec<NodeId> {
    let mut out = Vec::new();
    collect(&func.body, &mut out);
    out
}

fn collect(b: &Block, out: &mut Vec<NodeId>) {
    out.push(b.id);
    for s in &b.stmts {
        match &s.kind {
            StmtKind::If { then_blk, else_blk, .. } => {
                collect(then_blk, out);
                if let Some(e) = else_blk {
                    collect(e, out);
                }
            }
            StmtKind::While { body, .. } => collect(body, out),
            StmtKind::BlockStmt { block } => collect(block, out),
            _ => {}
        }
    }
}

/// Block coverage of one function execution set: `visited / total`, in
/// percent. Returns 100.0 for functions with no blocks (impossible: the body
/// always counts).
pub fn coverage_percent(
    total_blocks: &[NodeId],
    visited: &std::collections::HashSet<NodeId>,
) -> f64 {
    if total_blocks.is_empty() {
        return 100.0;
    }
    let hit = total_blocks.iter().filter(|b| visited.contains(b)).count();
    100.0 * hit as f64 / total_blocks.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use std::collections::HashSet;

    #[test]
    fn counts_blocks_in_nested_structure() {
        let src = "
            fn f(x int) -> int {
                if (x > 0) {
                    while (x > 10) { x = x - 1; }
                } else {
                    x = 0;
                }
                return x;
            }";
        let p = parse_program(src).unwrap();
        let ids = block_ids(p.func("f").unwrap());
        // body, then, while-body, else
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn for_desugaring_adds_scope_block() {
        let src = "fn f(n int) { for (let i = 0; i < n; i = i + 1) { } }";
        let p = parse_program(src).unwrap();
        let ids = block_ids(p.func("f").unwrap());
        // body, for-scope block, while-body
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn coverage_math() {
        let src = "fn f(x int) -> int { if (x > 0) { return 1; } return 0; }";
        let p = parse_program(src).unwrap();
        let ids = block_ids(p.func("f").unwrap());
        assert_eq!(ids.len(), 2);
        let mut visited = HashSet::new();
        visited.insert(ids[0]);
        assert!((coverage_percent(&ids, &visited) - 50.0).abs() < 1e-9);
        visited.insert(ids[1]);
        assert!((coverage_percent(&ids, &visited) - 100.0).abs() < 1e-9);
    }
}
