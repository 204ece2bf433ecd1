//! Static call graph of a MiniLang [`Program`].
//!
//! Interprocedural summary inference needs to know, for an entry function,
//! which user functions it (transitively) calls, in what order to infer
//! them (callees before callers), and which of them participate in
//! recursion (those fall back to inlining — a summary for a recursive
//! function would have to be a fixpoint, which the bottom-up pass does not
//! compute). The graph is purely syntactic: one node per function, one
//! edge per distinct `Call { name }` target. Builtin calls are not edges.

use crate::ast::{Block, Expr, ExprKind, Program, Stmt, StmtKind};
use std::collections::HashMap;

/// The call graph of a program, with strongly connected components
/// precomputed (Tarjan) so recursion queries are O(1).
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Function names, in program order.
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// `edges[i]` = indices of user functions called by function `i`,
    /// deduplicated, in first-occurrence order.
    edges: Vec<Vec<usize>>,
    /// `scc_of[i]` = component id of function `i`. Component ids are
    /// assigned in Tarjan completion order, which is reverse topological:
    /// if `f` calls `g` (and they are in different components) then
    /// `scc_of[g] < scc_of[f]`.
    scc_of: Vec<usize>,
    /// Number of members per component.
    scc_size: Vec<usize>,
    /// Whether function `i` calls itself directly.
    self_loop: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph of `program`.
    pub fn of(program: &Program) -> CallGraph {
        let names: Vec<String> = program.funcs.iter().map(|f| f.name.clone()).collect();
        let index: HashMap<String, usize> =
            names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        let mut edges = vec![Vec::new(); names.len()];
        let mut self_loop = vec![false; names.len()];
        for (i, f) in program.funcs.iter().enumerate() {
            let mut targets = Vec::new();
            collect_block_calls(&f.body, &mut targets);
            // A call to a name that is not a program function is no edge
            // (the type checker rejects such programs).
            for &j in targets.iter().filter_map(|t| index.get(t)) {
                if j == i {
                    self_loop[i] = true;
                }
                if !edges[i].contains(&j) {
                    edges[i].push(j);
                }
            }
        }
        let (scc_of, scc_size) = tarjan(&edges);
        CallGraph { names, index, edges, scc_of, scc_size, self_loop }
    }

    /// Whether `name` participates in recursion: it calls itself, or it
    /// belongs to a strongly connected component with more than one member.
    pub fn is_recursive(&self, name: &str) -> bool {
        match self.index.get(name) {
            Some(&i) => self.self_loop[i] || self.scc_size[self.scc_of[i]] > 1,
            None => false,
        }
    }

    /// Functions reachable from `entry` (excluding `entry` itself unless it
    /// is reachable through a cycle), in bottom-up order: every function
    /// appears after all the functions it calls, except within recursive
    /// components where the order is arbitrary. Unknown entries yield an
    /// empty list.
    pub fn bottom_up_from(&self, entry: &str) -> Vec<String> {
        let Some(&start) = self.index.get(entry) else { return Vec::new() };
        // DFS reachability from the entry's callees.
        let mut reachable = vec![false; self.names.len()];
        let mut stack: Vec<usize> = self.edges[start].clone();
        while let Some(i) = stack.pop() {
            if reachable[i] {
                continue;
            }
            reachable[i] = true;
            for &j in &self.edges[i] {
                if !reachable[j] {
                    stack.push(j);
                }
            }
        }
        // Component ids are reverse topological, so sorting by component id
        // (then program order within a component) is a bottom-up order.
        let mut out: Vec<usize> = (0..self.names.len()).filter(|&i| reachable[i]).collect();
        out.sort_by_key(|&i| (self.scc_of[i], i));
        out.into_iter().map(|i| self.names[i].clone()).collect()
    }
}

fn collect_block_calls(b: &Block, out: &mut Vec<String>) {
    for s in &b.stmts {
        collect_stmt_calls(s, out);
    }
}

fn collect_stmt_calls(s: &Stmt, out: &mut Vec<String>) {
    match &s.kind {
        StmtKind::Let { init, .. } => collect_expr_calls(init, out),
        StmtKind::Assign { target, value } => {
            if let crate::ast::AssignTarget::Index { array, index } = target {
                collect_expr_calls(array, out);
                collect_expr_calls(index, out);
            }
            collect_expr_calls(value, out);
        }
        StmtKind::If { cond, then_blk, else_blk } => {
            collect_expr_calls(cond, out);
            collect_block_calls(then_blk, out);
            if let Some(e) = else_blk {
                collect_block_calls(e, out);
            }
        }
        StmtKind::While { cond, body } => {
            collect_expr_calls(cond, out);
            collect_block_calls(body, out);
        }
        StmtKind::Assert { cond } => collect_expr_calls(cond, out),
        StmtKind::Return { value } => {
            if let Some(v) = value {
                collect_expr_calls(v, out);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Expr { expr } => collect_expr_calls(expr, out),
        StmtKind::BlockStmt { block } => collect_block_calls(block, out),
    }
}

fn collect_expr_calls(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::IntLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Null
        | ExprKind::Var(_) => {}
        ExprKind::Unary(_, inner) => collect_expr_calls(inner, out),
        ExprKind::Binary(_, l, r) => {
            collect_expr_calls(l, out);
            collect_expr_calls(r, out);
        }
        ExprKind::Index(a, i) => {
            collect_expr_calls(a, out);
            collect_expr_calls(i, out);
        }
        ExprKind::Call { name, args } => {
            out.push(name.clone());
            for a in args {
                collect_expr_calls(a, out);
            }
        }
        ExprKind::BuiltinCall { args, .. } => {
            for a in args {
                collect_expr_calls(a, out);
            }
        }
    }
}

/// Iterative Tarjan SCC. Returns `(component id per node, component sizes)`;
/// component ids are assigned in completion order, i.e. reverse topological.
fn tarjan(edges: &[Vec<usize>]) -> (Vec<usize>, Vec<usize>) {
    const NONE: usize = usize::MAX;
    let n = edges.len();
    let mut idx = vec![NONE; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![NONE; n];
    let mut scc_size: Vec<usize> = Vec::new();
    let mut next_index = 0usize;

    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if idx[root] != NONE {
            continue;
        }
        frames.push((root, 0));
        idx[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < edges[v].len() {
                let w = edges[v][*child];
                *child += 1;
                if idx[w] == NONE {
                    idx[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(idx[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == idx[v] {
                    let comp = scc_size.len();
                    let mut size = 0;
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = comp;
                        size += 1;
                        if w == v {
                            break;
                        }
                    }
                    scc_size.push(size);
                }
            }
        }
    }
    (scc_of, scc_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn graph(src: &str) -> CallGraph {
        CallGraph::of(&parse_program(src).unwrap())
    }

    #[test]
    fn straight_line_chain_orders_bottom_up() {
        let g = graph(
            "fn entry(x int) -> int { return mid(x); }
             fn mid(y int) -> int { return leaf(y) + 1; }
             fn leaf(z int) -> int { assert(z > 0); return z; }",
        );
        assert_eq!(g.bottom_up_from("entry"), vec!["leaf".to_string(), "mid".to_string()]);
        assert!(!g.is_recursive("entry"));
        assert!(!g.is_recursive("leaf"));
    }

    #[test]
    fn diamond_visits_base_once_before_both_arms() {
        let g = graph(
            "fn entry(x int) -> int { return left(x) + right(x); }
             fn left(a int) -> int { return base(a); }
             fn right(b int) -> int { return base(b + 1); }
             fn base(c int) -> int { return 10 / c; }",
        );
        let order = g.bottom_up_from("entry");
        assert_eq!(order.len(), 3, "base listed once: {order:?}");
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("base") < pos("left"));
        assert!(pos("base") < pos("right"));
    }

    #[test]
    fn self_recursion_is_detected() {
        let g = graph(
            "fn f(n int) -> int { if (n <= 0) { return 0; } return n + f(n - 1); }
             fn g(n int) -> int { return f(n); }",
        );
        assert!(g.is_recursive("f"));
        assert!(!g.is_recursive("g"));
        assert_eq!(g.bottom_up_from("g"), vec!["f".to_string()]);
    }

    #[test]
    fn mutual_recursion_forms_one_scc() {
        let g = graph(
            "fn even(n int) -> bool { if (n == 0) { return true; } return odd(n - 1); }
             fn odd(n int) -> bool { if (n == 0) { return false; } return even(n - 1); }",
        );
        assert!(g.is_recursive("even"));
        assert!(g.is_recursive("odd"));
    }

    #[test]
    fn entry_reachable_through_cycle_includes_entry() {
        let g = graph(
            "fn a(n int) -> int { if (n <= 0) { return 0; } return b(n - 1); }
             fn b(n int) -> int { return a(n); }",
        );
        let order = g.bottom_up_from("a");
        assert!(order.contains(&"a".to_string()), "cycle back to entry: {order:?}");
        assert!(order.contains(&"b".to_string()));
    }

    #[test]
    fn calls_in_all_statement_positions_are_edges() {
        let g = graph(
            "fn h(x int) -> int { return x; }
             fn f(a [int], x int) -> int {
                 let v = h(x);
                 a[h(x)] = h(v);
                 if (h(x) > 0) { assert(h(x) != 2); }
                 while (h(v) < 0) { v = v + 1; }
                 return h(v);
             }",
        );
        assert_eq!(g.bottom_up_from("f"), vec!["h".to_string()]);
    }
}
