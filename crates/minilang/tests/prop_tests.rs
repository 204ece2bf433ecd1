//! Property-based tests for MiniLang: pretty-print/re-parse round trips on
//! generated expression trees, lexer totality on printable input, and the
//! sorted-vector `MethodEntryState` against a `BTreeMap` reference.

use minilang::ast::{BinOp, Block, Expr, ExprKind, Func, Param, Program, Stmt, StmtKind, Ty, UnOp};
use minilang::pretty::program_to_string;
use minilang::span::{NodeId, Span};
use minilang::{ast_eq, expr_to_string, parse_expr, parse_program, InputValue, MethodEntryState};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

fn mk(kind: ExprKind) -> Expr {
    Expr { kind, id: NodeId(0), span: Span::new(1, 1) }
}

fn mk_stmt(kind: StmtKind) -> Stmt {
    Stmt { kind, id: NodeId(0), span: Span::new(1, 1) }
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..=999).prop_map(|v| mk(ExprKind::IntLit(v))),
        proptest::bool::ANY.prop_map(|b| mk(ExprKind::BoolLit(b))),
        Just(mk(ExprKind::Null)),
        prop_oneof![Just("x"), Just("y"), Just("abc")]
            .prop_map(|n| mk(ExprKind::Var(n.to_string()))),
    ];
    leaf.prop_recursive(4, 40, 2, |inner| {
        let bin = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Rem),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::And),
            Just(BinOp::Or),
        ];
        prop_oneof![
            (bin, inner.clone(), inner.clone()).prop_map(|(op, l, r)| mk(ExprKind::Binary(
                op,
                Box::new(l),
                Box::new(r)
            ))),
            (prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)], inner.clone())
                .prop_map(|(op, e)| mk(ExprKind::Unary(op, Box::new(e)))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, i)| mk(ExprKind::Index(Box::new(a), Box::new(i)))),
            (proptest::collection::vec(inner, 0..3))
                .prop_map(|args| mk(ExprKind::Call { name: "helper".to_string(), args })),
        ]
    })
}

/// Int-valued expressions over the fixed parameters `x`/`y` whose interior
/// nodes include `Call`s into the fixed callee set `f0`/`f1`/`f2` — the
/// shapes interprocedural programs put through the printer.
fn call_expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..=99).prop_map(|v| mk(ExprKind::IntLit(v))),
        prop_oneof![Just("x"), Just("y")].prop_map(|n| mk(ExprKind::Var(n.to_string()))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul)],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| mk(ExprKind::Binary(
                    op,
                    Box::new(l),
                    Box::new(r)
                ))),
            (
                prop_oneof![Just("f0"), Just("f1"), Just("f2")],
                proptest::collection::vec(inner, 0..3)
            )
                .prop_map(|(name, args)| mk(ExprKind::Call { name: name.to_string(), args })),
        ]
    })
}

/// A function named `name` over `(x int, y int)` whose lets and return
/// value draw from [`call_expr_strategy`].
fn func_strategy(name: &'static str) -> impl Strategy<Value = Func> {
    let param =
        |n: &str| Param { name: n.to_string(), ty: Ty::Int, id: NodeId(0), span: Span::new(1, 1) };
    (proptest::collection::vec(call_expr_strategy(), 0..3), call_expr_strategy()).prop_map(
        move |(lets, ret)| {
            let mut stmts: Vec<Stmt> = lets
                .into_iter()
                .enumerate()
                .map(|(i, e)| mk_stmt(StmtKind::Let { name: format!("t{i}"), ty: None, init: e }))
                .collect();
            stmts.push(mk_stmt(StmtKind::Return { value: Some(ret) }));
            Func {
                name: name.to_string(),
                params: vec![param("x"), param("y")],
                ret: Ty::Int,
                body: Block { stmts, id: NodeId(0), span: Span::new(1, 1) },
                id: NodeId(0),
                span: Span::new(1, 1),
            }
        },
    )
}

proptest! {
    /// Print-then-parse preserves expression structure: the printer's
    /// parenthesization is compatible with the parser's precedence.
    #[test]
    fn expr_print_parse_roundtrip(e in expr_strategy()) {
        let printed = expr_to_string(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("printer produced unparseable {printed:?}: {err}"));
        prop_assert!(
            ast_eq::expr_eq(&e, &reparsed),
            "round trip changed structure:\n  original: {printed}\n  reparsed: {}",
            expr_to_string(&reparsed)
        );
    }

    /// The lexer never panics on arbitrary printable ASCII.
    #[test]
    fn lexer_is_total_on_printable(src in "[ -~]{0,60}") {
        let _ = minilang::token::lex(&src);
    }

    /// Multi-function programs whose bodies are built around `Call`
    /// expressions round-trip through the pretty-printer and parser
    /// structurally unchanged: argument lists, call nesting, and
    /// cross-function references all survive.
    #[test]
    fn program_with_calls_print_parse_roundtrip(
        f0 in func_strategy("f0"),
        f1 in func_strategy("f1"),
        f2 in func_strategy("f2"),
    ) {
        let program = Program::new(vec![f0, f1, f2], 0);
        let printed = program_to_string(&program);
        let reparsed = parse_program(&printed).unwrap_or_else(|err| {
            panic!("printer produced unparseable program:\n{printed}\nerror: {err:?}")
        });
        prop_assert_eq!(reparsed.funcs.len(), program.funcs.len());
        for (a, b) in program.funcs.iter().zip(&reparsed.funcs) {
            prop_assert!(
                ast_eq::func_eq(a, b),
                "round trip changed function {}:\n{printed}",
                a.name
            );
        }
    }
}

/// Parameter names that collide often and sort unlike their numbers
/// (`%10` before `%2`).
fn state_name() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..12).prop_map(|i| format!("%{i}")),
        prop_oneof![Just("a"), Just("b"), Just("key")].prop_map(str::to_string),
    ]
}

fn chars() -> impl Strategy<Value = Option<Vec<i64>>> {
    proptest::option::of(proptest::collection::vec(97i64..100, 0..3))
}

fn input_value() -> impl Strategy<Value = InputValue> {
    prop_oneof![
        (-2i64..=2).prop_map(InputValue::Int),
        proptest::bool::ANY.prop_map(InputValue::Bool),
        chars().prop_map(InputValue::Str),
        proptest::option::of(proptest::collection::vec(-2i64..=2, 0..3))
            .prop_map(InputValue::ArrayInt),
        proptest::option::of(proptest::collection::vec(chars(), 0..3))
            .prop_map(InputValue::ArrayStr),
    ]
}

fn set_sequence() -> impl Strategy<Value = Vec<(String, InputValue)>> {
    proptest::collection::vec((state_name(), input_value()), 0..8)
}

/// The name-keyed map `MethodEntryState` used to be, with its rendering.
fn reference_display(map: &BTreeMap<String, InputValue>) -> String {
    let body: Vec<String> = map.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    format!("({})", body.join(", "))
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The sorted-vector `MethodEntryState` is observationally the
    /// `BTreeMap` it replaced: after the same `set` sequence (repeated
    /// names replace), it iterates, looks up, counts, renders, orders and
    /// hashes as the map does.
    #[test]
    fn entry_state_matches_btreemap_reference(
        seqs in proptest::collection::vec(set_sequence(), 3),
    ) {
        let mut states = Vec::new();
        let mut maps = Vec::new();
        for seq in &seqs {
            let mut state = MethodEntryState::new();
            let mut map = BTreeMap::new();
            for (name, value) in seq {
                state.set(name.clone(), value.clone());
                map.insert(name.clone(), value.clone());
            }
            let got: Vec<_> = state.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
            let want: Vec<_> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(state.len(), map.len());
            prop_assert_eq!(state.is_empty(), map.is_empty());
            for name in (0..12).map(|i| format!("%{i}")).chain(["a", "b", "key", "z"].map(String::from)) {
                prop_assert_eq!(state.get(&name), map.get(&name), "{}", name);
            }
            prop_assert_eq!(state.to_string(), reference_display(&map));
            prop_assert_eq!(&MethodEntryState::from_pairs(seq.clone()), &state);
            prop_assert_eq!(hash_of(&state), hash_of(&map), "same hash stream as the map");
            states.push(state);
            maps.push(map);
        }
        for (x, rx) in states.iter().zip(&maps) {
            for (y, ry) in states.iter().zip(&maps) {
                prop_assert_eq!(x.cmp(y), rx.cmp(ry), "{} vs {}", x, y);
                prop_assert_eq!(x == y, rx == ry);
                if x == y {
                    prop_assert_eq!(hash_of(x), hash_of(y));
                }
            }
        }
    }
}
