//! The eight per-file rules, matched over token trees and the AST
//! rather than over source text, so that:
//!
//! * tokens split across lines (`.unwrap\n()`, `x as\n    u64`) are
//!   seen as one construct;
//! * identifier boundaries are exact (`LinkedHashMap` is not a
//!   `HashMap`; `SystemTimeline` is not `SystemTime`);
//! * `use std::thread::spawn; spawn(..)` and aliased imports are
//!   resolved through the file's `use`-map;
//! * `match` arms come from the parser, not a brace-depth heuristic.

use crate::ast::{self, Expr, ExprKind, File, ItemKind, UseEntry};
use crate::lexer::CleanFile;
use crate::parser::{Span, Tree};
use crate::rules::{Finding, Rule, WATCHED_ENUMS};

/// Panicking macro names for [`Rule::NoPanic`].
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Numeric cast targets for [`Rule::BareCast`] (`u8` stays exempt: it
/// is the byte type, not a unit).
const CAST_TARGETS: [&str; 9] = [
    "u16", "u32", "u64", "u128", "usize", "i64", "i128", "f32", "f64",
];

/// Runs one per-file rule. The workspace-wide passes (taint, units,
/// concurrency, hotpath) need the cross-file index and yield nothing
/// here; `scan_workspace` runs them.
pub fn run(rule: Rule, clean: &CleanFile, trees: &[Tree], file: &File) -> Vec<Finding> {
    match rule {
        Rule::NoPanic => no_panic(clean, trees),
        Rule::NondeterministicCollection => nondeterministic_collection(clean, trees),
        Rule::WallClock => wall_clock(clean, trees),
        Rule::BareCast => bare_cast(clean, trees),
        Rule::EnumWildcard => enum_wildcard(clean, file),
        Rule::LetUnderscoreResult => let_underscore_result(clean, trees),
        Rule::NoPrintlnInLib => no_println_in_lib(clean, trees),
        Rule::ThreadSpawn => thread_spawn(clean, trees, file),
        Rule::NondetTaint
        | Rule::UnitMismatch
        | Rule::AtomicOrdering
        | Rule::LockOrder
        | Rule::HotPathAlloc => Vec::new(),
    }
}

fn in_test(clean: &CleanFile, span: Span) -> bool {
    clean
        .lines
        .get(span.line.saturating_sub(1))
        .is_some_and(|l| l.in_test)
}

fn push(findings: &mut Vec<Finding>, clean: &CleanFile, rule: Rule, span: Span, message: String) {
    if !in_test(clean, span) {
        findings.push(Finding {
            rule,
            line: span.line,
            col: span.col,
            message,
        });
    }
}

/// `.unwrap()`, `.expect(..)` and the panicking macros.
pub fn no_panic(clean: &CleanFile, trees: &[Tree]) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            if t.is_punct(".") {
                let (Some(name), Some(g)) = (
                    slice.get(i + 1).and_then(Tree::ident),
                    slice.get(i + 2).and_then(|t| t.group_of('(')),
                ) else {
                    continue;
                };
                let hit = match name {
                    "unwrap" => g.children.is_empty(),
                    "expect" => true,
                    _ => false,
                };
                if hit {
                    let shown = if name == "unwrap" {
                        "unwrap()"
                    } else {
                        "expect"
                    };
                    push(
                        &mut findings,
                        clean,
                        Rule::NoPanic,
                        t.span(),
                        format!(
                            "`{shown}` can panic; return a typed error or use a non-panicking accessor"
                        ),
                    );
                }
            } else if let Some(name) = t.ident() {
                if PANIC_MACROS.contains(&name)
                    && slice.get(i + 1).is_some_and(|n| n.is_punct("!"))
                    && slice.get(i + 2).is_some_and(|n| n.group().is_some())
                {
                    push(
                        &mut findings,
                        clean,
                        Rule::NoPanic,
                        t.span(),
                        format!(
                            "`{name}!` can panic; return a typed error or use a non-panicking accessor"
                        ),
                    );
                }
            }
        }
    });
    findings
}

/// Wall-clock and OS-entropy constructs.
pub fn wall_clock(clean: &CleanFile, trees: &[Tree]) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            let token = match name {
                "SystemTime" => Some("SystemTime"),
                "thread_rng" => Some("thread_rng"),
                "from_entropy" => Some("from_entropy"),
                "Instant"
                    if slice.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && slice.get(i + 2).and_then(Tree::ident) == Some("now") =>
                {
                    Some("Instant::now")
                }
                _ => None,
            };
            if let Some(tok) = token {
                push(
                    &mut findings,
                    clean,
                    Rule::WallClock,
                    t.span(),
                    format!(
                        "`{tok}` breaks reproducibility; simulators must use simulated time and seeded RNGs"
                    ),
                );
            }
        }
    });
    findings
}

/// `HashMap`/`HashSet` mentions in simulator-state crates.
pub fn nondeterministic_collection(clean: &CleanFile, trees: &[Tree]) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(trees, &mut |slice| {
        for t in slice {
            let Some(name) = t.ident() else { continue };
            if name == "HashMap" || name == "HashSet" {
                push(
                    &mut findings,
                    clean,
                    Rule::NondeterministicCollection,
                    t.span(),
                    format!(
                        "`{name}` iteration order is nondeterministic; use `BTree{}` or a sorted drain",
                        &name[4..]
                    ),
                );
            }
        }
    });
    findings
}

/// Bare `as <numeric>` casts — including ones split across lines.
pub fn bare_cast(clean: &CleanFile, trees: &[Tree]) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            if t.ident() != Some("as") {
                continue;
            }
            // `use x as y;` aliases are not casts: the previous token
            // of a cast is a value/group, never the `use` path context.
            if in_use_statement(slice, i) {
                continue;
            }
            let Some(target) = slice.get(i + 1).and_then(Tree::ident) else {
                continue;
            };
            if CAST_TARGETS.contains(&target) {
                push(
                    &mut findings,
                    clean,
                    Rule::BareCast,
                    t.span(),
                    format!(
                        "bare `as {target}` cast in unit arithmetic; use `u64::from`/`f64::from` for lossless widening or the audited helpers in `nvmtypes::convert` (`usize_from`, `u64_from_usize`, `approx_f64`, `trunc_u64`, `try_u32`)"
                    ),
                );
            }
        }
    });
    findings
}

/// Is the `as` at `slice[i]` part of a `use ... as alias` statement?
fn in_use_statement(slice: &[Tree], i: usize) -> bool {
    slice[..i]
        .iter()
        .rev()
        .take_while(|t| !t.is_punct(";"))
        .any(|t| t.ident() == Some("use"))
}

/// Direct `thread::spawn(..)` calls, plus calls through a `use`-import
/// of `spawn` (possibly aliased).
pub fn thread_spawn(clean: &CleanFile, trees: &[Tree], ast: &File) -> Vec<Finding> {
    // Names bound to `std::thread::spawn` by imports in this file.
    let mut spawn_aliases: Vec<String> = Vec::new();
    collect_use_entries(&ast.items, &mut |entry| {
        let p = &entry.path;
        if p.len() >= 2 && p[p.len() - 2] == "thread" && p[p.len() - 1] == "spawn" {
            spawn_aliases.push(entry.alias.clone());
        }
    });
    let message = || {
        "direct `thread::spawn` bypasses the vendored work-sharing pool; use \
         `rayon::par_iter`/`join` so `RAYON_NUM_THREADS` and the ordered-collect \
         determinism contract apply (docs/PARALLELISM.md)"
            .to_string()
    };
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if name == "thread"
                && slice.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && slice.get(i + 2).and_then(Tree::ident) == Some("spawn")
                && slice.get(i + 3).is_some_and(|n| n.group_of('(').is_some())
            {
                push(&mut findings, clean, Rule::ThreadSpawn, t.span(), message());
            } else if spawn_aliases.iter().any(|a| a == name)
                && slice.get(i + 1).is_some_and(|n| n.group_of('(').is_some())
            {
                // A bare `spawn(..)` call through the import. Method
                // calls (`scope.spawn(..)`) and path-qualified calls
                // were handled (or exempted) above.
                let preceded = i > 0 && (slice[i - 1].is_punct(".") || slice[i - 1].is_punct("::"));
                if !preceded {
                    push(&mut findings, clean, Rule::ThreadSpawn, t.span(), message());
                }
            }
        }
    });
    findings
}

fn collect_use_entries(items: &[ast::Item], f: &mut impl FnMut(&UseEntry)) {
    for item in items {
        match &item.kind {
            ItemKind::Use(entries) => entries.iter().for_each(&mut *f),
            ItemKind::Mod { items, .. } => collect_use_entries(items, f),
            _ => {}
        }
    }
}

/// `println!`/`eprintln!` in library code.
pub fn no_println_in_lib(clean: &CleanFile, trees: &[Tree]) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if (name == "println" || name == "eprintln")
                && slice.get(i + 1).is_some_and(|n| n.is_punct("!"))
                && slice.get(i + 2).is_some_and(|n| n.group_of('(').is_some())
            {
                push(
                    &mut findings,
                    clean,
                    Rule::NoPrintlnInLib,
                    t.span(),
                    format!(
                        "`{name}!` in library code; return or render a `String` and let the binary print it"
                    ),
                );
            }
        }
    });
    findings
}

/// `let _ = expr;` wildcard discards.
pub fn let_underscore_result(clean: &CleanFile, trees: &[Tree]) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            if t.ident() == Some("let")
                && slice.get(i + 1).and_then(Tree::ident) == Some("_")
                && slice.get(i + 2).is_some_and(|n| n.is_punct("="))
            {
                push(
                    &mut findings,
                    clean,
                    Rule::LetUnderscoreResult,
                    t.span(),
                    "`let _ = ..` silently discards the value — and any `Err` in it; \
                     handle or propagate the `Result`, or make a deliberate discard \
                     explicit with `drop(..)`"
                        .to_string(),
                );
            }
        }
    });
    findings
}

/// Wildcard `_ =>` arms in `match`es over (or into) watched enums.
pub fn enum_wildcard(clean: &CleanFile, ast: &File) -> Vec<Finding> {
    let mut findings = Vec::new();
    ast::visit_fns(&ast.items, false, &mut |fd, _, _, _| {
        let Some(body) = &fd.body else { return };
        ast::visit_exprs(body, &mut |e| {
            let ExprKind::Match { arms, .. } = &e.kind else {
                return;
            };
            if !match_is_watched(e) {
                return;
            }
            for arm in arms {
                if arm.is_wild {
                    push(
                        &mut findings,
                        clean,
                        Rule::EnumWildcard,
                        arm.span,
                        "wildcard `_ =>` arm on a watched enum; list every variant so new media kinds cannot silently fall through".to_string(),
                    );
                }
            }
        });
    });
    findings
}

/// A match is watched when any path in its subtree (scrutinee, arm
/// patterns, guards, or bodies — nested matches included) names
/// `WatchedEnum::Variant`.
fn match_is_watched(match_expr: &Expr) -> bool {
    let mut watched = false;
    ast::visit_expr(match_expr, &mut |e| match &e.kind {
        ExprKind::Path(segs) => watched |= path_is_watched(segs),
        ExprKind::StructLit { path, .. } | ExprKind::Macro { path, .. } => {
            watched |= path_is_watched(path);
        }
        ExprKind::Match { arms, .. } => {
            for arm in arms {
                watched |= arm.pat_paths.iter().any(|p| path_is_watched(p));
            }
        }
        _ => {}
    });
    watched
}

/// Does `segs` contain `WatchedEnum::<something>`?
fn path_is_watched(segs: &[String]) -> bool {
    segs.windows(2)
        .any(|w| WATCHED_ENUMS.contains(&w[0].as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::clean_source;
    use crate::parser::parse_trees;

    /// Runs one rule over `src`, as `scan_source` does.
    fn hits(rule: Rule, src: &str) -> Vec<Finding> {
        let clean = clean_source(src);
        let trees = parse_trees(&clean);
        let file = ast::parse_file(&trees);
        run(rule, &clean, &trees, &file)
    }

    /// The exact report text of every per-file rule, in finding order.
    #[test]
    fn per_file_rule_messages_are_pinned() {
        let cases: [(Rule, &str, &[(usize, &str)]); 8] = [
            (
                Rule::NoPanic,
                "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); }\n",
                &[
                    (1, "`unwrap()` can panic; return a typed error or use a non-panicking accessor"),
                    (1, "`expect` can panic; return a typed error or use a non-panicking accessor"),
                    (1, "`panic!` can panic; return a typed error or use a non-panicking accessor"),
                ],
            ),
            (
                Rule::NondeterministicCollection,
                "fn g() { let m: HashMap<u32, u32> = x; let s: HashSet<u8> = y; }\n",
                &[
                    (1, "`HashMap` iteration order is nondeterministic; use `BTreeMap` or a sorted drain"),
                    (1, "`HashSet` iteration order is nondeterministic; use `BTreeSet` or a sorted drain"),
                ],
            ),
            (
                Rule::WallClock,
                "fn h() { let t = Instant::now(); let s = SystemTime::now(); }\n",
                &[
                    (1, "`Instant::now` breaks reproducibility; simulators must use simulated time and seeded RNGs"),
                    (1, "`SystemTime` breaks reproducibility; simulators must use simulated time and seeded RNGs"),
                ],
            ),
            (
                Rule::BareCast,
                "fn i(x: u32) -> u64 { x as u64 }\n",
                &[(1, "bare `as u64` cast in unit arithmetic; use `u64::from`/`f64::from` for lossless widening or the audited helpers in `nvmtypes::convert` (`usize_from`, `u64_from_usize`, `approx_f64`, `trunc_u64`, `try_u32`)")],
            ),
            (
                Rule::EnumWildcard,
                "fn f(k: NvmKind) -> u32 {\n match k {\n  NvmKind::Slc => 1,\n  _ => 0,\n }\n}\n",
                &[(4, "wildcard `_ =>` arm on a watched enum; list every variant so new media kinds cannot silently fall through")],
            ),
            (
                Rule::LetUnderscoreResult,
                "fn j() { let _ = k(); }\n",
                &[(1, "`let _ = ..` silently discards the value — and any `Err` in it; handle or propagate the `Result`, or make a deliberate discard explicit with `drop(..)`")],
            ),
            (
                // `eprintln!` is not also counted as `println!`; the
                // comment and the test module are exempt.
                Rule::NoPrintlnInLib,
                "fn f() { println!(\"x\"); eprintln!(\"y\"); }\n// println!(\"z\")\n#[cfg(test)]\nmod t {\n fn g() { println!(\"t\"); }\n}\n",
                &[
                    (1, "`println!` in library code; return or render a `String` and let the binary print it"),
                    (1, "`eprintln!` in library code; return or render a `String` and let the binary print it"),
                ],
            ),
            (
                Rule::ThreadSpawn,
                "fn j() { std::thread::spawn(|| {}); }\n",
                &[(1, "direct `thread::spawn` bypasses the vendored work-sharing pool; use `rayon::par_iter`/`join` so `RAYON_NUM_THREADS` and the ordered-collect determinism contract apply (docs/PARALLELISM.md)")],
            ),
        ];
        for (rule, src, want) in cases {
            let found = hits(rule, src);
            let got: Vec<(usize, &str)> =
                found.iter().map(|f| (f.line, f.message.as_str())).collect();
            assert_eq!(got, want, "{}", rule.id());
        }
    }

    /// Each row: a rule, a source, and the lines it must flag.
    #[test]
    fn per_file_rules_flag_exactly_these_lines() {
        let cases: &[(Rule, &str, &[usize])] = &[
            // no_panic: test modules, comments and strings are exempt;
            // an unwrap split across lines is still one call.
            (
                Rule::NoPanic,
                "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t {\n fn g() { y.unwrap(); }\n}\n",
                &[1],
            ),
            (Rule::NoPanic, "// x.unwrap()\nlet s = \"panic!(\"; \n", &[]),
            (Rule::NoPanic, "fn f() {\n  x\n    .unwrap\n    ();\n}\n", &[3]),
            // nondeterministic_collection: `BTreeMap` and longer names
            // that merely contain `HashMap` are spared.
            (
                Rule::NondeterministicCollection,
                "use std::collections::{BTreeMap, HashMap};\n",
                &[1],
            ),
            (
                Rule::NondeterministicCollection,
                "fn f() { let m = LinkedHashMap::new(); }\n",
                &[],
            ),
            (
                Rule::WallClock,
                "fn f() { let t = SystemTimeline::new(); }\n",
                &[],
            ),
            // bare_cast: only the numeric targets (`u8` exempt), a cast
            // split across lines, never a `use .. as` alias.
            (
                Rule::BareCast,
                "let a = x as u64; let b = y as MyType; let c = z as u8;\n",
                &[1],
            ),
            (Rule::BareCast, "fn f(x: u32) -> u64 {\n  x as\n    u64\n}\n", &[2]),
            (Rule::BareCast, "use foo::bar as u64_helper;\nfn f() {}\n", &[]),
            // let_underscore_result: only the bare `_` pattern; named
            // and typed discards, comments, strings, test modules and
            // `outlet _` are not discards.
            (
                Rule::LetUnderscoreResult,
                "fn f() {\n let _ = tx.send(1);\n let _guard = lock();\n let _: u32 = g();\n let x = h();\n}\n",
                &[2],
            ),
            (
                Rule::LetUnderscoreResult,
                "// let _ = a();\nconst S: &str = \"let _ = b()\";\n#[cfg(test)]\nmod t {\n fn g() { let _ = c(); }\n}\n",
                &[],
            ),
            (Rule::LetUnderscoreResult, "fn f() { outlet _ = 1; }\n", &[]),
            // thread_spawn: direct and `use`-imported spawns (aliased
            // too); scoped spawns, comments and test modules are not.
            (
                Rule::ThreadSpawn,
                "fn f() { std::thread::spawn(|| {}); scope.spawn(|| {}); }\n// thread::spawn(..)\n#[cfg(test)]\nmod t {\n fn g() { std::thread::spawn(|| {}); }\n}\n",
                &[1],
            ),
            (
                Rule::ThreadSpawn,
                "use std::thread::spawn;\nfn f() { spawn(|| {}); }\n",
                &[2],
            ),
            (
                Rule::ThreadSpawn,
                "use std::thread::spawn as go;\nfn f() { go(|| {}); }\n",
                &[2],
            ),
            (
                Rule::ThreadSpawn,
                "use std::thread::spawn as go;\nfn f(scope: &S) { scope.go(|| {}); }\n",
                &[],
            ),
            // enum_wildcard: the lone top-level `_` arm of a match on,
            // or classifying into, a watched enum; guards and block
            // bodies parse, and a nested tuple `_` is not a wildcard arm.
            (
                Rule::EnumWildcard,
                "fn f(k: NvmKind) -> u32 {\n match k {\n  NvmKind::Slc => 1,\n  _ => 0,\n }\n}\n",
                &[4],
            ),
            (
                Rule::EnumWildcard,
                "fn f(n: u8) -> u32 {\n match n {\n  0 => 1,\n  _ => 0,\n }\n}\n",
                &[],
            ),
            (
                Rule::EnumWildcard,
                "fn f(k: IoOp) -> u32 {\n match k {\n  IoOp::Read => 1,\n  IoOp::Write => 2,\n }\n}\n",
                &[],
            ),
            (
                Rule::EnumWildcard,
                "fn f(i: u32) -> PageClass {\n match i % 3 {\n  0 => PageClass::Lsb,\n  1 => PageClass::Csb,\n  _ => PageClass::Msb,\n }\n}\n",
                &[5],
            ),
            (
                Rule::EnumWildcard,
                "fn f(k: IoOp) -> u32 {\n match (k, 1) {\n  (IoOp::Read, _) => 1,\n  (IoOp::Write, _) => 2,\n }\n}\n",
                &[],
            ),
            (
                Rule::EnumWildcard,
                "fn f(k: OpKind, n: u8) -> u32 {\n match (k, n) {\n  (OpKind::Read, x) if x > 3 => { 1 }\n  (OpKind::Write, _) => 2,\n  _ => 3,\n }\n}\n",
                &[5],
            ),
        ];
        for (rule, src, want) in cases {
            let got: Vec<usize> = hits(*rule, src).iter().map(|f| f.line).collect();
            assert_eq!(&got, want, "{}: {src}", rule.id());
        }
    }

    #[test]
    fn string_and_comment_false_positives_stay_dead() {
        let src = "// x.unwrap()\nconst S: &str = \"panic!( let _ = a() as u64 HashMap\";\n";
        for rule in [
            Rule::NoPanic,
            Rule::BareCast,
            Rule::LetUnderscoreResult,
            Rule::NondeterministicCollection,
        ] {
            assert!(hits(rule, src).is_empty(), "{}", rule.id());
        }
    }
}
