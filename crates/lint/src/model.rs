//! A shallow structural model of one Rust source file, built from the
//! token stream: functions (with impl-type context and body ranges),
//! `impl` blocks, `#[cfg(test)]` / `#[test]` regions, struct fields
//! holding locks, lock statics, enum variants, and `// wlc-lint:`
//! annotations.

use crate::lexer::{Comment, TokKind, Token};

/// Type names treated as lock primitives.
pub const LOCK_TYPES: [&str; 6] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "TrackedMutex",
    "TrackedRwLock",
    "TrackedCondvar",
];

/// Condvar-like types: recognized so their `wait` calls are not
/// mistaken for ordinary method calls, but they are not order nodes.
pub const CONDVAR_TYPES: [&str; 2] = ["Condvar", "TrackedCondvar"];

/// Any struct field, with its declared type rendered as joined tokens.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Owning struct name.
    pub owner: String,
    /// Field name.
    pub field: String,
    /// Type tokens joined with spaces (`Mutex < Vec < T > >`).
    pub ty: String,
    /// Declaration line.
    pub line: u32,
}

/// A struct field whose type mentions a lock primitive.
#[derive(Debug, Clone)]
pub struct LockField {
    /// Owning struct name.
    pub owner: String,
    /// Field name.
    pub field: String,
    /// The lock type mentioned (first match from [`LOCK_TYPES`]).
    pub kind: String,
    /// Declaration line.
    pub line: u32,
}

impl LockField {
    /// The lock-class identity used by the order graph.
    pub fn id(&self) -> String {
        format!("{}.{}", self.owner, self.field)
    }

    /// Whether this field is a condition variable (not an order node).
    pub fn is_condvar(&self) -> bool {
        CONDVAR_TYPES.contains(&self.kind.as_str())
    }
}

/// A function (or method) definition.
#[derive(Debug, Clone)]
pub struct FuncDef {
    /// Qualified name: `Type::name` for methods, `name` for free fns.
    pub qual: String,
    /// Bare name.
    pub name: String,
    /// Enclosing `impl` type, if any.
    pub self_type: Option<String>,
    /// Token index of the `fn` keyword (signature runs to `body.0`).
    pub sig_start: usize,
    /// Token index range of the body, `[open_brace, close_brace]`.
    pub body: (usize, usize),
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the function is test code (`#[test]`, or inside a
    /// `#[cfg(test)]` item).
    pub is_test: bool,
}

/// An enum definition with its variant names.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// Variant names with declaration lines.
    pub variants: Vec<(String, u32)>,
}

/// A parsed `// wlc-lint: allow(rule, reason = "...")` or
/// `// wlc-lint: sanitize(rule, reason = "...")` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule name inside `allow(...)` / `sanitize(...)`.
    pub rule: String,
    /// Line the annotation comment is on.
    pub line: u32,
    /// True for `sanitize(...)`: the line is declared clean at the
    /// dataflow level (taint stops here) rather than merely suppressed.
    pub sanitize: bool,
    /// Grammar error, if the annotation is malformed (e.g. no reason).
    pub error: Option<String>,
}

/// The structural model of one file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Every struct field, with its declared type.
    pub fields: Vec<FieldDef>,
    /// Struct fields holding lock primitives.
    pub lock_fields: Vec<LockField>,
    /// `static NAME: ...Mutex...` declarations (lock statics).
    pub lock_statics: Vec<(String, u32)>,
    /// All functions, in source order.
    pub functions: Vec<FuncDef>,
    /// Enum definitions.
    pub enums: Vec<EnumDef>,
    /// `impl` items: the self type and the token range `[impl, close_brace]`.
    pub impls: Vec<(String, (usize, usize))>,
    /// Token index ranges `[start, end]` that are test code.
    pub test_ranges: Vec<(usize, usize)>,
    /// Parsed `wlc-lint:` annotations.
    pub allows: Vec<Allow>,
}

impl FileModel {
    /// Whether token index `i` falls inside test code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// Whether a finding of `rule` on `line` is suppressed by an allow
    /// annotation on the same line or the line above.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.error.is_none()
                && !a.sanitize
                && a.rule == rule
                && (a.line == line || a.line + 1 == line)
        })
    }

    /// Whether `line` carries a valid `sanitize(rule, ...)` annotation
    /// (same line or the line above).
    pub fn sanitized(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.error.is_none()
                && a.sanitize
                && a.rule == rule
                && (a.line == line || a.line + 1 == line)
        })
    }
}

/// Finds the matching close brace for the open brace at `open`.
/// Returns the index of the close brace (or the last token).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Scans forward from `i` for the body `{` of an item header (fn, impl,
/// mod, struct, enum), at zero paren/bracket depth. Returns `Ok(index)`
/// of the brace, or `Err(index)` of a terminating `;` (no body).
fn find_body_brace(tokens: &[Token], mut i: usize) -> Result<usize, usize> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct('{') {
                return Ok(i);
            }
            if t.is_punct(';') {
                return Err(i);
            }
        }
        i += 1;
    }
    Err(tokens.len().saturating_sub(1))
}

/// Extracts the self type from the tokens of an `impl` header
/// (`impl<T> Foo<T>`, `impl Trait for Foo`, ...).
fn impl_self_type(tokens: &[Token], impl_idx: usize, brace: usize) -> Option<String> {
    let header = &tokens[impl_idx + 1..brace];
    // If a `for` is present (trait impl), the self type follows it.
    let start = header
        .iter()
        .position(|t| t.is_ident("for"))
        .map(|p| p + 1)
        .unwrap_or_else(|| {
            // Skip leading generics `<...>`.
            if header.first().is_some_and(|t| t.is_punct('<')) {
                let mut depth = 0i64;
                for (k, t) in header.iter().enumerate() {
                    if t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            return k + 1;
                        }
                    }
                }
            }
            0
        });
    // Self type = last identifier of the leading path (skip `&`, `dyn`,
    // `mut`), before any generic arguments.
    let mut name = None;
    for t in header[start.min(header.len())..].iter() {
        match t.kind {
            TokKind::Ident if t.text == "dyn" || t.text == "mut" => {}
            TokKind::Ident => name = Some(t.text.clone()),
            TokKind::Punct if t.is_punct(':') || t.is_punct('&') => {}
            TokKind::Lifetime => {}
            _ => break, // `<` of generic args, `where`, etc.
        }
    }
    name
}

/// Collected attribute information preceding an item.
#[derive(Debug, Default, Clone, Copy)]
struct Attrs {
    is_test_fn: bool,
    is_cfg_test: bool,
}

/// Parses one `#[...]` attribute starting at the `#`; returns the index
/// just past the closing `]` and whether it was `#[test]`/`#[cfg(test)]`.
fn parse_attr(tokens: &[Token], i: usize) -> (usize, Attrs) {
    let mut attrs = Attrs::default();
    let mut j = i + 1;
    if j < tokens.len() && tokens[j].is_punct('!') {
        j += 1; // inner attribute `#![...]`
    }
    if j >= tokens.len() || !tokens[j].is_punct('[') {
        return (i + 1, attrs);
    }
    let mut depth = 0i64;
    let start = j;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    let body = &tokens[start..=j.min(tokens.len() - 1)];
    let has = |s: &str| body.iter().any(|t| t.is_ident(s));
    if has("cfg") && has("test") {
        attrs.is_cfg_test = true;
    } else if body.len() == 3 && body[1].is_ident("test") {
        attrs.is_test_fn = true; // exactly `#[test]`
    } else if has("test") && (has("tokio") || has("rstest")) {
        attrs.is_test_fn = true;
    }
    (j + 1, attrs)
}

/// Builds the [`FileModel`] for one token stream.
pub fn build(tokens: &[Token], comments: &[Comment]) -> FileModel {
    let mut model = FileModel {
        allows: parse_allows(comments),
        ..FileModel::default()
    };

    // Block-context stack: for each open `{`, the impl type (if the
    // block is an impl body) and whether the region is test code.
    #[derive(Clone)]
    struct Ctx {
        impl_type: Option<String>,
        is_test: bool,
    }
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut pending_test_block = false;
    let mut pending = Attrs::default();

    let current_impl =
        |stack: &[Ctx]| -> Option<String> { stack.iter().rev().find_map(|c| c.impl_type.clone()) };
    let in_test_region =
        |stack: &[Ctx], pending: &Attrs| stack.iter().any(|c| c.is_test) || pending.is_cfg_test;

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokKind::Punct if t.is_punct('#') => {
                let (next, attrs) = parse_attr(tokens, i);
                pending.is_test_fn |= attrs.is_test_fn;
                pending.is_cfg_test |= attrs.is_cfg_test;
                i = next;
                continue;
            }
            TokKind::Punct if t.is_punct('{') => {
                stack.push(Ctx {
                    impl_type: pending_impl.take(),
                    is_test: pending_test_block || stack.last().is_some_and(|c| c.is_test),
                });
                pending_test_block = false;
                i += 1;
                continue;
            }
            TokKind::Punct if t.is_punct('}') => {
                stack.pop();
                i += 1;
                continue;
            }
            TokKind::Ident if t.is_keyword("impl") => {
                if let Ok(brace) = find_body_brace(tokens, i + 1) {
                    pending_impl = impl_self_type(tokens, i, brace);
                    // An item, not `impl Trait` in a signature.
                    let item = i == 0
                        || tokens[i - 1].is_keyword("unsafe")
                        || ['}', ';', '{', ']']
                            .iter()
                            .any(|&c| tokens[i - 1].is_punct(c));
                    if let (true, Some(ty)) = (item, &pending_impl) {
                        model
                            .impls
                            .push((ty.clone(), (i, matching_brace(tokens, brace))));
                    }
                }
                if pending.is_cfg_test {
                    pending_test_block = true;
                    if let Ok(brace) = find_body_brace(tokens, i + 1) {
                        model.test_ranges.push((i, matching_brace(tokens, brace)));
                    }
                }
                pending = Attrs::default();
                i += 1;
                continue;
            }
            TokKind::Ident if t.is_keyword("mod") => {
                if pending.is_cfg_test {
                    pending_test_block = true;
                    if let Ok(brace) = find_body_brace(tokens, i + 1) {
                        model.test_ranges.push((i, matching_brace(tokens, brace)));
                    }
                }
                pending = Attrs::default();
                i += 1;
                continue;
            }
            TokKind::Ident if t.is_keyword("struct") => {
                if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    if let Ok(brace) = find_body_brace(tokens, i + 2) {
                        collect_fields(
                            tokens,
                            &name.text,
                            brace,
                            &mut model.fields,
                            &mut model.lock_fields,
                        );
                    }
                }
                pending = Attrs::default();
                i += 1;
                continue;
            }
            TokKind::Ident if t.is_keyword("enum") => {
                if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    if let Ok(brace) = find_body_brace(tokens, i + 2) {
                        let def = collect_enum(tokens, &name.text, brace);
                        model.enums.push(def);
                    }
                }
                pending = Attrs::default();
                i += 1;
                continue;
            }
            TokKind::Ident if t.is_keyword("static") => {
                collect_lock_static(tokens, i, &mut model.lock_statics);
                pending = Attrs::default();
                i += 1;
                continue;
            }
            TokKind::Ident if t.is_keyword("fn") => {
                let name = match tokens.get(i + 1) {
                    Some(nt) if nt.kind == TokKind::Ident => nt.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let is_test = pending.is_test_fn || in_test_region(&stack, &pending);
                // A trait method declaration without a body has no brace;
                // skip it.
                if let Ok(open) = find_body_brace(tokens, i + 2) {
                    let close = matching_brace(tokens, open);
                    let self_type = current_impl(&stack);
                    let qual = match &self_type {
                        Some(ty) => format!("{ty}::{name}"),
                        None => name.clone(),
                    };
                    if is_test {
                        model.test_ranges.push((i, close));
                    }
                    model.functions.push(FuncDef {
                        qual,
                        name,
                        self_type,
                        sig_start: i,
                        body: (open, close),
                        line: t.line,
                        is_test,
                    });
                }
                pending = Attrs::default();
                i += 1;
                continue;
            }
            _ => {
                // Any other item-ish token clears pending attrs only at
                // item keywords handled above; expression tokens keep
                // flowing. Clear pending test-fn flags on `;` so an
                // attribute never leaks past its item.
                if t.is_punct(';') {
                    pending = Attrs::default();
                }
                i += 1;
            }
        }
    }

    model
}

fn collect_fields(
    tokens: &[Token],
    owner: &str,
    brace: usize,
    fields: &mut Vec<FieldDef>,
    locks: &mut Vec<LockField>,
) {
    let close = matching_brace(tokens, brace);
    let mut i = brace + 1;
    let mut depth = 0i64; // depth relative to the struct body
    while i < close {
        let t = &tokens[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('<') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct('>') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0
            && t.kind == TokKind::Ident
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            // `field: Type` — scan the type tokens to the field's end
            // (a `,` at depth 0 relative to the field).
            let field = t.text.clone();
            let line = t.line;
            let mut j = i + 2;
            let mut td = 0i64;
            let mut kind: Option<String> = None;
            let mut ty = String::new();
            while j < close {
                let tt = &tokens[j];
                if tt.is_punct('<') || tt.is_punct('(') || tt.is_punct('[') {
                    td += 1;
                } else if tt.is_punct('>') || tt.is_punct(')') || tt.is_punct(']') {
                    td -= 1;
                } else if tt.is_punct(',') && td <= 0 {
                    break;
                } else if tt.kind == TokKind::Ident
                    && kind.is_none()
                    && LOCK_TYPES.contains(&tt.text.as_str())
                {
                    kind = Some(tt.text.clone());
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(&tt.text);
                j += 1;
            }
            fields.push(FieldDef {
                owner: owner.to_string(),
                field: field.clone(),
                ty,
                line,
            });
            if let Some(kind) = kind {
                locks.push(LockField {
                    owner: owner.to_string(),
                    field,
                    kind,
                    line,
                });
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

fn collect_enum(tokens: &[Token], name: &str, brace: usize) -> EnumDef {
    let close = matching_brace(tokens, brace);
    let mut variants = Vec::new();
    let mut i = brace + 1;
    let mut depth = 0i64;
    while i < close {
        let t = &tokens[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('#') {
            let (next, _) = parse_attr(tokens, i);
            i = next;
            continue;
        } else if depth == 0
            && t.kind == TokKind::Ident
            && tokens.get(i + 1).is_some_and(|n| {
                n.is_punct(',') || n.is_punct('{') || n.is_punct('(') || n.is_punct('=')
            })
        {
            variants.push((t.text.clone(), t.line));
        }
        i += 1;
    }
    EnumDef {
        name: name.to_string(),
        variants,
    }
}

fn collect_lock_static(tokens: &[Token], i: usize, out: &mut Vec<(String, u32)>) {
    // `static [mut] NAME: Type = ...;`
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let Some(name) = tokens.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return;
    };
    if !tokens.get(j + 1).is_some_and(|t| t.is_punct(':')) {
        return;
    }
    // Scan the type up to `=` or `;` at depth 0.
    let mut k = j + 2;
    let mut depth = 0i64;
    let mut is_lock = false;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
            break;
        } else if t.kind == TokKind::Ident
            && LOCK_TYPES.contains(&t.text.as_str())
            && !CONDVAR_TYPES.contains(&t.text.as_str())
        {
            is_lock = true;
        }
        k += 1;
    }
    if is_lock {
        out.push((name.text.clone(), name.line));
    }
}

fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        // Only a line comment *dedicated* to the directive counts; prose
        // that mentions `wlc-lint:` mid-sentence (or doc comments, whose
        // text starts with `!` or `/`) is ignored, and block comments
        // carry no text at all.
        if c.block {
            continue;
        }
        let Some(rest) = c.text.trim_start().strip_prefix("wlc-lint:") else {
            continue;
        };
        let directive = rest.trim();
        if directive.starts_with("hot-path") {
            continue; // reserved marker, not an allow
        }
        let (rest, sanitize) = match (
            directive.strip_prefix("allow"),
            directive.strip_prefix("sanitize"),
        ) {
            (Some(r), _) => (r, false),
            (None, Some(r)) => (r, true),
            (None, None) => {
                out.push(Allow {
                    rule: String::new(),
                    line: c.line,
                    sanitize: false,
                    error: Some(format!(
                        "unknown wlc-lint directive `{}`; expected `allow(rule, reason = \
                         \"...\")` or `sanitize(rule, reason = \"...\")`",
                        directive
                    )),
                });
                continue;
            }
        };
        let rest = rest.trim();
        let inner = rest
            .strip_prefix('(')
            .and_then(|r| r.rfind(')').map(|e| &r[..e]));
        let Some(inner) = inner else {
            out.push(Allow {
                rule: String::new(),
                line: c.line,
                sanitize,
                error: Some("malformed allow: missing parentheses".into()),
            });
            continue;
        };
        let mut parts = inner.splitn(2, ',');
        let rule = parts.next().unwrap_or("").trim().to_string();
        let reason_part = parts.next().map(str::trim).unwrap_or("");
        let has_reason = reason_part
            .strip_prefix("reason")
            .map(|r| r.trim_start().starts_with('='))
            .unwrap_or(false)
            && reason_part.contains('"');
        let reason_text_ok = has_reason
            && reason_part
                .split('"')
                .nth(1)
                .is_some_and(|s| !s.trim().is_empty());
        let kw = if sanitize { "sanitize" } else { "allow" };
        let error = if rule.is_empty() {
            Some(format!("malformed {kw}: missing rule name"))
        } else if !reason_text_ok {
            Some(format!(
                "{kw}({rule}) requires a non-empty reason: {kw}({rule}, reason = \"...\")"
            ))
        } else {
            None
        };
        out.push(Allow {
            rule,
            line: c.line,
            sanitize,
            error,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_of(src: &str) -> FileModel {
        let (tokens, comments) = lex(src);
        build(&tokens, &comments)
    }

    #[test]
    fn finds_lock_fields_and_impl_methods() {
        let src = r#"
pub struct Q<T> {
    state: Mutex<Vec<T>>,
    cv: Condvar,
    cap: usize,
}
impl<T> Q<T> {
    pub fn push(&self) {}
    fn pop(&self) {}
}
impl<T> fmt::Display for Q<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}
"#;
        let m = model_of(src);
        assert_eq!(m.lock_fields.len(), 2);
        assert_eq!(m.lock_fields[0].id(), "Q.state");
        assert!(!m.lock_fields[0].is_condvar());
        assert!(m.lock_fields[1].is_condvar());
        let quals: Vec<_> = m.functions.iter().map(|f| f.qual.clone()).collect();
        assert_eq!(quals, vec!["Q::push", "Q::pop", "Q::fmt"]);
        let impls: Vec<_> = m.impls.iter().map(|(ty, _)| ty.as_str()).collect();
        assert_eq!(impls, vec!["Q", "Q"]);
    }

    #[test]
    fn impl_trait_in_a_signature_is_not_an_impl_block() {
        let src = r#"
fn evens(n: u32) -> impl Iterator<Item = u32> { (0..n).filter(|x| x % 2 == 0) }
fn call(f: impl Fn(u32) -> u32) -> u32 { f(1) }
#[derive(Debug)]
impl Thing { fn get(&self) -> u32 { 1 } }
"#;
        let (tokens, comments) = lex(src);
        let m = build(&tokens, &comments);
        assert_eq!(m.impls.len(), 1, "{:?}", m.impls);
        let (ty, (start, end)) = &m.impls[0];
        assert_eq!(ty, "Thing");
        assert!(tokens[*start].is_ident("impl") && tokens[*end].is_punct('}'));
    }

    #[test]
    fn test_regions_are_marked() {
        let src = r#"
fn live() { a(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { b(); }
}
#[test]
fn top_level_test() { c(); }
"#;
        let (tokens, comments) = lex(src);
        let m = build(&tokens, &comments);
        let idx = |name: &str| {
            tokens
                .iter()
                .position(|t| t.is_ident(name))
                .expect("token present")
        };
        assert!(!m.in_test(idx("a")));
        assert!(m.in_test(idx("b")));
        assert!(m.in_test(idx("c")));
        let t = m.functions.iter().find(|f| f.name == "t").expect("t");
        assert!(t.is_test);
        let live = m.functions.iter().find(|f| f.name == "live").expect("live");
        assert!(!live.is_test);
    }

    #[test]
    fn enums_and_statics() {
        let src = r#"
pub enum E {
    A,
    B { x: u32 },
    C(u8),
}
static REGISTRY: OnceLock<Mutex<u32>> = OnceLock::new();
static PLAIN: u32 = 3;
"#;
        let m = model_of(src);
        assert_eq!(m.enums.len(), 1);
        let names: Vec<_> = m.enums[0].variants.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
        assert_eq!(m.lock_statics.len(), 1);
        assert_eq!(m.lock_statics[0].0, "REGISTRY");
    }

    #[test]
    fn allow_annotations_parse_and_require_reasons() {
        let src = r#"
// wlc-lint: allow(panic, reason = "checked by caller")
x.unwrap();
// wlc-lint: allow(panic)
y.unwrap();
// wlc-lint: frobnicate(panic)
"#;
        let m = model_of(src);
        assert_eq!(m.allows.len(), 3);
        assert!(m.allows[0].error.is_none());
        assert!(m.allows[1].error.is_some());
        assert!(m.allows[2].error.is_some());
        assert!(m.allowed("panic", 3));
        assert!(!m.allowed("panic", 5)); // reason missing -> invalid
        assert!(!m.allowed("determinism", 3));
    }

    #[test]
    fn sanitize_annotations_parse_and_are_distinct_from_allows() {
        let src = r#"
// wlc-lint: sanitize(determinism-taint, reason = "keys sorted before iteration")
for k in keys {}
// wlc-lint: sanitize(determinism-taint)
bad();
"#;
        let m = model_of(src);
        assert_eq!(m.allows.len(), 2);
        assert!(m.allows[0].sanitize && m.allows[0].error.is_none());
        assert!(m.allows[1].error.is_some(), "reason is mandatory");
        assert!(m.sanitized("determinism-taint", 3));
        assert!(!m.allowed("determinism-taint", 3), "sanitize is not allow");
        assert!(!m.sanitized("determinism-taint", 5));
    }

    #[test]
    fn all_fields_are_collected_with_types() {
        let src = r#"
pub struct Replica<T> {
    slot: ModelSlot,
    breaker: CircuitBreaker,
    queue: Mutex<Vec<T>>,
    hits: u64,
}
"#;
        let m = model_of(src);
        assert_eq!(m.fields.len(), 4, "{:?}", m.fields);
        assert_eq!(m.fields[2].field, "queue");
        assert!(m.fields[2].ty.starts_with("Mutex"));
        assert_eq!(m.fields[3].ty, "u64");
        assert_eq!(m.lock_fields.len(), 1);
    }

    #[test]
    fn raw_identifier_items_are_not_keywords() {
        // `r#fn` and `r#struct` are names; only the real keywords below
        // should produce a function / struct.
        let src = r#"
let r#fn = 1;
let r#struct = 2;
fn real() {}
"#;
        let m = model_of(src);
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].name, "real");
    }
}
