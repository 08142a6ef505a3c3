//! Shared token-level analysis machinery used by every rule.
//!
//! A [`SourceFile`] wraps a lexed file with the structure rules need:
//!
//! * brace depth per token (scope reasoning for lock guards and fn bodies),
//! * `#[cfg(test)] mod … { … }` extents (test code is exempt from all rules —
//!   a test unwrapping a decoder result is the *point* of the test),
//! * function extents (`fn name … { body }`) with their call sites, feeding
//!   the D004 reachability pass and D006's set of called names,
//! * a lexical table of bindings whose type is float-like or a hash
//!   collection, feeding D001/D002.

use crate::lexer::{lex, Token, TokenKind};

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (e.g.
    /// `crates/pipeline/src/wire.rs`).
    pub path: String,
    /// All code tokens (comments/whitespace already dropped).
    pub tokens: Vec<Token>,
    /// Brace depth *before* each token (`{` raises depth for the tokens after
    /// it, `}` lowers it for itself and the tokens after it).
    pub depth: Vec<u32>,
    /// Token ranges `[start, end)` covered by `#[cfg(test)]`-gated items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Source lines, for reporting and allowlist context matching.
    pub lines: Vec<String>,
}

/// A function definition found in a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range `[start, end)` of the whole definition (signature + body).
    pub tokens: (usize, usize),
    /// True when the definition sits inside a `#[cfg(test)]` range.
    pub in_test: bool,
}

impl SourceFile {
    /// Lexes and structures one file.  `path` should be workspace-relative.
    pub fn parse(path: &str, source: &str) -> SourceFile {
        let tokens = lex(source);
        let mut depth = Vec::with_capacity(tokens.len());
        let mut d: u32 = 0;
        for t in &tokens {
            if t.is_punct("}") {
                d = d.saturating_sub(1);
            }
            depth.push(d);
            if t.is_punct("{") {
                d += 1;
            }
        }
        let test_ranges = find_test_ranges(&tokens, &depth);
        SourceFile {
            path: path.replace('\\', "/"),
            tokens,
            depth,
            test_ranges,
            lines: source.lines().map(str::to_string).collect(),
        }
    }

    /// The file stem (`wire` for `crates/pipeline/src/wire.rs`).
    pub fn stem(&self) -> &str {
        self.path
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or("")
    }

    /// The crate directory name (`pipeline` for `crates/pipeline/src/…`;
    /// the umbrella `src/lib.rs` reports `suite`).
    pub fn crate_name(&self) -> &str {
        let mut parts = self.path.split('/');
        match parts.next() {
            Some("crates") => parts.next().unwrap_or(""),
            _ => "suite",
        }
    }

    /// True when token `i` lies inside a `#[cfg(test)]` range.
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// The trimmed source text of a 1-based line (empty if out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(|s| s.trim())
            .unwrap_or("")
    }

    /// Finds the token index of the `}` closing the block opened by the `{`
    /// at token index `open` (returns `tokens.len()` when unterminated).
    pub fn matching_close(&self, open: usize) -> usize {
        let mut depth = 0i64;
        for i in open..self.tokens.len() {
            if self.tokens[i].is_punct("{") {
                depth += 1;
            } else if self.tokens[i].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.tokens.len()
    }

    /// All `fn` definitions in the file, with body extents.
    pub fn functions(&self) -> Vec<FnDef> {
        let mut defs = Vec::new();
        let toks = &self.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("fn") {
                continue;
            }
            let Some(name_tok) = toks.get(i + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue; // `fn` in a type position: `Fn()`, `fn()` pointers
            }
            // Walk to the body `{` (or a trait method's `;`), ignoring any
            // braces inside default-argument-free Rust signatures; `where`
            // clauses contain no braces, so the first `{` at angle-depth 0 is
            // the body.
            let mut j = i + 2;
            let mut open = None;
            while let Some(t) = toks.get(j) {
                if t.is_punct(";") {
                    break; // bodyless declaration
                }
                if t.is_punct("{") {
                    open = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(open) = open else { continue };
            let end = self.matching_close(open) + 1;
            defs.push(FnDef {
                name: name_tok.text.clone(),
                line: toks[i].line,
                tokens: (i, end.min(toks.len())),
                in_test: self.in_test_code(i),
            });
        }
        defs
    }

    /// Call sites within a token range: names of functions/methods invoked
    /// (`foo(…)`, `x.foo(…)`, `path::foo(…)`) and of macros (`foo!(…)`).
    pub fn calls_in(&self, range: (usize, usize)) -> Vec<String> {
        let toks = &self.tokens;
        let mut out = Vec::new();
        for i in range.0..range.1.min(toks.len()) {
            if toks[i].kind != TokenKind::Ident {
                continue;
            }
            match toks.get(i + 1) {
                // Not a definition (`fn name(`) and not a tuple-struct
                // pattern — both are harmless to include for reachability.
                Some(t) if t.is_punct("(") && (i == 0 || !toks[i - 1].is_ident("fn")) => {
                    out.push(toks[i].text.clone());
                }
                // A function passed as a value (`map(decode)`,
                // `all(Self::read)`) is called by whatever it is passed to.
                Some(t)
                    if (t.is_punct(")") || t.is_punct(","))
                        && i > 0
                        && ["(", ",", ":"].iter().any(|p| toks[i - 1].is_punct(p)) =>
                {
                    out.push(toks[i].text.clone());
                }
                Some(t)
                    if t.is_punct("!")
                        && toks.get(i + 2).is_some_and(|t| {
                            t.is_punct("(") || t.is_punct("[") || t.is_punct("{")
                        }) =>
                {
                    out.push(format!("{}!", toks[i].text));
                }
                _ => {}
            }
        }
        out
    }

    /// Names bound with a type or initializer matching `type_pred`, collected
    /// from `let` bindings, `fn` parameters, and struct fields.
    ///
    /// This is *lexical* type tracking: `let x: HashMap<…>`, `x: HashMap<…>`
    /// (param/field), and `let x = HashMap::new()` all mark `x`.  It does not
    /// chase aliases or generics — rules built on it are best-effort by
    /// design, with `lint.toml` as the escape hatch.
    pub fn bindings_matching(&self, type_pred: impl Fn(&str) -> bool) -> Vec<String> {
        let toks = &self.tokens;
        let mut names = Vec::new();
        for i in 0..toks.len() {
            if toks[i].kind != TokenKind::Ident || self.in_test_code(i) {
                // Test-code bindings are skipped: rules never report inside
                // `#[cfg(test)]`, and a test-local `let field = …` must not
                // poison the type of a like-named binding in live code.
                continue;
            }
            let name = &toks[i].text;
            // `name : Type` — a parameter, field, or annotated let.
            if toks.get(i + 1).is_some_and(|t| t.is_punct(":"))
                && !toks.get(i + 2).is_some_and(|t| t.is_punct(":"))
            {
                // Gather the type text up to a delimiter at the same level.
                let mut ty = String::new();
                let mut angle = 0i32;
                let mut paren = 0i32;
                for t in toks.iter().skip(i + 2).take(24) {
                    match t.text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "(" => paren += 1,
                        ")" if paren == 0 => break,
                        ")" => paren -= 1,
                        "," | ";" | "=" | "{" | "}" if angle <= 0 && paren <= 0 => break,
                        _ => {}
                    }
                    ty.push_str(&t.text);
                    ty.push(' ');
                }
                if type_pred(&ty) {
                    names.push(name.clone());
                    continue;
                }
            }
            // `let name = <init>` / `let mut name = <init>`.
            let is_let_target = (i >= 1 && toks[i - 1].is_ident("let"))
                || (i >= 2 && toks[i - 2].is_ident("let") && toks[i - 1].is_ident("mut"));
            if is_let_target && toks.get(i + 1).is_some_and(|t| t.is_punct("=")) {
                let mut init = String::new();
                for t in toks.iter().skip(i + 2).take(16) {
                    if t.is_punct(";") {
                        break;
                    }
                    init.push_str(&t.text);
                    init.push(' ');
                }
                if type_pred(&init) {
                    names.push(name.clone());
                }
            }
        }
        names.sort();
        names.dedup();
        names
    }
}

/// Locates `#[cfg(test)]`-gated items (`mod tests { … }`, gated fns, …) and
/// returns their token extents.
fn find_test_ranges(tokens: &[Token], _depth: &[u32]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Match `#` `[` cfg `(` … test … `)` `]`.
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Find the closing `]` of the attribute.
            let mut j = i + 2;
            let mut bracket = 1i32;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while let Some(t) = tokens.get(j) {
                match t.text.as_str() {
                    "[" => bracket += 1,
                    "]" => {
                        bracket -= 1;
                        if bracket == 0 {
                            break;
                        }
                    }
                    "cfg" if t.kind == TokenKind::Ident => saw_cfg = true,
                    "test" if t.kind == TokenKind::Ident => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                // The attribute gates the next item: skip further attributes,
                // then find the item's opening `{` (or trailing `;`).
                let mut k = j + 1;
                while tokens.get(k).is_some_and(|t| t.is_punct("#")) {
                    // Skip stacked attribute.
                    let mut b = 0i32;
                    while let Some(t) = tokens.get(k) {
                        match t.text.as_str() {
                            "[" => b += 1,
                            "]" => {
                                b -= 1;
                                if b == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                let mut open = None;
                while let Some(t) = tokens.get(k) {
                    if t.is_punct(";") {
                        break;
                    }
                    if t.is_punct("{") {
                        open = Some(k);
                        break;
                    }
                    k += 1;
                }
                if let Some(open) = open {
                    // Match braces to the item's end.
                    let mut d = 0i64;
                    let mut end = tokens.len();
                    for (m, t) in tokens.iter().enumerate().skip(open) {
                        if t.is_punct("{") {
                            d += 1;
                        } else if t.is_punct("}") {
                            d -= 1;
                            if d == 0 {
                                end = m + 1;
                                break;
                            }
                        }
                    }
                    ranges.push((i, end));
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stems_and_crates() {
        let f = SourceFile::parse("crates/pipeline/src/wire.rs", "fn a() {}");
        assert_eq!(f.stem(), "wire");
        assert_eq!(f.crate_name(), "pipeline");
        let f = SourceFile::parse("src/lib.rs", "");
        assert_eq!(f.stem(), "lib");
        assert_eq!(f.crate_name(), "suite");
    }

    #[test]
    fn cfg_test_mod_is_excluded() {
        let src = r#"
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn also_live() {}
"#;
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        let fns = f.functions();
        assert_eq!(fns.len(), 3);
        assert!(!fns[0].in_test);
        assert!(fns[1].in_test);
        assert!(!fns[2].in_test);
    }

    #[test]
    fn cfg_feature_gated_module_is_not_test() {
        let src = r#"
#[cfg(feature = "extra")]
mod gated { fn g() {} }
#[cfg(all(test, unix))]
mod gated_tests { fn t() {} }
"#;
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        let fns = f.functions();
        assert!(!fns.iter().find(|d| d.name == "g").unwrap().in_test);
        assert!(fns.iter().find(|d| d.name == "t").unwrap().in_test);
    }

    #[test]
    fn function_extents_and_calls() {
        let src = "fn outer() { inner(x); obj.method(); mac!(1); v.map(named).all(Self::path) }\nfn inner(_: u8) {}";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        let fns = f.functions();
        assert_eq!(fns.len(), 2);
        let calls = f.calls_in(fns[0].tokens);
        assert!(calls.contains(&"inner".to_string()));
        assert!(calls.contains(&"method".to_string()));
        assert!(calls.contains(&"mac!".to_string()));
        assert!(calls.contains(&"named".to_string()));
        assert!(calls.contains(&"path".to_string()));
    }

    #[test]
    fn binding_type_tracking() {
        let src = r#"
struct S { shards: RwLock<HashMap<String, V>>, clean: Vec<u8> }
fn f(param: HashSet<u32>, other: usize) {
    let seen = HashMap::new();
    let typed: HashMap<K, V> = source();
    let plain = Vec::new();
}
"#;
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        let hashy = f.bindings_matching(|ty| ty.contains("HashMap") || ty.contains("HashSet"));
        assert_eq!(hashy, vec!["param", "seen", "shards", "typed"]);
    }

    #[test]
    fn matching_close_finds_block_end() {
        let f = SourceFile::parse("crates/x/src/a.rs", "fn a() { { b(); } c(); }");
        let open = f.tokens.iter().position(|t| t.is_punct("{")).unwrap();
        let close = f.matching_close(open);
        assert!(f.tokens[close].is_punct("}"));
        assert_eq!(close, f.tokens.len() - 1);
    }
}
