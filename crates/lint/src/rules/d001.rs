//! D001 — floats cross the wire as bit patterns, never as decimal text.
//!
//! The pipeline's correctness argument leans on *bit-exact* f64 round-trips:
//! a worker's result is keyed by the exact `s`-point the master planned, and a
//! checkpoint reload must reproduce the cache byte-for-byte.  Decimal float
//! formatting (`{}`, `{:e}`, `{:.17}`) silently rounds — `0.1 + 0.2` prints
//! as `0.30000000000000004` only if you are lucky with the precision — so the
//! modules that write payloads must funnel every float through the sanctioned
//! 16-hex-digit bit codec (`append_f64` / `encode_f64` / `to_bits`).
//!
//! Fires in every module of the pipeline crate that writes a payload (wire,
//! checkpoint, cache, server and transform) on any formatting macro whose
//! argument is float-like (a float literal, an `as f64` cast, a
//! `.re`/`.im`/`.norm()` projection, or a binding declared
//! `f64`/`f32`/`Complex64`) under a Display/float format spec.  Hex (`{:x}`),
//! binary/octal, and Debug specs are exempt, as is any argument routed
//! through `to_bits` or an `encode_*` / `append_*` codec function.

use super::Finding;
use crate::analysis::SourceFile;
use crate::lexer::{Token, TokenKind};

/// File stems patrolled by D001 (within the pipeline crate): every module
/// that writes a payload — frames, checkpoint records, cache keys, query
/// requests and replies, spec lines.
const SCOPE_STEMS: &[&str] = &["wire", "checkpoint", "cache", "server", "transform"];

/// Formatting macros whose output can land on a wire/checkpoint path.
const FORMAT_MACROS: &[&str] = &[
    "format", "write", "writeln", "print", "println", "eprint", "eprintln",
];

/// Argument markers that prove the float was routed through the bit codec.
const SANCTIONED: &[&str] = &[
    "to_bits",
    "encode_f64",
    "encode_finite_f64",
    "append_f64",
    "append_finite_f64",
    "append_complex",
];

/// Runs D001 over the file set.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.crate_name() != "pipeline" || !SCOPE_STEMS.contains(&file.stem()) {
            continue;
        }
        // Token-exact matching: `encode_f64` must not read as type `f64`.
        let float_bindings = file.bindings_matching(|ty| {
            ty.split_whitespace()
                .any(|w| matches!(w, "f64" | "f32" | "Complex64"))
        });
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if toks[i].kind != TokenKind::Ident
                || !FORMAT_MACROS.contains(&toks[i].text.as_str())
                || !toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
                || !toks.get(i + 2).is_some_and(|t| t.is_punct("("))
                || file.in_test_code(i)
            {
                continue;
            }
            let close = file.matching_close_paren(i + 2);
            let args = split_args(&toks[i + 3..close]);
            // write!/writeln! lead with the writer expression.
            let skip = usize::from(matches!(toks[i].text.as_str(), "write" | "writeln"));
            let Some(fmt_tok) = args.get(skip).and_then(|a| a.first()) else {
                continue;
            };
            if fmt_tok.kind != TokenKind::Str {
                continue;
            }
            let value_args = &args[skip + 1..];
            let mut positional = 0usize;
            for ph in placeholders(&fmt_tok.text) {
                if spec_is_bit_or_debug(&ph.spec) {
                    if ph.name.is_none() {
                        positional += 1;
                    }
                    continue;
                }
                let flagged = match &ph.name {
                    // `{ident}` inline capture: float iff the binding is.
                    Some(name) => float_bindings.contains(name),
                    None => {
                        let arg = value_args.get(positional);
                        positional += 1;
                        arg.is_some_and(|a| arg_is_unsanctioned_float(a, &float_bindings))
                    }
                };
                if flagged {
                    findings.push(Finding {
                        rule: "D001",
                        path: file.path.clone(),
                        line: toks[i].line,
                        message: format!(
                            "float formatted as decimal text in `{}!`; wire/checkpoint values \
                             must use the 16-hex-digit bit codec (encode_f64 / to_bits)",
                            toks[i].text
                        ),
                    });
                    break; // one finding per macro call is enough
                }
            }
        }
    }
    findings
}

/// True when the argument expression is float-like and not routed through the
/// bit codec.
fn arg_is_unsanctioned_float(arg: &[&Token], float_bindings: &[String]) -> bool {
    if arg
        .iter()
        .any(|t| t.kind == TokenKind::Ident && SANCTIONED.contains(&t.text.as_str()))
    {
        return false;
    }
    for (j, t) in arg.iter().enumerate() {
        match t.kind {
            TokenKind::Float => return true,
            TokenKind::Ident => {
                if float_bindings.contains(&t.text) {
                    // `values.len()` / `values.is_empty()` on a float-typed
                    // collection formats a count, not a float.
                    let integral_projection = arg.get(j + 1).is_some_and(|d| d.is_punct("."))
                        && arg
                            .get(j + 2)
                            .is_some_and(|m| matches!(m.text.as_str(), "len" | "is_empty"));
                    if !integral_projection {
                        return true;
                    }
                }
                // `expr as f64` casts and `.re`/`.im`/`.norm()` projections.
                if (t.text == "f64" || t.text == "f32") && j >= 1 && arg[j - 1].is_ident("as") {
                    return true;
                }
                if matches!(t.text.as_str(), "re" | "im" | "norm")
                    && j >= 1
                    && arg[j - 1].is_punct(".")
                {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Splits macro argument tokens on top-level commas.
fn split_args(tokens: &[Token]) -> Vec<Vec<&Token>> {
    let mut args = vec![Vec::new()];
    let mut depth = 0i32;
    for t in tokens {
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
            "," if t.kind == TokenKind::Punct && depth == 0 => {
                args.push(Vec::new());
                continue;
            }
            _ => {}
        }
        args.last_mut().expect("always one arg bucket").push(t);
    }
    if args.len() == 1 && args[0].is_empty() {
        args.clear();
    }
    args
}

/// One `{…}` placeholder in a format string.
struct Placeholder {
    /// Inline-captured name (`{value}`) if present.
    name: Option<String>,
    /// Format spec after the `:` (empty for plain `{}`).
    spec: String,
}

/// Extracts placeholders from a format-string literal (quotes included).
fn placeholders(literal: &str) -> Vec<Placeholder> {
    let inner = literal.trim_start_matches('r').trim_matches(['#', '"']);
    let chars: Vec<char> = inner.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2; // escaped brace
                continue;
            }
            let mut body = String::new();
            i += 1;
            while i < chars.len() && chars[i] != '}' {
                body.push(chars[i]);
                i += 1;
            }
            let (name_part, spec) = match body.split_once(':') {
                Some((n, s)) => (n, s.to_string()),
                None => (body.as_str(), String::new()),
            };
            let name = if !name_part.is_empty()
                && name_part.chars().all(|c| c == '_' || c.is_alphanumeric())
                && !name_part.chars().all(|c| c.is_ascii_digit())
            {
                Some(name_part.to_string())
            } else {
                None
            };
            out.push(Placeholder { name, spec });
        }
        i += 1;
    }
    out
}

/// True for specs that cannot produce rounded decimal float text: hex,
/// binary, octal, and Debug.
fn spec_is_bit_or_debug(spec: &str) -> bool {
    spec.ends_with(['x', 'X', 'b', 'o', '?'])
}

impl SourceFile {
    /// Finds the index of the `)` matching the `(` at `open` (falls back to
    /// `tokens.len()` when unterminated).
    pub(crate) fn matching_close_paren(&self, open: usize) -> usize {
        let mut depth = 0i64;
        for i in open..self.tokens.len() {
            if self.tokens[i].is_punct("(") {
                depth += 1;
            } else if self.tokens[i].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.tokens.len()
    }
}
