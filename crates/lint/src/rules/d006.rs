//! D006 — a library's `pub` surface is what other crates name.
//!
//! rustc's `dead_code` lint resolves paths exactly, but it cannot judge a
//! `pub` item of a library: some other crate may use it.  So a `pub` item
//! that no other crate names is surface nobody outside uses *and* code the
//! compiler never checks for deadness.  The rule flags each `pub` item in a
//! library crate's `src/` (binaries — `main.rs` and `src/bin/` — are not
//! libraries) that no code outside its crate names: a `fn`, `struct`,
//! `enum`, `union`, `trait`, `type`, `const`, `static` or `mod`, and each
//! name a `pub use` exports.  Made `pub(crate)` (or dropped, for a
//! re-export), the item is judged by rustc, and CI's `clippy -D warnings`
//! turns a dead one into an error: this rule keeps the surface narrow and
//! the compiler decides what is dead.
//!
//! The code outside a library is:
//!
//! * every other crate's `src/`, the umbrella `src/` included;
//! * binaries, the crate's own among them;
//! * the caller-only files: `examples/`, `smpbench/src`, `smpbench/tests`
//!   and the integration tests under `tests/` and `crates/*/tests`.
//!
//! Integration tests count because they reach only `pub` items: an oracle a
//! bitwise suite compares against stays public, and so does what the
//! benchmark times.  A name counts wherever it is an identifier — a call, a
//! type, a path segment, a value — except in `#[cfg(test)]` code, where it
//! defines an item, and as the name a `use` item imports: the code that
//! uses the import counts instead.  The path before it counts (`use
//! smp_x::m::Item` needs `m` visible), and so do a renamed import (`Item as
//! Alias`) and a trait's import, since its methods resolve through it.  For
//! a re-export of another workspace crate's item (`pub use smp_x::Item`),
//! the code of `smp_x`, which names the original, does not count.
//!
//! An item named by the interface of an item that stays `pub` stays `pub`
//! too, or rustc's `private_interfaces` lint fires: a `pub fn`'s signature,
//! the types of a struct's `pub` fields, an enum's variants, a trait's body,
//! a type alias and a constant's type.  Its module stays `pub` with it, so
//! that a user can name what a public signature hands out.  Matching is by
//! name, so a name that outside code mentions for another item (`new`,
//! `len`) keeps every item of that name `pub`; rustc still judges the types
//! they belong to.

use super::Finding;
use crate::analysis::SourceFile;
use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// Runs D006: `linted` are the workspace's own sources (the candidates come
/// from their library files), `callers` the files read only for their names.
pub fn check(linted: &[SourceFile], callers: &[SourceFile]) -> Vec<Finding> {
    // Who names what, and whether only by importing it: `None` is code
    // outside every library.
    let owned = linted
        .iter()
        .map(|f| (f, (!is_binary(&f.path)).then(|| f.crate_name())));
    let mut named_by: BTreeMap<&str, BTreeSet<(Option<&str>, bool)>> = BTreeMap::new();
    for (file, owner) in owned.chain(callers.iter().map(|f| (f, None))) {
        for (name, imported) in mentions(file) {
            named_by.entry(name).or_default().insert((owner, imported));
        }
    }
    let items: Vec<Item<'_>> = linted
        .iter()
        .filter(|f| !is_binary(&f.path))
        .flat_map(pub_items)
        .collect();
    let traits: BTreeSet<(&str, &str)> = items
        .iter()
        .filter(|item| item.kind == "trait")
        .map(|item| (item.file.crate_name(), item.name.as_str()))
        .collect();
    // Outside means neither the item's crate nor, for a re-export, the crate
    // it re-exports from (whose own code names the original).  Importing a
    // trait is using it: its methods resolve through the import.
    let named_outside = |item: &Item<'_>| {
        let krate = item.file.crate_name();
        let inside = |o: &Option<&str>| *o == Some(krate) || (o.is_some() && *o == item.origin);
        let trait_name = |k: &str| traits.contains(&(k, item.name.as_str()));
        let is_trait = trait_name(krate) || item.origin.is_some_and(trait_name);
        named_by.get(item.name.as_str()).is_some_and(|owners| {
            owners
                .iter()
                .any(|(o, imported)| !inside(o) && (!imported || is_trait))
        })
    };
    let mut kept: Vec<bool> = items.iter().map(named_outside).collect();
    // What a kept item's interface names stays `pub` with it, and so does
    // its module, so that users can name it.  Its re-export need not.
    let mut frontier: Vec<usize> = (0..items.len()).filter(|&i| kept[i]).collect();
    while let Some(i) = frontier.pop() {
        let owner = items[i].file.crate_name();
        let toks = &items[i].file.tokens;
        let names: BTreeSet<&str> = items[i]
            .interface
            .iter()
            .flat_map(|&(start, end)| &toks[start..end])
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        let shown = |item: &Item<'_>| item.kind != "use" && names.contains(item.name.as_str());
        let modules: BTreeSet<&str> = items
            .iter()
            .filter(|item| item.file.crate_name() == owner && shown(item))
            .map(|item| item.file.stem())
            .collect();
        for (j, item) in items.iter().enumerate() {
            let needed =
                shown(item) || (item.kind == "mod" && modules.contains(item.name.as_str()));
            if !kept[j] && item.file.crate_name() == owner && needed {
                kept[j] = true;
                frontier.push(j);
            }
        }
    }

    items
        .iter()
        .zip(kept)
        .filter(|(_, kept)| !kept)
        .map(|(item, _)| Finding {
            rule: "D006",
            path: item.file.path.clone(),
            line: item.line,
            message: if item.kind == "use" {
                format!(
                    "`pub use … {}` re-exports a name no code outside its crate names \
                     (other crates, binaries, examples, integration tests, smpbench); drop it",
                    item.name
                )
            } else {
                format!(
                    "`pub {} {}` is named by no code outside its crate (other crates, \
                     binaries, examples, integration tests, smpbench); make it `pub(crate)` \
                     and let rustc judge whether it is used",
                    item.kind, item.name
                )
            },
        })
        .collect()
}

/// One `pub` item of a library file.
struct Item<'a> {
    file: &'a SourceFile,
    /// The item keyword (`fn`, `struct`, …), or `use` for a re-exported name.
    kind: &'static str,
    name: String,
    line: u32,
    /// For a re-export from another workspace crate (`pub use smp_x::…`),
    /// that crate.
    origin: Option<&'a str>,
    /// Token ranges `[start, end)` of what the item shows to its users.
    interface: Vec<(usize, usize)>,
}

const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// True for a binary target's source (`main.rs` or a file under `src/bin/`).
fn is_binary(path: &str) -> bool {
    path.ends_with("/main.rs") || path.contains("/src/bin/")
}

/// The names a file mentions outside `#[cfg(test)]` code and item
/// definitions, each flagged when it is only a name a `use` item imports.
fn mentions(file: &SourceFile) -> BTreeSet<(&str, bool)> {
    let toks = &file.tokens;
    let mut names = BTreeSet::new();
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("use") {
            in_use = true;
        } else if t.is_punct(";") {
            in_use = false;
        }
        let defined = i > 0 && ITEM_KEYWORDS.iter().any(|k| toks[i - 1].is_ident(k));
        if t.kind == TokenKind::Ident && !defined && !file.in_test_code(i) {
            names.insert((t.text.as_str(), in_use && is_leaf(toks, i)));
        }
    }
    names
}

/// True when token `i` of a `use` item is a name it imports: the last
/// segment of a path, not renamed (`a::b` → `b`, `a::{b, c}` → `b`, `c`).
fn is_leaf(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1)
        .is_none_or(|t| t.is_punct(",") || t.is_punct("}") || t.is_punct(";"))
}

/// Every `pub` item outside `#[cfg(test)]` code, with its interface.
fn pub_items(file: &SourceFile) -> Vec<Item<'_>> {
    let toks = &file.tokens;
    let ident = |k: usize, words: &[&str]| {
        toks.get(k)
            .is_some_and(|t| words.iter().any(|w| t.is_ident(w)))
    };
    let mut items = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") || file.in_test_code(i) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            continue; // `pub(crate)`, `pub(super)`: already narrow
        }
        // Qualifiers: `pub const unsafe extern "C" fn`, `pub async fn`.
        let mut k = i + 1;
        while ident(k, &["unsafe", "async"])
            || toks.get(k).is_some_and(|t| t.kind == TokenKind::Str)
            || (ident(k, &["extern"]) && !ident(k + 1, &["crate"]))
            || (ident(k, &["const"]) && ident(k + 1, &["fn", "unsafe", "async", "extern"]))
        {
            k += 1;
        }
        if ident(k, &["use"]) {
            items.extend(reexports(file, k));
            continue;
        }
        let Some(&kind) = ITEM_KEYWORDS.iter().find(|kw| ident(k, &[kw])) else {
            continue; // a field, or `pub extern crate`
        };
        let at = if kind == "static" && ident(k + 1, &["mut"]) {
            k + 2
        } else {
            k + 1
        };
        let Some(name) = toks.get(at).filter(|t| t.kind == TokenKind::Ident) else {
            continue; // a macro-generated item: `pub fn $name`
        };
        items.push(Item {
            file,
            kind,
            name: name.text.clone(),
            line: toks[i].line,
            origin: None,
            interface: interface(file, kind, at),
        });
    }
    items
}

/// The names a `pub use` item starting at token `at` exports.
fn reexports(file: &SourceFile, at: usize) -> Vec<Item<'_>> {
    let toks = &file.tokens;
    let end = (at..toks.len())
        .find(|&j| toks[j].is_punct(";"))
        .unwrap_or(toks.len());
    let origin = (at + 1..end)
        .find(|&j| toks[j].kind == TokenKind::Ident)
        .and_then(|j| toks[j].text.strip_prefix("smp_"));
    (at + 1..end)
        .filter(|&j| toks[j].kind == TokenKind::Ident && !toks[j].is_ident("self"))
        .filter(|&j| is_leaf(toks, j))
        .map(|j| Item {
            file,
            kind: "use",
            name: toks[j].text.clone(),
            line: toks[j].line,
            origin,
            interface: Vec::new(),
        })
        .collect()
}

/// The token ranges an item of `kind` named at token `name` shows to its
/// users.
fn interface(file: &SourceFile, kind: &str, name: usize) -> Vec<(usize, usize)> {
    let toks = &file.tokens;
    let until = |stops: &[&str]| {
        (name..toks.len())
            .find(|&j| stops.iter().any(|s| toks[j].is_punct(s)))
            .unwrap_or(toks.len())
    };
    match kind {
        "fn" => vec![(name, until(&["{", ";"]))],
        "type" => vec![(name, until(&[";"]))],
        "const" | "static" => vec![(name, until(&["=", ";"]))],
        "enum" | "trait" => {
            let open = until(&["{", ";"]);
            let end = if open < toks.len() && toks[open].is_punct("{") {
                file.matching_close(open)
            } else {
                open
            };
            vec![(name, end)]
        }
        "struct" | "union" => {
            let open = until(&["{", "(", ";"]);
            let mut ranges = vec![(name, open)];
            if open < toks.len() && !toks[open].is_punct(";") {
                ranges.extend(pub_fields(toks, open));
            }
            ranges
        }
        _ => Vec::new(),
    }
}

/// The type ranges of the `pub` fields in the struct body opened at `open`
/// (`{ pub a: A, b: B }` or `(pub A, B)`).
fn pub_fields(toks: &[Token], open: usize) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    for j in open + 1..toks.len() {
        let t = &toks[j];
        let closes = t.is_punct(")") || t.is_punct("}") || t.is_punct("]");
        if depth == 0 && (t.is_punct(",") || closes) {
            // Skip the field's attributes, then keep it if it is `pub`.
            let mut k = start;
            while toks[k].is_punct("#") {
                k = (k..j).find(|&m| toks[m].is_punct("]")).map_or(j, |m| m + 1);
            }
            if k < j && toks[k].is_ident("pub") && !toks[k + 1].is_punct("(") {
                fields.push((k + 1, j));
            }
            if closes {
                break;
            }
            start = j + 1;
        } else if t.is_punct("(") || t.is_punct("{") || t.is_punct("[") || t.is_punct("<") {
            depth += 1;
        } else if closes || (t.is_punct(">") && !toks[j - 1].is_punct("-")) {
            depth -= 1;
        }
    }
    fields
}
