//! The `lint.toml` allowlist.
//!
//! The workspace root may carry a `lint.toml` with `[[allow]]` tables:
//!
//! ```toml
//! [[allow]]
//! rule = "D003"
//! file = "crates/pipeline/src/engine.rs"
//! context = "let started = Instant::now"
//! reason = "wall-clock measures elapsed time for provenance, not results"
//! ```
//!
//! A finding is suppressed when an entry's `rule` matches its code, `file`
//! matches its path, and the finding's source line contains `context` as a
//! substring.  `reason` is mandatory: an allowlist entry without a recorded
//! justification is itself a config error.
//!
//! The parser below is a deliberately tiny TOML subset (only `[[allow]]`
//! array-of-table headers and `key = "string"` pairs, `#` comments) — the
//! container has no crates.io access, and the full grammar buys nothing here.

use std::fmt;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule code the entry suppresses (e.g. `D003`).
    pub rule: String,
    /// Workspace-relative file the entry applies to.
    pub file: String,
    /// Substring the offending source line must contain.
    pub context: String,
    /// Human justification.  Required.
    pub reason: String,
}

/// Parsed allowlist configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// All `[[allow]]` entries, in file order.
    pub allow: Vec<AllowEntry>,
}

/// A malformed `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses the `lint.toml` subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut entries: Vec<(usize, Vec<(String, String)>)> = Vec::new();
        let mut in_allow = false;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                entries.push((line_no, Vec::new()));
                in_allow = true;
                continue;
            }
            if line.starts_with('[') {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("unsupported table header {line:?} (only [[allow]])"),
                });
            }
            let Some(eq) = line.find('=') else {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("expected `key = \"value\"`, got {line:?}"),
                });
            };
            if !in_allow {
                return Err(ConfigError {
                    line: line_no,
                    message: "key outside any [[allow]] table".to_string(),
                });
            }
            let key = line[..eq].trim().to_string();
            let value = parse_string(line[eq + 1..].trim()).ok_or_else(|| ConfigError {
                line: line_no,
                message: format!("value for `{key}` must be a double-quoted string"),
            })?;
            if !matches!(key.as_str(), "rule" | "file" | "context" | "reason") {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("unknown key `{key}` (expected rule/file/context/reason)"),
                });
            }
            entries
                .last_mut()
                .expect("in_allow implies at least one entry")
                .1
                .push((key, value));
        }

        let mut allow = Vec::new();
        for (line, pairs) in entries {
            let get = |k: &str| {
                pairs
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.clone())
            };
            let require = |k: &str| {
                get(k).ok_or_else(|| ConfigError {
                    line,
                    message: format!("[[allow]] entry missing required key `{k}`"),
                })
            };
            let entry = AllowEntry {
                rule: require("rule")?,
                file: require("file")?,
                context: require("context")?,
                reason: require("reason")?,
            };
            if entry.reason.trim().is_empty() {
                return Err(ConfigError {
                    line,
                    message: "[[allow]] entry has an empty `reason`".to_string(),
                });
            }
            allow.push(entry);
        }
        Ok(Config { allow })
    }

    /// True when a finding at (`rule`, `file`) whose source line is
    /// `line_text` is suppressed by some entry.
    pub(crate) fn allows(&self, rule: &str, file: &str, line_text: &str) -> bool {
        self.allow
            .iter()
            .any(|e| e.rule == rule && e.file == file && line_text.contains(&e.context))
    }
}

/// Strips a `#` comment, respecting `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Parses one double-quoted TOML basic string with `\"` / `\\` escapes.
fn parse_string(text: &str) -> Option<String> {
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return None; // unescaped quote: the strip_suffix matched too early
        }
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes back to the subset `parse` accepts: the round trip's other half.
    fn to_toml(cfg: &Config) -> String {
        let mut out = String::new();
        for e in &cfg.allow {
            out.push_str("[[allow]]\n");
            out.push_str(&format!("rule = {}\n", quote(&e.rule)));
            out.push_str(&format!("file = {}\n", quote(&e.file)));
            out.push_str(&format!("context = {}\n", quote(&e.context)));
            out.push_str(&format!("reason = {}\n", quote(&e.reason)));
            out.push('\n');
        }
        out
    }

    fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn parses_entries_and_comments() {
        let cfg = Config::parse(
            r#"
# workspace allowlist
[[allow]]
rule = "D003"            # wall-clock timing
file = "crates/pipeline/src/engine.rs"
context = "let started = Instant::now"
reason = "provenance wall field, not a result value"
"#,
        )
        .unwrap();
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].rule, "D003");
        assert!(cfg.allows(
            "D003",
            "crates/pipeline/src/engine.rs",
            "let started = Instant::now();"
        ));
        assert!(!cfg.allows(
            "D003",
            "crates/pipeline/src/engine.rs",
            "let t = SystemTime::now();"
        ));
        assert!(!cfg.allows(
            "D001",
            "crates/pipeline/src/engine.rs",
            "let started = Instant::now();"
        ));
    }

    #[test]
    fn missing_reason_is_rejected() {
        let err = Config::parse("[[allow]]\nrule = \"D001\"\nfile = \"a.rs\"\ncontext = \"x\"\n")
            .unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
        let err = Config::parse(
            "[[allow]]\nrule = \"D001\"\nfile = \"a.rs\"\ncontext = \"x\"\nreason = \"  \"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("empty `reason`"), "{err}");
    }

    #[test]
    fn unknown_keys_and_tables_are_rejected() {
        assert!(Config::parse("[deny]\n").is_err());
        assert!(Config::parse("[[allow]]\nbogus = \"x\"\n").is_err());
        assert!(Config::parse("rule = \"D001\"\n").is_err());
        assert!(Config::parse("[[allow]]\nrule = unquoted\n").is_err());
    }

    #[test]
    fn string_escapes_and_hash_in_string() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"D001\"\nfile = \"a.rs\"\ncontext = \"say \\\"#{}\\\"\"\nreason = \"r\"\n",
        )
        .unwrap();
        assert_eq!(cfg.allow[0].context, "say \"#{}\"");
    }

    #[test]
    fn roundtrip_parse_serialize_parse() {
        let cfg = Config {
            allow: vec![
                AllowEntry {
                    rule: "D003".into(),
                    file: "crates/pipeline/src/worker.rs".into(),
                    context: "let started = Instant::now".into(),
                    reason: "elapsed-time provenance".into(),
                },
                AllowEntry {
                    rule: "D001".into(),
                    file: "crates/cli/src/lib.rs".into(),
                    context: "quote \" and slash \\".into(),
                    reason: "escape\nheavy\tentry".into(),
                },
            ],
        };
        let text = to_toml(&cfg);
        let reparsed = Config::parse(&text).unwrap();
        assert_eq!(reparsed, cfg);
        // And the serialization is stable across one more cycle.
        assert_eq!(to_toml(&reparsed), text);
    }
}
