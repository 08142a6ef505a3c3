// D004 good fixture — analyzed as crates/pipeline/src/wire.rs.
// The decode path returns typed options/results for malformed input; the
// only panic in the file sits in a helper *not* reachable from the decoders,
// and test code may unwrap freely.

fn decode_frame(line: &str) -> Option<u64> {
    let field = line.split(' ').next()?;
    parse_field(field)
}

fn parse_field(field: &str) -> Option<u64> {
    field.parse().ok()
}

/// Startup-only helper: never called from a decoder, so D004 ignores it.
fn startup_config() -> String {
    std::env::var("SMP_CONFIG").unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn decode_roundtrip() {
        assert_eq!(super::decode_frame("42").unwrap(), 42);
    }
}
