// D001 bad fixture — analyzed as crates/pipeline/src/wire.rs.
// Decimal float formatting on a wire path: every one of these rounds.

fn encode_result(value: f64) -> String {
    format!("res {}", value)
}

fn encode_point(re: f64, im: f64) -> String {
    format!("{re} {im}")
}

fn encode_precise(value: f64) -> String {
    format!("{:.17}", value)
}

fn encode_cast(raw: u32) -> String {
    format!("{}", raw as f64)
}
