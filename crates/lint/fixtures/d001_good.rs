// D001 good fixture — analyzed as crates/pipeline/src/wire.rs.
// Floats cross the wire as 16-hex-digit bit patterns; everything else that
// gets formatted is integral or already encoded.

fn encode_f64(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

fn encode_tagged(value: f64) -> String {
    format!("v={}", encode_f64(value))
}

fn frame_header(count: usize, tag: &str) -> String {
    format!("chunk n={count} tag={tag}")
}

fn debug_dump(value: f64) -> String {
    format!("{:?} {:x}", value.to_bits(), value.to_bits())
}

fn frame_counts(entries: Vec<(u32, Complex64)>) -> String {
    // A count projected off a float-typed collection is integral.
    format!("halo n={}", entries.len())
}
