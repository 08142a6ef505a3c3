// D004 bad fixture — analyzed as crates/pipeline/src/wire.rs.
// Panics reachable from the untrusted-input decoder: one malformed frame
// kills the worker.

fn decode_frame(line: &str) -> u64 {
    let field = line.split(' ').next().unwrap();
    parse_field(field)
}

fn parse_field(field: &str) -> u64 {
    field.parse().expect("bad field")
}

fn reject(reason: &str) -> u64 {
    panic!("malformed frame: {reason}")
}

fn decode_tag(line: &str) -> u64 {
    if line.is_empty() {
        return reject("empty");
    }
    0
}

fn load(path: &str) -> u64 { path.parse().unwrap() }
