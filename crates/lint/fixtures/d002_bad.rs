// D002 bad fixture — analyzed as crates/pipeline/src/checkpoint.rs.
// Hash-container iteration feeding an ordered sink: record order varies
// run to run.

use std::collections::{HashMap, HashSet};

fn write_records(records: &HashMap<u64, u64>, out: &mut String) {
    for (k, v) in records.iter() {
        out.push_str(&format!("{k} {v}\n"));
    }
}

fn write_keys(seen: &HashSet<u64>, out: &mut Vec<u64>) {
    out.extend(seen.iter().copied());
}

fn dispatch_order(pending: HashSet<u64>) -> Vec<u64> {
    let mut order = Vec::new();
    for id in &pending {
        order.push(*id);
    }
    order
}
