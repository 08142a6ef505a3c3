// D002 good fixture — analyzed as crates/pipeline/src/checkpoint.rs.
// Ordered sinks iterate BTree containers; hash containers appear only for
// keyed lookup, where iteration order never becomes observable.

use std::collections::{BTreeMap, HashMap};

fn write_records(records: &BTreeMap<u64, u64>, out: &mut String) {
    for (k, v) in records.iter() {
        out.push_str(&format!("{k} {v}\n"));
    }
}

fn lookup(cache: &HashMap<u64, u64>, key: u64) -> Option<u64> {
    cache.get(&key).copied()
}

fn count(cache: &HashMap<u64, u64>) -> usize {
    cache.len()
}
