// D003 bad fixture — analyzed as crates/core/src/passage.rs.
// Wall clocks and OS entropy influencing values: runs stop reproducing.

use std::time::{Instant, SystemTime};

fn seed_from_clock() -> u64 {
    let now = SystemTime::now();
    let _ = now;
    0
}

fn perturb(x: f64) -> f64 {
    let t = Instant::now();
    let _ = t;
    x
}

fn random_start() -> u64 {
    let rng = thread_rng();
    let _ = rng;
    0
}
