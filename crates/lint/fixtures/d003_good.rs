// D003 good fixture — analyzed as crates/core/src/passage.rs.
// Results are a pure function of (model, measure, parameters): RNGs are
// explicitly seeded, and the only clock reading sits in test code.

fn seeded_stream(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

fn passage_value(alpha: f64, beta: f64) -> f64 {
    alpha / (alpha + beta)
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_inside_tests_is_fine() {
        let started = std::time::Instant::now();
        assert!(started.elapsed().as_secs() < 60);
    }
}
