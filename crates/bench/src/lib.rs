//! # smp-bench
//!
//! Experiment harnesses that regenerate every table and figure of the paper's
//! evaluation section (Section 5.3).  The mapping from experiments to binaries
//! is recorded in the workspace `README.md`; performance is measured by the
//! stand-alone `smpbench/` package, not here.
//!
//! Binaries (`cargo run -p smp-bench --release --bin <name>`):
//!
//! | binary  | reproduces | notes |
//! |---------|------------|-------|
//! | `table1`| Table 1 — state-space sizes of voting systems 0–5 | `--full` explores all six systems; the default explores 0–2 and bound-checks the rest |
//! | `fig4`  | Fig. 4 — voter-passage density, analytic vs simulation | `--system N`, `--voters K`, `--quick` |
//! | `fig5`  | Fig. 5 — cumulative distribution + response-time quantile | same flags as `fig4` |
//! | `fig6`  | Fig. 6 — failure-mode passage density, analytic vs simulation | `--system N` |
//! | `fig7`  | Fig. 7 — transient vs steady state for the transit of 5 voters | `--scaled` (default) or `--system 0` |
//! | `table2`| Table 2 — time / speedup / efficiency vs number of workers | `--system N`, `--workers a,b,c` |
//!
//! The shared plumbing in this library keeps the binaries small: argument parsing,
//! system construction and column printing.

use smp_voting::{configs, VotingConfig, VotingSystem};

/// Minimal command-line flag reader (`--name value` and bare `--flag` switches) so
/// the harness binaries do not need an argument-parsing dependency.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// True when the bare flag `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        let needle = format!("--{name}");
        self.raw.iter().any(|a| a == &needle)
    }

    /// The value following `--name`, parsed, or `default` when absent.
    pub fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let needle = format!("--{name}");
        for (i, a) in self.raw.iter().enumerate() {
            if a == &needle {
                if let Some(v) = self.raw.get(i + 1) {
                    if let Ok(parsed) = v.parse() {
                        return parsed;
                    }
                }
            }
        }
        default
    }

    /// A comma-separated list following `--name`, or `default` when absent.
    pub fn list_or(&self, name: &str, default: &[usize]) -> Vec<usize> {
        let needle = format!("--{name}");
        for (i, a) in self.raw.iter().enumerate() {
            if a == &needle {
                if let Some(v) = self.raw.get(i + 1) {
                    let parsed: Vec<usize> =
                        v.split(',').filter_map(|p| p.trim().parse().ok()).collect();
                    if !parsed.is_empty() {
                        return parsed;
                    }
                }
            }
        }
        default.to_vec()
    }
}

/// Builds one of the paper's systems (Table 1) by number.
pub fn build_paper_system(id: u32) -> VotingSystem {
    let system = configs::paper_system(id)
        .unwrap_or_else(|| panic!("unknown paper system {id} (valid: 0-5)"));
    println!(
        "# building system {id}: CC={} MM={} NN={} (paper reports {} states)",
        system.config.voters,
        system.config.polling_units,
        system.config.central_units,
        system.paper_states
    );
    VotingSystem::build(system.config).expect("state-space generation failed")
}

/// Builds a deliberately small voting instance for quick demonstration runs.
pub fn build_scaled_system() -> VotingSystem {
    VotingSystem::build(VotingConfig::new(8, 3, 2)).expect("state-space generation failed")
}

/// Prints aligned data columns with a `#`-prefixed header (gnuplot-friendly, like
/// the data behind the paper's figures).
pub fn print_columns(header: &[&str], rows: &[Vec<f64>]) {
    println!("# {}", header.join("\t"));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        println!("{}", cells.join("\t"));
    }
}

/// Chooses a sensible time grid around a passage's mean: `[lo_frac·mean,
/// hi_frac·mean]` with `points` samples.
pub fn grid_around_mean(mean: f64, lo_frac: f64, hi_frac: f64, points: usize) -> Vec<f64> {
    assert!(mean > 0.0 && lo_frac > 0.0 && hi_frac > lo_frac && points >= 2);
    smp_numeric::stats::linspace(mean * lo_frac, mean * hi_frac, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_values_and_lists() {
        let args = Args {
            raw: vec![
                "--full".into(),
                "--system".into(),
                "3".into(),
                "--workers".into(),
                "1,2,4".into(),
            ],
        };
        assert!(args.flag("full"));
        assert!(!args.flag("quick"));
        assert_eq!(args.value_or("system", 0u32), 3);
        assert_eq!(args.value_or("voters", 18u32), 18);
        assert_eq!(args.list_or("workers", &[1]), vec![1, 2, 4]);
        assert_eq!(args.list_or("threads", &[1, 8]), vec![1, 8]);
    }

    #[test]
    fn scaled_system_is_small_but_nontrivial() {
        let sys = build_scaled_system();
        assert!(sys.num_states() > 50);
        assert!(sys.num_states() < 1_000);
    }

    #[test]
    fn grid_spans_requested_multiples() {
        let g = grid_around_mean(10.0, 0.5, 2.0, 4);
        assert_eq!(g.first().copied(), Some(5.0));
        assert_eq!(g.last().copied(), Some(20.0));
        assert_eq!(g.len(), 4);
    }
}
