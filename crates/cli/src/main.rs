//! The `smpq` binary: parse flags, run the analysis, print the report.
//!
//! All the logic lives in the `smp_cli` library so it can be unit-tested; this
//! file only handles process concerns (argv, exit codes, stderr).

/// Parses a subcommand's arguments and runs it with the shared exit-code
/// convention: usage errors print the help text and exit 2, runtime errors
/// exit 1, `--help` prints the help text and exits 0.
fn dispatch<O>(
    args: &[String],
    parse: impl Fn(&[String]) -> Result<O, smp_cli::CliError>,
    run: impl Fn(&O) -> Result<String, smp_cli::CliError>,
) {
    let options = match parse(args) {
        Ok(options) => options,
        Err(smp_cli::CliError::Help) => {
            println!("{}", smp_cli::usage());
            return;
        }
        Err(error) => {
            eprintln!("{error}\n\n{}", smp_cli::usage());
            std::process::exit(2);
        }
    };
    match run(&options) {
        Ok(report) => print!("{report}"),
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    match args.first().map(String::as_str) {
        // `smpq worker ...` — the slave-processor mode of the TCP transport.
        Some("worker") => dispatch(&args[1..], smp_cli::parse_worker_args, smp_cli::run_worker),
        // `smpq serve ...` — the always-on query daemon.
        Some("serve") => dispatch(&args[1..], smp_cli::parse_serve_args, smp_cli::run_serve),
        // `smpq query ...` — ship one query to a running daemon.
        Some("query") => dispatch(&args[1..], smp_cli::parse_query_args, smp_cli::run_query),
        // `smpq shutdown ...` — ask a running daemon to drain and exit.
        Some("shutdown") => dispatch(
            &args[1..],
            smp_cli::parse_shutdown_args,
            smp_cli::run_shutdown,
        ),
        // No subcommand: a one-shot analysis run.
        _ => dispatch(&args, smp_cli::parse_args, smp_cli::run),
    }
}
