//! Role children: the worker, shard-holder and server processes of a
//! workload are this executable started again in a hidden `--role`, so the
//! benchmark needs no other binary.  Each prints its own peak resident set
//! on exit, which the parent folds into `peak_rss_mb`.

use smp_core::query::MeasureReport;
use smp_pipeline::server::{decode_query_reply, encode_query_reply};
use smp_pipeline::wire::{read_payload, write_payload};
use smp_pipeline::{run_tcp_worker, QueryReply, QueryServer, QueryServerOptions, TcpWorkerOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdout, Command, Stdio};

const RSS_LINE: &str = "rss_hwm_kb=";
const LISTEN_LINE: &str = "listening=";

/// This process's peak resident set so far (`VmHWM`), in kB.
pub fn self_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `--role worker --connect ADDR`: one chunk worker or shard holder (the
/// pipeline's worker loop serves both kinds of job).
pub fn worker_main(connect: &str) -> Result<(), String> {
    run_tcp_worker(connect, &TcpWorkerOptions::default())?;
    println!("{RSS_LINE}{}", self_hwm_kb());
    Ok(())
}

/// `--role serve`: a query server with the shipped default options on an
/// ephemeral port, announced on stdout.
pub fn serve_main() -> Result<(), String> {
    let server = QueryServer::bind(QueryServerOptions::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("{LISTEN_LINE}{addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())?;
    println!("{RSS_LINE}{}", self_hwm_kb());
    Ok(())
}

/// `--role reference --workload NAME [--smoke]`: solves the workload's
/// requests with the analytic engine and writes the reports to stdout in the
/// query service's reply encoding, which carries every float bit for bit.
pub fn reference_main(workload: &str, smoke: bool) -> Result<(), String> {
    let reports = crate::workloads::solve_reference(workload, smoke)?;
    let mut stdout = std::io::stdout().lock();
    write_payload(
        &mut stdout,
        &encode_query_reply(&QueryReply::Reports(reports)),
    )
    .map_err(|e| e.to_string())?;
    writeln!(stdout, "{RSS_LINE}{}", self_hwm_kb()).map_err(|e| e.to_string())
}

/// A running role child.  Dropping it kills and reaps the process, so no
/// error path leaves one behind.
pub struct RoleChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl RoleChild {
    fn spawn(args: &[&str]) -> Result<RoleChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start role child {args:?}: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(RoleChild { child, stdout })
    }

    pub fn worker(connect: &str) -> Result<RoleChild, String> {
        RoleChild::spawn(&["--role", "worker", "--connect", connect])
    }

    /// Runs a reference child to its end and returns the reports it solved.
    pub fn reference(workload: &str, smoke: bool) -> Result<Vec<MeasureReport>, String> {
        let mut args = vec!["--role", "reference", "--workload", workload];
        if smoke {
            args.push("--smoke");
        }
        let mut child = RoleChild::spawn(&args)?;
        let (payload, _) =
            read_payload(&mut child.stdout).map_err(|e| format!("reference child: {e}"))?;
        child.join()?;
        match decode_query_reply(&payload).map_err(|e| format!("reference child: {e}"))? {
            QueryReply::Reports(reports) => Ok(reports),
            other => Err(format!("reference child answered {other:?}")),
        }
    }

    /// Starts a server child and waits for the address it listens on.
    pub fn server() -> Result<(RoleChild, String), String> {
        let mut child = RoleChild::spawn(&["--role", "serve"])?;
        let mut line = String::new();
        child
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("server child: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix(LISTEN_LINE)
            .ok_or_else(|| format!("server child announced '{}'", line.trim()))?
            .to_string();
        Ok((child, addr))
    }

    /// Waits for the child to end by itself and returns its peak resident
    /// set in kB.
    pub fn join(mut self) -> Result<u64, String> {
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("role child output: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("role child wait: {e}"))?;
        if !status.success() {
            return Err(format!("role child ended with {status}"));
        }
        rest.lines()
            .find_map(|l| l.strip_prefix(RSS_LINE))
            .and_then(|kb| kb.trim().parse().ok())
            .ok_or_else(|| "role child did not report its peak resident set".to_string())
    }
}

impl Drop for RoleChild {
    fn drop(&mut self) {
        // After `join` the process is already reaped and both calls are
        // harmless errors.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
