//! Smoke test of the `pipeline::checkpoint` on-disk format through the public
//! umbrella API: write → load round-trip, append-on-reopen, and the documented
//! crash-recovery behaviour where a malformed line (a record truncated
//! mid-write, a line without its key tag) is ignored on load.

use smp_suite::laplace::TransformValues;
use smp_suite::numeric::Complex64;
use smp_suite::pipeline::checkpoint::{load_checkpoint_by_measure, CheckpointWriter};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The transform key every record of this file is written under.
const KEY: &str = "smoke";

/// The records loaded under [`KEY`] (empty when the file has none).
fn load(path: &Path) -> TransformValues {
    load_checkpoint_by_measure(path)
        .unwrap()
        .remove(KEY)
        .unwrap_or_default()
}

fn temp_checkpoint(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "smp-suite-ckpt-smoke-{}-{tag}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn checkpoint_write_load_roundtrip_is_bit_exact() {
    let path = temp_checkpoint("roundtrip");
    // Values chosen to stress the bit-exact encoding: negatives, tiny
    // magnitudes, non-terminating binary fractions.
    let records = [
        (
            Complex64::new(0.1, -7.25),
            Complex64::new(1.0 / 3.0, -2.0e-300),
        ),
        (
            Complex64::new(-4.5e10, 0.0),
            Complex64::new(0.0, f64::MIN_POSITIVE),
        ),
        (Complex64::new(2.0, 3.0), Complex64::new(-1.0, 1.0)),
    ];
    {
        let mut w = CheckpointWriter::open(&path).unwrap();
        for &(s, v) in &records {
            w.record_tagged(KEY, s, v).unwrap();
        }
        assert_eq!(w.records_written(), records.len());
    }
    let loaded = load(&path);
    assert_eq!(loaded.len(), records.len());
    for &(s, v) in &records {
        assert_eq!(loaded.get(s), Some(v), "lost or altered record for s = {s}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_survives_crash_torn_write() {
    let path = temp_checkpoint("torn-write");
    {
        let mut w = CheckpointWriter::open(&path).unwrap();
        w.record_tagged(KEY, Complex64::new(1.0, 2.0), Complex64::new(0.5, -0.5))
            .unwrap();
        w.record_tagged(KEY, Complex64::new(3.0, 4.0), Complex64::new(0.25, 0.0))
            .unwrap();
    }
    // Simulate a crash mid-append: the last line stops after two of the four
    // fields and has no trailing newline.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "k=smoke 3ff0000000000000 4000").unwrap();
    }
    // The documented recovery path: both complete records load, the torn
    // trailing line is ignored rather than corrupting the restart.
    let loaded = load(&path);
    assert_eq!(loaded.len(), 2);
    assert_eq!(
        loaded.get(Complex64::new(1.0, 2.0)),
        Some(Complex64::new(0.5, -0.5))
    );
    assert_eq!(
        loaded.get(Complex64::new(3.0, 4.0)),
        Some(Complex64::new(0.25, 0.0))
    );

    // Restarting after recovery keeps appending valid records.
    {
        let mut w = CheckpointWriter::open(&path).unwrap();
        w.record_tagged(KEY, Complex64::new(5.0, 6.0), Complex64::new(1.0, 1.0))
            .unwrap();
    }
    let reloaded = load(&path);
    assert_eq!(reloaded.len(), 3);
    assert_eq!(
        reloaded.get(Complex64::new(5.0, 6.0)),
        Some(Complex64::new(1.0, 1.0))
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn missing_checkpoint_means_cold_start() {
    let loaded = load(&temp_checkpoint("never-written"));
    assert!(loaded.is_empty());
}

#[test]
fn truncation_inside_fourth_field_is_rejected_not_misparsed() {
    let path = temp_checkpoint("mid-field");
    {
        let mut w = CheckpointWriter::open(&path).unwrap();
        w.record_tagged(KEY, Complex64::new(1.0, 2.0), Complex64::new(0.5, -0.5))
            .unwrap();
    }
    // A crash that cuts the final record *inside* its 4th hex field leaves
    // all of its whitespace-separated tokens; the short fragment "4a" must not be
    // decoded as a (tiny, wrong) f64 for the real planned s-point.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(
            f,
            "k=smoke 4000000000000000 4008000000000000 3fd0000000000000 4a"
        )
        .unwrap();
    }
    let loaded = load(&path);
    assert_eq!(loaded.len(), 1, "torn mid-field record must be discarded");
    assert_eq!(loaded.get(Complex64::new(2.0, 3.0)), None);

    // After restart the same s-point is recomputed and recorded cleanly.
    {
        let mut w = CheckpointWriter::open(&path).unwrap();
        w.record_tagged(KEY, Complex64::new(2.0, 3.0), Complex64::new(0.25, 0.0))
            .unwrap();
    }
    let reloaded = load(&path);
    assert_eq!(reloaded.len(), 2);
    assert_eq!(
        reloaded.get(Complex64::new(2.0, 3.0)),
        Some(Complex64::new(0.25, 0.0))
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn untagged_four_field_line_is_skipped_not_loaded_and_not_fatal() {
    let path = temp_checkpoint("untagged");
    // A complete record in the retired untagged format (no `k=` field), as an
    // old version of the tool wrote it, followed by a tagged record.
    {
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(
            f,
            "3ff0000000000000 4000000000000000 3fe0000000000000 bfe0000000000000"
        )
        .unwrap();
    }
    {
        let mut w = CheckpointWriter::open(&path).unwrap();
        w.record_tagged(KEY, Complex64::new(3.0, 4.0), Complex64::new(0.25, 0.0))
            .unwrap();
    }
    let shards = load_checkpoint_by_measure(&path).unwrap();
    assert_eq!(shards.len(), 1, "the untagged line lands under no key");
    assert_eq!(shards[KEY].len(), 1);
    assert_eq!(shards[KEY].get(Complex64::new(1.0, 2.0)), None);
    assert_eq!(
        shards[KEY].get(Complex64::new(3.0, 4.0)),
        Some(Complex64::new(0.25, 0.0))
    );
    std::fs::remove_file(&path).unwrap();
}
