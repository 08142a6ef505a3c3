//! On-disk checkpointing of computed transform values.
//!
//! Every `(s, L(s))` pair returned by a worker is appended to a checkpoint file, so
//! that a crashed or interrupted analysis can be restarted without recomputing the
//! points already done — the paper stores results "both in memory and on disk so
//! that all computation is checkpointed".
//!
//! The format is a plain text file, one record per line, in the field grammar
//! of [`crate::wire`]: the measure's transform key, then the point and the
//! value.
//!
//! ```text
//! k=<transform key> <s.re bits hex> <s.im bits hex> <value.re bits hex> <value.im bits hex>
//! ```
//!
//! Bit-exact `f64`s guarantee that a reloaded point matches its planned
//! `s`-point exactly (the cache is keyed by bit pattern).  A line the grammar
//! refuses — a record torn by a crash mid-write, a line without its `k=` tag,
//! trailing junk — is skipped on load, never fatal.

use crate::wire::{self, Body, Line, WireError};
use smp_laplace::TransformValues;
use smp_numeric::Complex64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// An append-only checkpoint writer.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    records: usize,
}

impl CheckpointWriter {
    /// Opens (creating or appending to) a checkpoint file.
    ///
    /// A crash mid-write can leave a torn final record with no terminating
    /// newline. Appending straight after it would merge the first new record
    /// into the torn line, so both would be discarded as malformed on the next
    /// load; the torn tail is therefore newline-terminated before appending.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let unterminated_tail = match File::open(&path) {
            Ok(mut f) => {
                use std::io::{Read, Seek, SeekFrom};
                if f.seek(SeekFrom::End(0))? == 0 {
                    false
                } else {
                    f.seek(SeekFrom::End(-1))?;
                    let mut last = [0u8; 1];
                    f.read_exact(&mut last)?;
                    last[0] != b'\n'
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut writer = BufWriter::new(file);
        if unterminated_tail {
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        Ok(CheckpointWriter {
            path,
            writer,
            records: 0,
        })
    }

    /// Appends one computed value for a measure's transform key and flushes it
    /// to disk.
    pub fn record_tagged(
        &mut self,
        key: &str,
        s: Complex64,
        value: Complex64,
    ) -> std::io::Result<()> {
        let mut line = String::from("k=");
        wire::append_str(&mut line, key);
        for bits in [s.re, s.im, value.re, value.im] {
            line.push(' ');
            wire::append_f64(&mut line, bits);
        }
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written by this writer instance.
    pub fn records_written(&self) -> usize {
        self.records
    }

    /// The checkpoint file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Loads every valid record from a checkpoint file into per-measure shards,
/// each record under its transform key.  A missing file yields an empty map;
/// malformed lines are skipped.
pub fn load_checkpoint_by_measure(
    path: impl AsRef<Path>,
) -> std::io::Result<BTreeMap<String, TransformValues>> {
    let mut shards: BTreeMap<String, TransformValues> = BTreeMap::new();
    let file = match File::open(path.as_ref()) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(shards),
        Err(e) => return Err(e),
    };
    let reader = BufReader::new(file);
    for line in reader.lines() {
        // A checkpoint file is untrusted input (it may be truncated, edited,
        // or from another run): a malformed record is skipped, never fatal.
        if let Ok((key, s, value)) = Line::new(&line?).all(read_record) {
            shards.entry(key).or_default().insert(s, value);
        }
    }
    Ok(shards)
}

/// One `k=<key> <s> <value>` record.
fn read_record(line: &mut Line<'_>) -> Result<(String, Complex64, Complex64), WireError> {
    let key = line.text("k")?;
    let s = Complex64::new(line.bits("s")?, line.bits("s")?);
    let value = Complex64::new(line.bits("value")?, line.bits("value")?);
    Ok((key, s, value))
}

// ---------------------------------------------------------------------------
// Mid-point shard snapshots
// ---------------------------------------------------------------------------

/// The sidecar path holding the mid-point shard snapshot for a checkpoint
/// file: `<checkpoint>.shard`.
pub fn shard_snapshot_path(checkpoint: impl AsRef<Path>) -> PathBuf {
    let mut name = checkpoint.as_ref().as_os_str().to_os_string();
    name.push(".shard");
    PathBuf::from(name)
}

/// The complete mid-point state of a sharded Laplace-space solve: the global
/// term vector (every shard's owned rows, zero entries elided), the
/// convergence fold, and the round counter — everything a restarted master
/// needs to re-handshake a fleet and continue the SpMV iteration from round
/// `round + 1` rather than from scratch.
///
/// The snapshot is *shard-count independent*: entries are keyed by global row
/// index, and row blocks are pure functions of `(num_states, shards)`, so a
/// run killed at 4 shards can resume at 2.  Restoring yields bitwise the
/// iterate the killed run held, so the resumed solve converges to bitwise the
/// fault-free answer.
///
/// On-disk format (the checkpoint's field grammar, one snapshot per file,
/// written atomically via tmp + rename):
///
/// ```text
/// shardckpt v=1 key=<enc> s=<hex16> <hex16> r=<round> total=<hex16> <hex16> quiet=<n> delta=<hex16> n=<entries>
/// <row> <hex16> <hex16>     (× n)
/// end
/// ```
///
/// The trailing `end` sentinel is the torn-write detector: a snapshot missing
/// it (or missing entry lines) loads as `None` and the solve starts the point
/// cold — never from a half-written iterate.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Transform key of the measure whose point was in flight.
    pub key: String,
    /// The Laplace point being solved when the snapshot was taken.
    pub s: Complex64,
    /// The exchange round *after which* the iterate was captured; resumption
    /// continues at `round + 1`.
    pub round: u64,
    /// Running total of the convergence fold (sum of per-round deltas).
    pub total: Complex64,
    /// Consecutive quiet rounds the fold had seen.
    pub quiet: u64,
    /// The fold's last per-round delta magnitude (may be `+inf` before any
    /// round lands).
    pub last_delta: f64,
    /// The global term vector: `(global row, value)`, zero entries elided,
    /// ascending row order.
    pub entries: Vec<(u32, Complex64)>,
}

impl ShardSnapshot {
    /// Writes the snapshot atomically: a temp file in the same directory is
    /// fully written, flushed, then renamed over `path`, so a crash mid-save
    /// leaves either the previous snapshot or a detectably torn temp — never
    /// a half-new file at the real path.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            let mut line = String::from("shardckpt v=1 key=");
            wire::append_str(&mut line, &self.key);
            line.push_str(" s=");
            wire::append_f64(&mut line, self.s.re);
            line.push(' ');
            wire::append_f64(&mut line, self.s.im);
            let _ = write!(line, " r={} total=", self.round);
            wire::append_f64(&mut line, self.total.re);
            line.push(' ');
            wire::append_f64(&mut line, self.total.im);
            let _ = write!(line, " quiet={} delta=", self.quiet);
            wire::append_f64(&mut line, self.last_delta);
            let _ = writeln!(line, " n={}", self.entries.len());
            w.write_all(line.as_bytes())?;
            for &(row, v) in &self.entries {
                line.clear();
                let _ = write!(line, "{row} ");
                wire::append_f64(&mut line, v.re);
                line.push(' ');
                wire::append_f64(&mut line, v.im);
                line.push('\n');
                w.write_all(line.as_bytes())?;
            }
            w.write_all(b"end\n")?;
            w.flush()?;
            w.into_inner()
                .map_err(|e| std::io::Error::other(e.to_string()))?
                .sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads a snapshot, or `None` when the file is missing, torn (no `end`
    /// sentinel, short entry list), or malformed in any way — untrusted input
    /// never panics and never yields a partial iterate.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Option<ShardSnapshot>> {
        match std::fs::read_to_string(path.as_ref()) {
            Ok(text) => Ok(Body::payload(&text, Self::read_snapshot).ok()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn read_snapshot(head: &mut Line<'_>, body: &mut Body<'_>) -> Result<Self, WireError> {
        head.tag("shardckpt")?;
        head.version(1)?;
        let snapshot = ShardSnapshot {
            key: head.text("key")?,
            s: Complex64::new(wire::bits(head.value("s")?, "s")?, head.bits("s")?),
            round: head.key("r")?,
            total: Complex64::new(
                wire::bits(head.value("total")?, "total")?,
                head.bits("total")?,
            ),
            quiet: head.key("quiet")?,
            last_delta: wire::bits(head.value("delta")?, "delta")?,
            entries: body.list(head.key("n")?, |body| {
                body.line("iterate entry", |line| {
                    let row = line.parse("row")?;
                    Ok((
                        row,
                        Complex64::new(line.bits("value")?, line.bits("value")?),
                    ))
                })
            })?,
        };
        body.tag("end")?;
        Ok(snapshot)
    }

    /// Removes the snapshot file (missing is fine — the common case after a
    /// clean completion).
    pub fn remove(path: impl AsRef<Path>) -> std::io::Result<()> {
        match std::fs::remove_file(path.as_ref()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("smp-pipeline-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_exact_bits() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let points = vec![
            (
                Complex64::new(0.1, -0.3),
                Complex64::new(1.0 / 3.0, 2.0e-15),
            ),
            (
                Complex64::new(9.55, std::f64::consts::PI),
                Complex64::new(-0.25, 0.75),
            ),
        ];
        {
            let mut writer = CheckpointWriter::open(&path).unwrap();
            for &(s, v) in &points {
                writer.record_tagged("m", s, v).unwrap();
            }
            assert_eq!(writer.records_written(), 2);
            assert_eq!(writer.path(), path.as_path());
        }
        let loaded = load_checkpoint_by_measure(&path).unwrap();
        assert_eq!(loaded["m"].len(), 2);
        for &(s, v) in &points {
            assert_eq!(loaded["m"].get(s), Some(v));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_loads_empty() {
        let shards = load_checkpoint_by_measure(temp_path("never-created")).unwrap();
        assert!(shards.is_empty());
    }

    #[test]
    fn append_accumulates_and_corrupt_lines_skipped() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = CheckpointWriter::open(&path).unwrap();
            w.record_tagged("m", Complex64::ONE, Complex64::I).unwrap();
        }
        {
            let mut w = CheckpointWriter::open(&path).unwrap();
            w.record_tagged("m", Complex64::new(2.0, 0.0), Complex64::new(0.5, 0.0))
                .unwrap();
        }
        // Simulate a crash mid-write: a truncated line at the end.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "k=m deadbeef 1234").unwrap();
        }
        let loaded = load_checkpoint_by_measure(&path).unwrap();
        assert_eq!(loaded["m"].len(), 2);
        assert_eq!(loaded["m"].get(Complex64::ONE), Some(Complex64::I));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tagged_and_legacy_records_coexist() {
        let path = temp_path("mixed");
        let _ = std::fs::remove_file(&path);
        let s_old = Complex64::new(1.25, -7.5);
        let s_new = Complex64::new(0.5, 2.5);
        {
            // A line in the retired untagged 4-field format (an old tool's
            // file) followed by two tagged records, one of which reuses the
            // *same* s-point under a different measure.
            use std::io::Write as _;
            let mut f = File::create(&path).unwrap();
            let one = wire::encode_f64(1.0);
            writeln!(
                f,
                "{} {} {one} {one}",
                wire::encode_f64(s_old.re),
                wire::encode_f64(s_old.im)
            )
            .unwrap();
        }
        {
            let mut w = CheckpointWriter::open(&path).unwrap();
            w.record_tagged("voters:density", s_new, Complex64::I)
                .unwrap();
            w.record_tagged("failure cdf", s_old, Complex64::new(0.25, 0.0))
                .unwrap();
            assert_eq!(w.records_written(), 2);
        }
        // The untagged line is skipped — neither loaded under any key nor
        // fatal — and the tagged records around it load.
        let shards = load_checkpoint_by_measure(&path).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards["voters:density"].get(s_new), Some(Complex64::I));
        // The space in the key survives the percent-encoding round-trip.
        assert_eq!(
            shards["failure cdf"].get(s_old),
            Some(Complex64::new(0.25, 0.0))
        );
        std::fs::remove_file(&path).unwrap();
    }

    fn sample_snapshot() -> ShardSnapshot {
        ShardSnapshot {
            key: "voters:density".to_string(),
            s: Complex64::new(0.125, -3.5),
            round: 17,
            total: Complex64::new(0.75, 1e-12),
            quiet: 2,
            last_delta: 4.0e-11,
            entries: vec![
                (0, Complex64::new(1.0 / 3.0, -2.0e-15)),
                (5, Complex64::new(-0.25, 0.5)),
                (1023, Complex64::new(9.75, 0.0)),
            ],
        }
    }

    #[test]
    fn shard_snapshot_round_trips_bitwise() {
        let path = temp_path("shard-roundtrip");
        let _ = std::fs::remove_file(&path);
        let snapshot = sample_snapshot();
        snapshot.save(&path).unwrap();
        let loaded = ShardSnapshot::load(&path).unwrap().expect("snapshot loads");
        assert_eq!(loaded, snapshot);
        // Bit-exactness beyond PartialEq: the f64s must be the same bits.
        assert_eq!(loaded.s.re.to_bits(), snapshot.s.re.to_bits());
        assert_eq!(
            loaded.entries[0].1.im.to_bits(),
            snapshot.entries[0].1.im.to_bits()
        );
        ShardSnapshot::remove(&path).unwrap();
        assert!(ShardSnapshot::load(&path).unwrap().is_none());
        ShardSnapshot::remove(&path).unwrap(); // second remove is fine
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_snapshot_survives_infinite_delta() {
        // A point killed before its first round has last_delta = +inf; the
        // raw-bits f64 encoding must round-trip it.
        let path = temp_path("shard-inf");
        let _ = std::fs::remove_file(&path);
        let mut snapshot = sample_snapshot();
        snapshot.last_delta = f64::INFINITY;
        snapshot.save(&path).unwrap();
        let loaded = ShardSnapshot::load(&path).unwrap().expect("snapshot loads");
        assert!(loaded.last_delta.is_infinite());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_shard_snapshot_loads_as_none() {
        let path = temp_path("shard-torn");
        let _ = std::fs::remove_file(&path);
        let snapshot = sample_snapshot();
        snapshot.save(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        // Drop the `end` sentinel: must refuse.
        std::fs::write(&path, full.trim_end_matches("end\n")).unwrap();
        assert!(ShardSnapshot::load(&path).unwrap().is_none());
        // Truncate mid-entry: must refuse.
        let cut = full.len() - 20;
        std::fs::write(&path, &full[..cut]).unwrap();
        assert!(ShardSnapshot::load(&path).unwrap().is_none());
        // Garbage header: must refuse, not panic.
        std::fs::write(&path, "not a snapshot\n").unwrap();
        assert!(ShardSnapshot::load(&path).unwrap().is_none());
        // The intact file still loads (sanity that the trims were the cause).
        std::fs::write(&path, &full).unwrap();
        assert_eq!(ShardSnapshot::load(&path).unwrap(), Some(snapshot));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_snapshot_path_is_a_sidecar() {
        assert_eq!(
            shard_snapshot_path("/tmp/run.ckpt"),
            PathBuf::from("/tmp/run.ckpt.shard")
        );
    }

    #[test]
    fn key_encoding_is_the_shared_wire_string_field() {
        // Records written with the shared primitives stay readable and
        // single-field for awkward keys (escape-sequence edge cases are
        // covered by the wire module's own tests).
        for key in ["plain", "with space", "pct%sign", "naïve-ütf8", "a=b k=c"] {
            let encoded = wire::encode_str(key);
            assert!(
                !encoded.contains(char::is_whitespace),
                "encoded {encoded:?} must be one field"
            );
            assert_eq!(wire::decode_str(&encoded).as_deref(), Some(key));
        }
    }
}
