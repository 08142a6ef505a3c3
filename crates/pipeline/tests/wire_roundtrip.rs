//! Property tests for the wire protocol: `TransformSpec` and `WorkerMessage`
//! encodings round-trip for arbitrary payloads, and non-finite quantities are
//! rejected at the boundary instead of poisoning the cache.

use proptest::prelude::*;
use smp_numeric::Complex64;
use smp_pipeline::wire::{
    decode_finite_f64, decode_worker_message, encode_f64, encode_finite_f64, encode_worker_message,
    frame_checksum, read_frame, read_payload, write_frame, write_payload, Frame, WireError,
    FRAME_HEADER_BYTES,
};
use smp_pipeline::work::WorkItem;
use smp_pipeline::worker::{WorkItemOutcome, WorkerMessage};
use smp_pipeline::{ModelSpec, TargetSpec, TransformSpec};

mod one_stage;

/// Builds a printable-but-awkward string (spaces, escapes, UTF-8) from raw
/// bytes — the vendored proptest has no string strategy, so payload strings
/// are derived from byte vectors.
fn string_from(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A place name restricted to identifier characters: predicate round-trips go
/// through the `PLACE OP N` source form, which (like DNAmaca itself) cannot
/// represent operator characters inside a place name.
fn place_from(bytes: &[u8]) -> String {
    let mut place: String = bytes.iter().map(|b| (b'a' + (b % 26)) as char).collect();
    if place.is_empty() {
        place.push('p');
    }
    place
}

const OPS: [smp_pipeline::CompareOp; 6] = [
    smp_pipeline::CompareOp::Ge,
    smp_pipeline::CompareOp::Le,
    smp_pipeline::CompareOp::Gt,
    smp_pipeline::CompareOp::Lt,
    smp_pipeline::CompareOp::Eq,
    smp_pipeline::CompareOp::Ne,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn worker_messages_round_trip(
        worker in 0usize..1024,
        busy in 0u64..u64::MAX,
        raw in collection::vec(
            (0usize..16, 0usize..100_000, -1e300f64..1e300, -1e300f64..1e300,
             -1e12f64..1e12, 0u8..3),
            0..24),
        message_bytes in collection::vec(0u8..255, 0..32))
    {
        let results: Vec<WorkItemOutcome> = raw
            .iter()
            .enumerate()
            .map(|(k, &(measure, index, re, im, value, tag))| WorkItemOutcome {
                item: WorkItem {
                    measure,
                    index,
                    s: Complex64::new(re, im),
                },
                outcome: match tag {
                    0 => Ok(Complex64::new(value, -value / 3.0)),
                    1 => Ok(Complex64::new(0.0, value)),
                    _ => Err(format!("case {k}: {}", string_from(&message_bytes))),
                },
            })
            .collect();
        let message = WorkerMessage { worker, results };
        let payload = encode_worker_message(&message, busy).unwrap();
        let (decoded, decoded_busy) = decode_worker_message(&payload).unwrap();
        // Bit-exact: every s-point and value survives, error text included.
        prop_assert_eq!(decoded, message);
        prop_assert_eq!(decoded_busy, busy);
    }

    #[test]
    fn non_finite_values_never_survive_as_numbers(
        re in -1e300f64..1e300,
        pick in 0u8..3)
    {
        let bad = match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        // Quantity fields reject NaN/∞ at encode time…
        prop_assert!(matches!(
            encode_finite_f64(bad, "s"),
            Err(WireError::NonFinite { .. })
        ));
        // …and at decode time, even when the hex bit pattern itself is valid.
        prop_assert!(matches!(
            decode_finite_f64(&encode_f64(bad), "s"),
            Err(WireError::NonFinite { .. })
        ));
        // A poisoned success outcome is demoted to an error outcome on the
        // wire rather than entering the master's cache as a number.
        let outcome = WorkItemOutcome {
            item: WorkItem {
                measure: 0,
                index: 0,
                s: Complex64::new(re, 1.0),
            },
            outcome: Ok(Complex64::new(bad, 0.0)),
        };
        let message = WorkerMessage { worker: 0, results: vec![outcome] };
        let payload = encode_worker_message(&message, 0).unwrap();
        let (decoded, _) = decode_worker_message(&payload).unwrap();
        let text = decoded.results[0].outcome.clone().unwrap_err();
        prop_assert!(text.contains("non-finite"), "{}", text);
    }

    #[test]
    fn voting_and_analytic_specs_round_trip(
        (voters, polling, central) in (1u32..2000, 1u32..50, 1u32..50),
        place_bytes in collection::vec(0u8..255, 0..12),
        op_index in 0usize..6,
        count in 0u32..10_000,
        (rate, shape) in (1e-6f64..1e6, 0.1f64..50.0),
        phases in 1u32..64)
    {
        let targets = TargetSpec {
            place: place_from(&place_bytes),
            op: OPS[op_index],
            count,
        };
        let model = ModelSpec::Voting { voters, polling, central };
        let specs = [
            TransformSpec::passage(model.clone(), targets.clone()),
            TransformSpec::transient(model, targets),
            one_stage::passage(&format!("erlangLT({rate:?}, {phases}, s)")),
            one_stage::passage(&format!("weibullLT({shape:?}, {rate:?}, s)")),
        ];
        for spec in specs {
            let line = spec.encode();
            prop_assert!(!line.contains('\n'));
            prop_assert_eq!(TransformSpec::decode(&line).unwrap(), spec);
        }
    }

    #[test]
    fn arbitrary_dnamaca_sources_round_trip(
        source_bytes in collection::vec(0u8..255, 0..200),
        place_bytes in collection::vec(0u8..255, 1..8))
    {
        // The model source is shipped verbatim — whitespace, escapes and
        // multi-byte UTF-8 included.
        let source = string_from(&source_bytes);
        let spec = TransformSpec::transient(
            ModelSpec::Dnamaca(source.clone()),
            TargetSpec {
                place: place_from(&place_bytes),
                op: smp_pipeline::CompareOp::Ge,
                count: 1,
            },
        );
        let decoded = TransformSpec::decode(&spec.encode()).unwrap();
        prop_assert_eq!(&decoded, &spec);
        match decoded.model() {
            ModelSpec::Dnamaca(decoded_source) => prop_assert_eq!(decoded_source, &source),
            other => panic!("expected a DNAmaca model, got {other:?}"),
        }
    }

    #[test]
    fn checksummed_payloads_round_trip(payload_bytes in collection::vec(0u8..255, 0..4096)) {
        // Arbitrary UTF-8 text survives the checksummed length-prefixed
        // framing byte for byte, and both directions agree on the wire size.
        let payload = string_from(&payload_bytes);
        let mut wire = Vec::new();
        let written = write_payload(&mut wire, &payload).unwrap();
        prop_assert_eq!(written, wire.len() as u64);
        prop_assert_eq!(written, FRAME_HEADER_BYTES + payload.len() as u64);
        let (text, taken) = read_payload(&mut wire.as_slice()).unwrap();
        prop_assert_eq!(text, payload);
        prop_assert_eq!(taken, written);
    }

    #[test]
    fn random_byte_flips_in_a_payload_frame_never_decode(
        payload_bytes in collection::vec(0u8..255, 0..512),
        position in 0usize..1024,
        xor in 1u8..=255)
    {
        // A flipped byte anywhere in the frame — length prefix, checksum or
        // payload — must surface as a refusal, never as silently different
        // (or even silently identical) decoded text.
        let payload = string_from(&payload_bytes);
        let mut wire = Vec::new();
        write_payload(&mut wire, &payload).unwrap();
        let position = position % wire.len();
        wire[position] ^= xor;
        prop_assert!(
            read_payload(&mut wire.as_slice()).is_err(),
            "flip of byte {} (xor {:#04x}) in a {}-byte frame went unnoticed",
            position, xor, wire.len()
        );
    }

    #[test]
    fn random_byte_flips_in_a_worker_result_frame_never_decode(
        worker in 0usize..64,
        (measure, index) in (0usize..8, 0usize..1000),
        (re, im, value) in (-1e300f64..1e300, -1e300f64..1e300, -1e12f64..1e12),
        position in 0usize..4096,
        xor in 1u8..=255)
    {
        // The same property over a real protocol frame: a corrupted result
        // chunk is refused instead of feeding a wrong value into the
        // master's cache (where it would poison the checkpoint too).
        let message = WorkerMessage {
            worker,
            results: vec![WorkItemOutcome {
                item: WorkItem { measure, index, s: Complex64::new(re, im) },
                outcome: Ok(Complex64::new(value, -value / 7.0)),
            }],
        };
        let frame = Frame::Result {
            message,
            busy_nanos: 3,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let (decoded, _) = read_frame(&mut wire.as_slice()).unwrap();
        prop_assert_eq!(&decoded, &frame);
        let position = position % wire.len();
        wire[position] ^= xor;
        prop_assert!(read_frame(&mut wire.as_slice()).is_err());
    }
}

/// Exhaustive, not sampled: *every* single-bit flip at *every* byte position
/// of a representative frame is either detected by the checksum or refused by
/// a typed guard — there is no position/bit combination that decodes.
///
/// (Every per-byte FNV-1a step is a bijection of the running hash, so a flip
/// that leaves the frame length unchanged provably changes the checksum; a
/// flip in the length prefix changes how many bytes are read, which the
/// length-covering checksum, the size cap or the truncation guard catches.)
#[test]
fn every_single_bit_flip_in_a_frame_is_detected_or_refused() {
    let message = WorkerMessage {
        worker: 5,
        results: vec![
            WorkItemOutcome {
                item: WorkItem {
                    measure: 1,
                    index: 42,
                    s: Complex64::new(2.5, -1.25),
                },
                outcome: Ok(Complex64::new(0.125, 3.0)),
            },
            WorkItemOutcome {
                item: WorkItem {
                    measure: 0,
                    index: 7,
                    s: Complex64::new(-4.0, 0.5),
                },
                outcome: Err("worker overheated".to_string()),
            },
        ],
    };
    let frame = Frame::Result {
        message,
        busy_nanos: 123_456,
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &frame).unwrap();
    let (reread, _) = read_frame(&mut wire.as_slice()).unwrap();
    assert_eq!(reread, frame);

    for position in 0..wire.len() {
        for bit in 0..8u8 {
            let mut corrupted = wire.clone();
            corrupted[position] ^= 1 << bit;
            assert!(
                read_frame(&mut corrupted.as_slice()).is_err(),
                "bit {bit} of byte {position}/{} flipped without detection",
                wire.len()
            );
        }
    }
}

/// A sink that keeps what it is given and counts the `write` calls it took.
#[derive(Default)]
struct CountingWrite {
    bytes: Vec<u8>,
    writes: usize,
}

impl std::io::Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A frame reaches its stream in one `write` — header and payload together,
/// so a `TCP_NODELAY` socket sends one segment where three small writes
/// could send three — and its bytes are still `len ‖ checksum ‖ payload`.
#[test]
fn a_frame_is_one_write_of_length_checksum_and_payload() {
    let large = "x".repeat(100_000);
    let frames = [Frame::Ping { nonce: 7 }, Frame::Pong { nonce: 7 }];
    let mut payloads: Vec<String> = frames.iter().map(|f| f.encode().unwrap()).collect();
    payloads.extend([String::new(), "query v=1".to_string(), large]);
    for payload in &payloads {
        let mut sink = CountingWrite::default();
        let sent = write_payload(&mut sink, payload).unwrap();
        assert_eq!(sink.writes, 1, "{} payload bytes", payload.len());
        let len = u32::try_from(payload.len()).unwrap();
        let mut expected = len.to_be_bytes().to_vec();
        expected.extend_from_slice(&frame_checksum(len, payload.as_bytes()).to_be_bytes());
        expected.extend_from_slice(payload.as_bytes());
        assert_eq!(sink.bytes, expected);
        assert_eq!(sent, FRAME_HEADER_BYTES + payload.len() as u64);
    }
    for frame in &frames {
        let mut sink = CountingWrite::default();
        write_frame(&mut sink, frame).unwrap();
        assert_eq!(sink.writes, 1);
        assert_eq!(read_frame(&mut sink.bytes.as_slice()).unwrap().0, *frame);
    }
}
