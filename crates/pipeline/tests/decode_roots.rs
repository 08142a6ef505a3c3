//! The decode roots against their own samples: every frame kind, the query
//! request and both reply forms, both transform-spec forms, a checkpoint
//! file and a `.shard` sidecar.
//!
//! `golden_bytes` pins the exact text each encoder writes and the values each
//! loader reads back.  A round-trip test cannot do that: a change applied to
//! the encoder and the decoder alike still round-trips.
//!
//! `token_mutation_sweep` replaces every whitespace token of every sample
//! (and the value of every `key=value` token) with each hostile replacement
//! in turn, and cuts every sample after every token and after every line.  Each decoder must answer every variant with `Ok` or
//! a typed error, never a panic; a spec that decodes must also compile or be
//! refused, since a worker compiles every spec line of a `job` frame it
//! reads.  The sweep is exhaustive and deterministic: no random source, no
//! seed.

use smp_core::query::{MeasureKind, MeasureReport, Provenance};
use smp_numeric::Complex64;
use smp_pipeline::checkpoint::{load_checkpoint_by_measure, CheckpointWriter, ShardSnapshot};
use smp_pipeline::server::{
    decode_query_reply, decode_query_request, encode_query_reply, encode_query_request,
};
use smp_pipeline::transform::CompileError;
use smp_pipeline::wire::{Frame, WireError};
use smp_pipeline::work::WorkItem;
use smp_pipeline::worker::{WorkItemOutcome, WorkerMessage};
use smp_pipeline::{
    CompiledModelSet, ModelSpec, QueryReply, QueryRequest, Refusal, RefusalKind, TargetSpec,
    TransformSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

mod one_stage;

fn c(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

fn item(measure: usize, index: usize, s: Complex64) -> WorkItem {
    WorkItem { measure, index, s }
}

fn voting() -> ModelSpec {
    ModelSpec::Voting {
        voters: 3,
        polling: 1,
        central: 1,
    }
}

fn target(text: &str) -> TargetSpec {
    TargetSpec::parse(text).unwrap()
}

/// One spec of each form: passage and transient (over awkward DNAmaca
/// source).
fn spec_samples() -> Vec<TransformSpec> {
    vec![
        TransformSpec::passage(voting(), target("p2>=2")),
        TransformSpec::transient(
            ModelSpec::Dnamaca("\\place{p}{1}\n% naïve 100%\n".to_string()),
            target("p==0"),
        ),
    ]
}

/// One frame of each of the 17 kinds.
fn frame_samples() -> Vec<Frame> {
    let specs: Vec<String> = spec_samples().iter().map(TransformSpec::encode).collect();
    vec![
        Frame::Hello { version: 3 },
        Frame::Job {
            version: 3,
            worker: 1,
            method: "euler".to_string(),
            specs: specs.clone(),
        },
        Frame::Chunk {
            items: vec![item(0, 0, c(0.5, 1.5)), item(1, 7, c(2.0, -3.25))],
        },
        Frame::Done,
        Frame::Result {
            message: WorkerMessage {
                worker: 1,
                results: vec![
                    WorkItemOutcome {
                        item: item(0, 0, c(0.5, 1.5)),
                        outcome: Ok(c(1.0 / 3.0, -0.0)),
                    },
                    WorkItemOutcome {
                        item: item(1, 7, c(2.0, -3.25)),
                        outcome: Err("did not converge after 64 iterations".to_string()),
                    },
                ],
            },
            busy_nanos: 12_345,
        },
        Frame::Fatal {
            message: "spec compile failed: place 'p9' does not exist".to_string(),
        },
        Frame::SliceJob {
            version: 3,
            worker: 0,
            shards: 2,
            spec: specs[0].clone(),
        },
        Frame::SliceMeta {
            states: 25,
            nnz: 73,
            dists: 9,
            need: vec![3, 7, 99],
        },
        Frame::SliceRoute { rows: vec![12, 13] },
        Frame::SPoint {
            id: 41,
            s: c(0.5, -2.25),
        },
        Frame::Halo {
            id: 41,
            r: 7,
            entries: vec![(3, c(1.0 / 3.0, -0.0)), (99, c(-0.0, 2e-300))],
        },
        Frame::SState {
            id: 41,
            r: 0,
            quiet: true,
            targets: vec![c(0.25, -0.75), Complex64::ZERO],
            exports: vec![(12, c(-1.5, 0.5))],
        },
        Frame::Ping { nonce: 7 },
        Frame::Pong { nonce: u64::MAX },
        Frame::TermReq { id: 9, r: 41 },
        Frame::Term {
            id: 9,
            r: 41,
            entries: vec![(0, c(0.125, 0.0)), (250, c(-2.0, 0.5))],
        },
        Frame::Restore {
            id: 10,
            r: 16,
            s: c(0.25, -1.5),
            entries: vec![(3, c(0.125, 0.0))],
        },
    ]
}

fn request_sample() -> QueryRequest {
    QueryRequest {
        model: voting(),
        engine: "auto".to_string(),
        method: "euler".to_string(),
        deadline: Some(Duration::from_millis(2500)),
        t_points: vec![1.0, 2.5, 14.0],
        measures: vec![
            "density:p2>=2".to_string(),
            "quantile:p2>=2@0.5,0.9".to_string(),
        ],
    }
}

/// A two-report reply (every provenance field set on one, the optional ones
/// absent on the other) and a refusal.
fn reply_samples() -> Vec<QueryReply> {
    let mut full = Provenance::local("distributed", "tcp-pool");
    full.workers = 2;
    full.states = Some(37);
    full.messages = 12;
    full.bytes_on_wire = 4096;
    full.evaluations = 99;
    full.matrix_rebuilds_avoided = 7;
    full.pooled_lst_evaluations = 55;
    full.cache_hits = 3;
    full.shared_hits = 2;
    full.wall = Duration::from_micros(1234);
    full.error_bound = Some(0.5f64.powi(30));
    full.queue_wait = Duration::from_millis(5);
    full.model_cache_hits = 4;
    full.model_cache_misses = 1;
    full.shards = 3;
    full.shard_states = vec![13, 12, 12];
    full.halo_bytes = 2048;
    full.exchange_rounds = 17;
    full.retries = 1;
    full.recovered_faults = 2;
    full.resumed_rounds = 8;
    vec![
        QueryReply::Reports(vec![
            MeasureReport {
                name: "density:p2>=2".to_string(),
                kind: MeasureKind::Density,
                points: vec![1.0, 2.5],
                values: vec![0.25, 0.125],
                provenance: full,
            },
            MeasureReport {
                name: "moment:p2>=2@2".to_string(),
                kind: MeasureKind::Moment { order: 2 },
                points: vec![2.0],
                values: vec![42.0],
                provenance: Provenance::local("uniformization", "phase-ctmc"),
            },
        ]),
        QueryReply::Refusal(Refusal {
            kind: RefusalKind::Busy,
            message: "server is at capacity: 4 in flight".to_string(),
        }),
    ]
}

/// The records a checkpoint sample holds: (key, s, value).
fn checkpoint_records() -> Vec<(&'static str, Complex64, Complex64)> {
    vec![
        ("voters:density", c(0.5, 2.5), c(1.0 / 3.0, -0.0)),
        ("failure cdf", c(1.25, -7.5), c(0.25, 0.0)),
        ("voters:density", c(9.5, 0.0), c(-0.125, 2e-300)),
    ]
}

fn snapshot_sample() -> ShardSnapshot {
    ShardSnapshot {
        key: "voters:density".to_string(),
        s: c(0.125, -3.5),
        round: 17,
        total: c(0.75, 1e-12),
        quiet: 2,
        last_delta: f64::INFINITY,
        entries: vec![
            (0, c(1.0 / 3.0, -2.0e-15)),
            (5, c(-0.25, 0.5)),
            (1023, c(9.75, 0.0)),
        ],
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smp-decode-roots-{}-{name}", std::process::id()))
}

fn write_checkpoint(path: &PathBuf) -> String {
    let _ = std::fs::remove_file(path);
    let mut writer = CheckpointWriter::open(path).unwrap();
    for (key, s, value) in checkpoint_records() {
        writer.record_tagged(key, s, value).unwrap();
    }
    drop(writer);
    std::fs::read_to_string(path).unwrap()
}

fn write_snapshot(path: &PathBuf) -> String {
    snapshot_sample().save(path).unwrap();
    std::fs::read_to_string(path).unwrap()
}

fn bits(value: Complex64) -> (u64, u64) {
    (value.re.to_bits(), value.im.to_bits())
}

const GOLDEN_FRAMES: [&str; 17] = [
    "hello v=3",
    "job v=3 worker=1 method=euler specs=2\n\
     passage v=1 model=voting:3,1,1 targets=p2%3e%3d2\n\
     transient v=1 model=dnamaca:%5cplace%7bp%7d%7b1%7d%0a%25%20na%c3%afve%20100%25%0a targets=p%3d%3d0",
    "chunk n=2\n\
     0 0 3fe0000000000000 3ff8000000000000\n\
     1 7 4000000000000000 c00a000000000000",
    "done",
    "result worker=1 busy_ns=12345 n=2\n\
     0 0 3fe0000000000000 3ff8000000000000 ok 3fd5555555555555 8000000000000000\n\
     1 7 4000000000000000 c00a000000000000 err did%20not%20converge%20after%2064%20iterations",
    "fatal spec%20compile%20failed:%20place%20%27p9%27%20does%20not%20exist",
    "slicejob v=3 worker=0 shards=2\n\
     passage v=1 model=voting:3,1,1 targets=p2%3e%3d2",
    "slicemeta states=25 nnz=73 dists=9 need=3 3 7 99",
    "sliceroute n=2 12 13",
    "spoint id=41 3fe0000000000000 c002000000000000",
    "halo id=41 r=7 n=2\n\
     3 3fd5555555555555 8000000000000000\n\
     99 8000000000000000 01b56e1fc2f8f359",
    "sstate id=41 r=0 quiet=1 targets=2 exports=1\n\
     3fd0000000000000 bfe8000000000000\n\
     0000000000000000 0000000000000000\n\
     12 bff8000000000000 3fe0000000000000",
    "ping nonce=7",
    "pong nonce=18446744073709551615",
    "termreq id=9 r=41",
    "term id=9 r=41 n=2\n\
     0 3fc0000000000000 0000000000000000\n\
     250 c000000000000000 3fe0000000000000",
    "restore id=10 r=16 3fd0000000000000 bff8000000000000 n=1\n\
     3 3fc0000000000000 0000000000000000",
];

const GOLDEN_REQUEST: &str =
    "query v=1 engine=auto method=euler deadline_ms=2500 measures=2 tpoints=3\n\
    model voting:3,1,1\n\
    grid 3ff0000000000000 4004000000000000 402c000000000000\n\
    measure density:p2%3e%3d2\n\
    measure quantile:p2%3e%3d2%400.5%2c0.9\n";

const GOLDEN_REPLIES: [&str; 2] = [
    "reports v=1 n=2\n\
     report name=density:p2%3e%3d2 kind=density\n\
     points 2 3ff0000000000000 4004000000000000\n\
     values 2 3fd0000000000000 3fc0000000000000\n\
     prov engine=distributed backend=tcp-pool workers=2 states=37 messages=12 bytes=4096 evaluations=99 rebuilds=7 pooled=55 cache=3 shared=2 wall_ns=1234000 bound=3e10000000000000 queue_ns=5000000 mhits=4 mmiss=1 shards=3 sstates=13,12,12 halo=2048 rounds=17 retries=1 recovered=2 resumed=8\n\
     report name=moment:p2%3e%3d2%402 kind=moment\n\
     points 1 4000000000000000\n\
     values 1 4045000000000000\n\
     prov engine=uniformization backend=phase-ctmc workers=1 states=- messages=0 bytes=0 evaluations=0 rebuilds=0 pooled=0 cache=0 shared=0 wall_ns=0 bound=- queue_ns=0 mhits=0 mmiss=0 shards=0 sstates=- halo=0 rounds=0 retries=0 recovered=0 resumed=0\n",
    "refusal v=1 kind=busy msg=server%20is%20at%20capacity:%204%20in%20flight\n",
];

const GOLDEN_SPECS: [&str; 2] = [
    "passage v=1 model=voting:3,1,1 targets=p2%3e%3d2",
    "transient v=1 model=dnamaca:%5cplace%7bp%7d%7b1%7d%0a%25%20na%c3%afve%20100%25%0a targets=p%3d%3d0",
];

const GOLDEN_CHECKPOINT: &str =
    "k=voters:density 3fe0000000000000 4004000000000000 3fd5555555555555 8000000000000000\n\
    k=failure%20cdf 3ff4000000000000 c01e000000000000 3fd0000000000000 0000000000000000\n\
    k=voters:density 4023000000000000 0000000000000000 bfc0000000000000 01b56e1fc2f8f359\n";

const GOLDEN_SIDECAR: &str = "shardckpt v=1 key=voters:density s=3fc0000000000000 c00c000000000000 r=17 total=3fe8000000000000 3d719799812dea11 quiet=2 delta=7ff0000000000000 n=3\n\
    0 3fd5555555555555 bce203af9ee75616\n\
    5 bfd0000000000000 3fe0000000000000\n\
    1023 4023800000000000 0000000000000000\n\
    end\n";

#[test]
fn golden_bytes() {
    let frames = frame_samples();
    assert_eq!(frames.len(), GOLDEN_FRAMES.len());
    for (frame, golden) in frames.iter().zip(GOLDEN_FRAMES) {
        assert_eq!(frame.encode().unwrap(), golden);
        assert_eq!(&Frame::decode(golden).unwrap(), frame, "{golden}");
    }

    assert_eq!(encode_query_request(&request_sample()), GOLDEN_REQUEST);
    assert_eq!(
        decode_query_request(GOLDEN_REQUEST).unwrap(),
        request_sample()
    );

    // A reply has no `PartialEq` (its provenance does not), so the decoder is
    // pinned by re-encoding what it read: every field is on the wire.
    for (reply, golden) in reply_samples().iter().zip(GOLDEN_REPLIES) {
        assert_eq!(encode_query_reply(reply), golden);
        assert_eq!(
            encode_query_reply(&decode_query_reply(golden).unwrap()),
            golden
        );
    }

    for (spec, golden) in spec_samples().iter().zip(GOLDEN_SPECS) {
        assert_eq!(spec.encode(), golden);
        assert_eq!(&TransformSpec::decode(golden).unwrap(), spec, "{golden}");
    }

    let path = temp_path("golden-checkpoint");
    assert_eq!(write_checkpoint(&path), GOLDEN_CHECKPOINT);
    let loaded = load_checkpoint_by_measure(&path).unwrap();
    let sizes: Vec<(&str, usize)> = loaded.iter().map(|(k, v)| (k.as_str(), v.len())).collect();
    assert_eq!(sizes, [("failure cdf", 1), ("voters:density", 2)]);
    for (key, s, value) in checkpoint_records() {
        assert_eq!(
            loaded[key].get(s).map(bits),
            Some(bits(value)),
            "{key} at {s}"
        );
    }
    std::fs::remove_file(&path).unwrap();

    let path = temp_path("golden-sidecar");
    assert_eq!(write_snapshot(&path), GOLDEN_SIDECAR);
    let loaded = ShardSnapshot::load(&path)
        .unwrap()
        .expect("the sidecar loads");
    let want = snapshot_sample();
    assert_eq!(loaded, want);
    assert_eq!(bits(loaded.s), bits(want.s));
    assert_eq!(bits(loaded.total), bits(want.total));
    assert_eq!(loaded.last_delta.to_bits(), want.last_delta.to_bits());
    for (got, want) in loaded.entries.iter().zip(&want.entries) {
        assert_eq!((got.0, bits(got.1)), (want.0, bits(want.1)));
    }
    std::fs::remove_file(&path).unwrap();
}

/// What each token is replaced by: nothing, counts past `u64`/`u32`, signs,
/// a bad percent escape and an all-ones (NaN) bit pattern.
const REPLACEMENTS: [&str; 7] = [
    "",
    "18446744073709551615",
    "4294967299",
    "-1",
    "+1",
    "%zz",
    "ffffffffffffffff",
];

/// What each sojourn parameter is replaced by, one at a time: zero, minus
/// one, and an expression that is not finite where it is evaluated (`b` is 0
/// in the marking that enables the sojourn).
const HOSTILE_PARAMETERS: [&str; 3] = ["0", "-1", "1 / b"];

/// One one-stage passage line per distribution family, with each sojourn
/// parameter in turn replaced by each hostile value outside its family's
/// domain (a uniform's lower bound and a deterministic delay may be 0):
/// lines that decode, but whose models make no distribution.
fn hostile_sojourn_specs() -> Vec<String> {
    let families: [(&str, &[&str]); 5] = [
        ("expLT", &["2.0"]),
        ("erlangLT", &["2.0", "3"]),
        ("uniformLT", &["0.2", "1.0"]),
        ("detLT", &["0.3"]),
        ("weibullLT", &["1.5", "0.5"]),
    ];
    let mut out = Vec::new();
    for (family, parameters) in families {
        for k in 0..parameters.len() {
            for hostile in HOSTILE_PARAMETERS {
                let zero_is_legal = matches!((family, k), ("uniformLT" | "detLT", 0));
                if hostile == "0" && zero_is_legal {
                    continue;
                }
                let mut arguments = parameters.to_vec();
                arguments[k] = hostile;
                let lst = format!("{family}({}, s)", arguments.join(", "));
                out.push(one_stage::passage(&lst).encode());
            }
        }
    }
    out
}

/// Every variant of `text` the sweep feeds a decoder.
fn variants(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for token in text.split_whitespace() {
        let from = token.as_ptr() as usize - text.as_ptr() as usize;
        let to = from + token.len();
        // A `key=value` token is mutated twice: whole, and in its value
        // alone, so the decoder gets past the key to the number it guards.
        let value_from = text[from..to].find('=').map(|eq| from + eq + 1);
        for start in [Some(from), value_from].into_iter().flatten() {
            for replacement in REPLACEMENTS {
                out.push(format!("{}{replacement}{}", &text[..start], &text[to..]));
            }
        }
        out.push(text[..to].to_string());
    }
    for (newline, _) in text.match_indices('\n') {
        out.push(text[..=newline].to_string());
    }
    out
}

/// Feeds every variant of every sample to `decode`; returns the variants
/// that panicked, labelled with the root's name.
fn sweep(root: &str, samples: &[String], decode: impl Fn(&str)) -> Vec<String> {
    let mut panicked = Vec::new();
    for sample in samples {
        for variant in variants(sample) {
            if catch_unwind(AssertUnwindSafe(|| decode(&variant))).is_err() {
                panicked.push(format!("{root}: {variant:?}"));
            }
        }
    }
    panicked
}

#[test]
fn token_mutation_sweep() {
    let frames: Vec<String> = frame_samples()
        .iter()
        .map(|frame| frame.encode().unwrap())
        .collect();
    let replies: Vec<String> = reply_samples().iter().map(encode_query_reply).collect();
    let hostile = hostile_sojourn_specs();
    for line in &hostile {
        let spec = TransformSpec::decode(line).unwrap();
        let compiled = CompiledModelSet::compile(&[spec]);
        assert!(
            matches!(compiled, Err(CompileError::Model(_))),
            "{line}: {compiled:?}"
        );
    }
    let mut specs: Vec<String> = spec_samples().iter().map(TransformSpec::encode).collect();
    specs.extend(hostile);
    let checkpoint_path = temp_path("sweep-checkpoint");
    let sidecar_path = temp_path("sweep-sidecar");
    let checkpoint = write_checkpoint(&checkpoint_path);
    let sidecar = write_snapshot(&sidecar_path);

    let mut panicked = Vec::new();
    panicked.extend(sweep("Frame::decode", &frames, |text| {
        let _ = Frame::decode(text);
    }));
    panicked.extend(sweep(
        "decode_query_request",
        &[encode_query_request(&request_sample())],
        |text| {
            let _ = decode_query_request(text);
        },
    ));
    panicked.extend(sweep("decode_query_reply", &replies, |text| {
        let _ = decode_query_reply(text);
    }));
    panicked.extend(sweep("TransformSpec::decode", &specs, |text| {
        if let Ok(spec) = TransformSpec::decode(text) {
            let _ = CompiledModelSet::compile(&[spec]);
        }
    }));
    panicked.extend(sweep("load_checkpoint_by_measure", &[checkpoint], |text| {
        std::fs::write(&checkpoint_path, text).unwrap();
        let _ = load_checkpoint_by_measure(&checkpoint_path);
    }));
    panicked.extend(sweep("ShardSnapshot::load", &[sidecar], |text| {
        std::fs::write(&sidecar_path, text).unwrap();
        let _ = ShardSnapshot::load(&sidecar_path);
    }));
    let _ = std::fs::remove_file(&checkpoint_path);
    let _ = std::fs::remove_file(&sidecar_path);

    assert!(
        panicked.is_empty(),
        "{} variants panicked a decoder:\n{}",
        panicked.len(),
        panicked.join("\n")
    );
}

/// The closed-form `analytic` spec kind is gone: its line is refused as an
/// unknown spec tag, never read as a model-free transform.
#[test]
fn an_analytic_spec_line_is_refused() {
    let refused = TransformSpec::decode("analytic v=1 dist=erlang:4000000000000000:3");
    assert!(
        matches!(&refused, Err(WireError::Malformed { message }) if message.contains("'analytic'")),
        "{refused:?}"
    );
}

/// A `job` frame whose spec line nests 100,000 `cdf-of` prefixes (700 KB,
/// well under the frame cap) decodes as a frame, and its spec line is refused
/// as malformed — on a thread with the default stack, like the worker
/// thread that reads a `job`, which the line once overflowed.
#[test]
fn a_nested_cdf_of_spec_line_is_refused_not_recursed() {
    let line = "cdf-of ".repeat(100_000) + "analytic v=1 dist=exponential:3ff0000000000000";
    let job = Frame::Job {
        version: 3,
        worker: 0,
        method: "euler".to_string(),
        specs: vec![line],
    };
    let payload = job.encode().unwrap();
    let refused = std::thread::spawn(move || {
        let Frame::Job { specs, .. } = Frame::decode(&payload).unwrap() else {
            panic!("a job frame decodes as a job");
        };
        TransformSpec::decode(&specs[0])
    })
    .join()
    .unwrap();
    assert!(
        matches!(refused, Err(WireError::Malformed { .. })),
        "{refused:?}"
    );
}

/// A NaN whose payload is not the canonical quiet NaN's.
const NAN_PAYLOAD: u64 = 0x7ff8_0000_0000_beef;

/// A query over a DNAmaca model whose source escapes most of its bytes
/// (backslashes, braces, newlines, a tab, `%`, non-ASCII), on a grid of
/// subnormal, negative-zero and NaN-payload points.
fn dnamaca_request_sample() -> QueryRequest {
    QueryRequest {
        model: ModelSpec::Dnamaca("\\place{p}{1}\n\t% naïve 100% {a,b}\r\n".to_string()),
        engine: "distributed".to_string(),
        method: "laguerre".to_string(),
        deadline: None,
        t_points: vec![f64::from_bits(1), -0.0, f64::from_bits(NAN_PAYLOAD)],
        measures: vec!["transient:p==0".to_string(), "cdf:p>=1".to_string()],
    }
}

/// A `result` frame whose two values are not finite (one a NaN with a
/// payload, one an infinity), each beside a subnormal: both travel as error
/// outcomes that carry the values' bits.
fn non_finite_result_sample() -> Frame {
    Frame::Result {
        message: WorkerMessage {
            worker: 0,
            results: vec![
                WorkItemOutcome {
                    item: item(0, 3, c(f64::from_bits(1), -0.0)),
                    outcome: Ok(c(f64::from_bits(NAN_PAYLOAD), 0.5)),
                },
                WorkItemOutcome {
                    item: item(1, 4, c(0.5, 2.0)),
                    outcome: Ok(c(f64::NEG_INFINITY, -f64::MIN_POSITIVE / 4.0)),
                },
            ],
        },
        busy_nanos: 0,
    }
}

/// A reply carrying a NaN-payload value and a subnormal error bound.
fn special_value_reply_sample() -> QueryReply {
    let mut provenance = Provenance::local("analytic", "in-process");
    provenance.error_bound = Some(f64::from_bits(1));
    QueryReply::Reports(vec![MeasureReport {
        name: "cdf:p>=1".to_string(),
        kind: MeasureKind::Cdf,
        points: vec![f64::from_bits(1)],
        values: vec![f64::from_bits(NAN_PAYLOAD)],
        provenance,
    }])
}

const GOLDEN_DNAMACA_REQUEST: &str =
    "query v=1 engine=distributed method=laguerre deadline_ms=0 measures=2 tpoints=3\n\
     model dnamaca:%5cplace%7bp%7d%7b1%7d%0a%09%25%20na%c3%afve%20100%25%20%7ba%2cb%7d%0d%0a\n\
     grid 0000000000000001 8000000000000000 7ff800000000beef\n\
     measure transient:p%3d%3d0\n\
     measure cdf:p%3e%3d1\n";
const GOLDEN_NON_FINITE_RESULT: &str =
    "result worker=0 busy_ns=0 n=2\n\
     0 3 0000000000000001 8000000000000000 err non-finite%20transform%20value%20bits%3d7ff800000000beef/3fe0000000000000\n\
     1 4 3fe0000000000000 4000000000000000 err non-finite%20transform%20value%20bits%3dfff0000000000000/8004000000000000";
const GOLDEN_SUBNORMAL_HALO: &str = "halo id=1 r=2 n=1\n\
     0 0000000000000001 8004000000000000";
const GOLDEN_SPECIAL_REPLY: &str =
    "reports v=1 n=1\n\
     report name=cdf:p%3e%3d1 kind=cdf\n\
     points 1 0000000000000001\n\
     values 1 7ff800000000beef\n\
     prov engine=analytic backend=in-process workers=1 states=- messages=0 bytes=0 evaluations=0 rebuilds=0 pooled=0 cache=0 shared=0 wall_ns=0 bound=0000000000000001 queue_ns=0 mhits=0 mmiss=0 shards=0 sstates=- halo=0 rounds=0 retries=0 recovered=0 resumed=0\n";
const GOLDEN_SPECIAL_CHECKPOINT: &str = "k=na%c3%afve%20key%20100%25 0000000000000001 8000000000000000 7ff800000000beef 8004000000000000\n";

/// `golden_bytes` over the paths it does not reach: a model source that is
/// mostly escapes, a non-finite outcome (its bits nested in an escaped error
/// message), and values with a NaN payload or a subnormal.
#[test]
fn golden_bytes_of_escapes_and_special_values() {
    let request = dnamaca_request_sample();
    assert_eq!(encode_query_request(&request), GOLDEN_DNAMACA_REQUEST);
    let decoded = decode_query_request(GOLDEN_DNAMACA_REQUEST).unwrap();
    assert_eq!(decoded.model, request.model);
    let grid_bits = |points: &[f64]| points.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(grid_bits(&decoded.t_points), grid_bits(&request.t_points));
    assert_eq!(encode_query_request(&decoded), GOLDEN_DNAMACA_REQUEST);

    let result = non_finite_result_sample();
    assert_eq!(result.encode().unwrap(), GOLDEN_NON_FINITE_RESULT);
    let decoded = Frame::decode(GOLDEN_NON_FINITE_RESULT).unwrap();
    assert_eq!(decoded.encode().unwrap(), GOLDEN_NON_FINITE_RESULT);

    let halo = Frame::Halo {
        id: 1,
        r: 2,
        entries: vec![(0, c(f64::from_bits(1), -f64::MIN_POSITIVE / 4.0))],
    };
    assert_eq!(halo.encode().unwrap(), GOLDEN_SUBNORMAL_HALO);
    assert_eq!(Frame::decode(GOLDEN_SUBNORMAL_HALO).unwrap(), halo);

    let reply = special_value_reply_sample();
    assert_eq!(encode_query_reply(&reply), GOLDEN_SPECIAL_REPLY);
    let decoded = decode_query_reply(GOLDEN_SPECIAL_REPLY).unwrap();
    assert_eq!(encode_query_reply(&decoded), GOLDEN_SPECIAL_REPLY);

    let path = temp_path("golden-special-checkpoint");
    let _ = std::fs::remove_file(&path);
    let mut writer = CheckpointWriter::open(&path).unwrap();
    let s = c(f64::from_bits(1), -0.0);
    let value = c(f64::from_bits(NAN_PAYLOAD), -f64::MIN_POSITIVE / 4.0);
    writer.record_tagged("naïve key 100%", s, value).unwrap();
    drop(writer);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        GOLDEN_SPECIAL_CHECKPOINT
    );
    std::fs::remove_file(&path).unwrap();
}
