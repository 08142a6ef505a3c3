//! State-space exploration pinned bit for bit.
//!
//! Every downstream table — the `UStructure`, the recipes, each transform
//! value — is a function of what exploration emits: the state numbering, each
//! state's outgoing `(target, probability, DistId)` list in order, and the
//! distribution pool in its numbering.  This suite folds all three into one
//! FNV-1a digest per model and compares it with the digest recorded when the
//! explorer last changed, so a rewrite of the explorer that renumbers a state,
//! reorders a transition, moves a probability by one ulp or re-numbers the pool
//! fails here, before any transform is computed.

mod corpus;

use smp_suite::pipeline::ModelSpec;
use smp_suite::smspn::StateSpace;
use smp_suite::voting::{VotingConfig, VotingSystem};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// `(states, edges, digest)` of an explored state space.
fn digest(space: &StateSpace) -> (usize, usize, u64) {
    let mut h = Fnv::new();
    for s in 0..space.num_states() {
        for &tokens in space.marking(s).as_slice() {
            h.bytes(&tokens.to_le_bytes());
        }
    }
    let smp = space.smp();
    for s in 0..space.num_states() {
        let row = smp.transitions(s);
        h.u64(row.len() as u64);
        for t in row {
            h.u64(t.target as u64);
            h.u64(t.probability.to_bits());
            h.bytes(&t.dist.to_le_bytes());
        }
    }
    for id in 0..smp.num_distributions() {
        // `Debug` prints every f64 parameter in its shortest round-trip form.
        h.bytes(format!("{:?}", smp.distribution(id as u32)).as_bytes());
    }
    (space.num_states(), space.num_edges(), h.0)
}

fn explore_text(source: &str) -> StateSpace {
    let net = smp_suite::dnamaca::parse_model(source).expect("model builds");
    StateSpace::explore(&net).expect("model explores")
}

fn voting_text(voters: u32, polling: u32, central: u32) -> StateSpace {
    let spec = ModelSpec::Voting {
        voters,
        polling,
        central,
    };
    explore_text(&spec.source())
}

/// Marking-dependent weights, priorities and sojourn parameters, `min`/`max`
/// and a constant that shadows a place: the evaluator paths the corpus and
/// the voting model leave unread.
const MARKING_DEPENDENT: &str = r"
    \constant{K}{4}
    \constant{spare}{2}
    \place{queue}{K}
    \place{served}{0}
    \place{spare}{0}
    \transition{serve}{
        \condition{queue > 0}
        \action{ next->queue = queue - 1; next->served = served + 1; }
        \weight{queue * 1.5 + spare}
        \priority{max(1, 3 - queue)}
        \sojourntimeLT{ return 0.25 * erlangLT(2.0, queue, s) + 0.75 * expLT(queue / 2, s); }
    }
    \transition{skip}{
        \condition{queue > 1}
        \action{ next->queue = queue - 2; next->served = served + 2; }
        \weight{min(served + 1, 2)}
        \sojourntimeLT{ return uniformLT(0.5, 1.5, s) * detLT(served + 1, s); }
    }
    \transition{refill}{
        \condition{queue == 0}
        \action{ next->queue = K; next->served = 0; }
        \sojourntimeLT{ return expLT(3.0, s); }
    }
";

/// The recorded digests: `(model, states, edges, digest)`.  The textual and
/// the programmatic voting nets explore to the same bits.
const RECORDED: &[(&str, usize, usize, u64)] = &[
    ("corpus ring-exp", 3, 3, 0x3bd55bacb895491f),
    ("corpus voting-exp", 12, 23, 0xe0be7cdbd1c7e025),
    ("corpus ring-erlang-lookalike", 3, 3, 0x1e7e712715a2d5ea),
    ("marking-dependent", 5, 8, 0x8b259df872eb07eb),
    ("voting 3,1,1", 20, 37, 0x76e76d26ba674ae4),
    ("voting 3,1,1 programmatic", 20, 37, 0x76e76d26ba674ae4),
    ("voting 5,2,2", 102, 308, 0xe7b9f6b4f714885a),
    ("voting 5,2,2 programmatic", 102, 308, 0xe7b9f6b4f714885a),
    ("voting 10,4,2", 484, 1756, 0x2e41709db4e362b5),
    ("voting 10,4,2 programmatic", 484, 1756, 0x2e41709db4e362b5),
];

#[test]
fn exploration_matches_the_recorded_digests() {
    let mut got: Vec<(&str, usize, usize, u64)> = Vec::new();
    let mut record = |name, space: &StateSpace| {
        let (states, edges, d) = digest(space);
        got.push((name, states, edges, d));
    };
    record("corpus ring-exp", &explore_text(corpus::RING_EXP));
    record("corpus voting-exp", &explore_text(corpus::VOTING_EXP));
    record(
        "corpus ring-erlang-lookalike",
        &explore_text(corpus::ERLANG_LOOKALIKE),
    );
    record("marking-dependent", &explore_text(MARKING_DEPENDENT));
    let sizes = [
        (3, 1, 1, "voting 3,1,1", "voting 3,1,1 programmatic"),
        (5, 2, 2, "voting 5,2,2", "voting 5,2,2 programmatic"),
        (10, 4, 2, "voting 10,4,2", "voting 10,4,2 programmatic"),
    ];
    for (voters, polling, central, text, programmatic) in sizes {
        record(text, &voting_text(voters, polling, central));
        let system = VotingSystem::build(VotingConfig::new(voters, polling, central)).unwrap();
        record(programmatic, system.state_space());
    }

    let table: String = got
        .iter()
        .map(|(n, s, e, d)| format!("    ({n:?}, {s}, {e}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, RECORDED, "explored digests:\n{table}");
}
