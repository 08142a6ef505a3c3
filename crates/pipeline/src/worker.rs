//! The slave-processor loop.
//!
//! A worker repeatedly requests the next *chunk* of `s`-values from the global
//! work queue, evaluates the transform of the measure each item belongs to (for
//! passage-time analysis: refill the prebuilt `U` skeleton's values for the
//! point and run the iterative algorithm to convergence — the symbolic phase
//! ran once at solver construction, see `smp_core::workspace`), and returns
//! the whole chunk's results to the master in a single message.  Workers never talk to
//! each other — the property that gives the pipeline its near-linear
//! scalability — and chunking keeps the master⇄worker message count
//! proportional to the number of chunks, not the number of points.  Chunking
//! also feeds the hot path: a thread that owns a chunk evaluates its points
//! back-to-back, and each evaluation checks a `PassageWorkspace` out of the
//! solver's pool — the pool hands the thread the workspace it just returned
//! (one uncontended lock round-trip, trivial next to an evaluation), so the
//! per-point numeric phase allocates nothing and the number of workspaces
//! ever built is bounded by the worker count.

use crate::work::{WorkItem, WorkQueue};
use crossbeam::channel::Sender;
use smp_numeric::Complex64;
use std::time::{Duration, Instant};

/// The transform evaluator a worker applies to an `s`-point: any Laplace-domain
/// function, typically a closure around a `PassageTimeSolver` or
/// `TransientSolver`.
pub type TransformFn<'a> = dyn Fn(Complex64) -> Result<Complex64, String> + Sync + 'a;

/// Per-worker accounting, reported back to the master when the queue drains.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker identifier (0-based).
    pub id: usize,
    /// Number of `s`-points this worker evaluated.
    pub evaluated: usize,
    /// Number of result messages (chunks) this worker sent to the master.
    pub messages: usize,
    /// Total time spent evaluating (excludes queue waiting).
    pub busy: Duration,
}

/// One evaluated item inside a [`WorkerMessage`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItemOutcome {
    /// The work item that was evaluated.
    pub item: WorkItem,
    /// The transform value, or an error description.
    pub outcome: Result<Complex64, String>,
}

/// A result message from a worker to the master: every outcome of one chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMessage {
    /// The sending worker's identifier.
    pub worker: usize,
    /// The evaluated chunk, in the order the items were popped.
    pub results: Vec<WorkItemOutcome>,
}

/// Runs one worker until the queue is empty, evaluating each item with the
/// evaluator of the measure it belongs to and answering each chunk with one
/// message.
pub fn run_batch_worker(
    id: usize,
    queue: &WorkQueue,
    evaluators: &[&TransformFn<'_>],
    results: &Sender<WorkerMessage>,
) -> WorkerStats {
    let mut stats = WorkerStats {
        id,
        evaluated: 0,
        messages: 0,
        busy: Duration::ZERO,
    };
    while let Some(chunk) = queue.pop_chunk() {
        let started = Instant::now();
        let outcomes: Vec<WorkItemOutcome> = chunk
            .into_iter()
            .map(|item| WorkItemOutcome {
                outcome: (evaluators[item.measure])(item.s),
                item,
            })
            .collect();
        stats.busy += started.elapsed();
        stats.evaluated += outcomes.len();
        stats.messages += 1;
        if results
            .send(WorkerMessage {
                worker: id,
                results: outcomes,
            })
            .is_err()
        {
            // The master has gone away; stop quietly.
            break;
        }
    }
    stats
}

/// Runs one single-measure worker until the queue is empty (the paper's
/// original one-point-per-message protocol when the queue's chunk size is 1).
pub fn run_worker<F>(
    id: usize,
    queue: &WorkQueue,
    evaluator: &F,
    results: &Sender<WorkerMessage>,
) -> WorkerStats
where
    F: Fn(Complex64) -> Result<Complex64, String> + Sync + ?Sized,
{
    let evaluators: [&TransformFn<'_>; 1] = [&|s| evaluator(s)];
    run_batch_worker(id, queue, &evaluators, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn worker_drains_queue_and_reports_stats() {
        let points: Vec<Complex64> = (1..=20).map(|k| Complex64::new(k as f64, 0.0)).collect();
        let queue = WorkQueue::new(&points);
        let (tx, rx) = unbounded();
        let evaluator = |s: Complex64| -> Result<Complex64, String> { Ok(s * s) };
        let stats = run_worker(3, &queue, &evaluator, &tx);
        drop(tx);
        assert_eq!(stats.id, 3);
        assert_eq!(stats.evaluated, 20);
        // Chunk size 1: one message per point.
        assert_eq!(stats.messages, 20);
        let received: Vec<WorkItemOutcome> =
            rx.iter().flat_map(|message| message.results).collect();
        assert_eq!(received.len(), 20);
        for outcome in received {
            let expect = outcome.item.s * outcome.item.s;
            assert_eq!(outcome.outcome.unwrap(), expect);
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn chunked_worker_sends_one_message_per_chunk() {
        let items: Vec<WorkItem> = (0..17)
            .map(|index| WorkItem {
                measure: 0,
                index,
                s: Complex64::new(index as f64, 0.0),
            })
            .collect();
        let queue = WorkQueue::with_chunk_size(items, 5);
        let (tx, rx) = unbounded();
        let evaluator = |s: Complex64| -> Result<Complex64, String> { Ok(s + Complex64::ONE) };
        let evaluators: [&TransformFn<'_>; 1] = [&evaluator];
        let stats = run_batch_worker(1, &queue, &evaluators, &tx);
        drop(tx);
        // 17 items at chunk size 5: 5 + 5 + 5 + 2 → 4 messages.
        assert_eq!(stats.evaluated, 17);
        assert_eq!(stats.messages, 4);
        let messages: Vec<WorkerMessage> = rx.iter().collect();
        assert_eq!(messages.len(), 4);
        assert!(messages.iter().all(|m| m.worker == 1));
        let total: usize = messages.iter().map(|m| m.results.len()).sum();
        assert_eq!(total, 17);
    }

    #[test]
    fn items_are_routed_to_their_measure_evaluator() {
        let items: Vec<WorkItem> = (0..12)
            .map(|index| WorkItem {
                measure: index % 2,
                index,
                s: Complex64::new(index as f64, 0.0),
            })
            .collect();
        let queue = WorkQueue::with_chunk_size(items, 4);
        let (tx, rx) = unbounded();
        let double = |s: Complex64| -> Result<Complex64, String> { Ok(s * Complex64::real(2.0)) };
        let negate = |s: Complex64| -> Result<Complex64, String> { Ok(-s) };
        let evaluators: [&TransformFn<'_>; 2] = [&double, &negate];
        run_batch_worker(0, &queue, &evaluators, &tx);
        drop(tx);
        for outcome in rx.iter().flat_map(|m| m.results) {
            let expect = match outcome.item.measure {
                0 => outcome.item.s * Complex64::real(2.0),
                _ => -outcome.item.s,
            };
            assert_eq!(outcome.outcome.unwrap(), expect);
        }
    }

    #[test]
    fn errors_are_forwarded_not_fatal() {
        let points = vec![Complex64::ONE, Complex64::I, Complex64::new(2.0, 0.0)];
        let queue = WorkQueue::new(&points);
        let (tx, rx) = unbounded();
        let evaluator = |s: Complex64| -> Result<Complex64, String> {
            if s == Complex64::I {
                Err("did not converge".into())
            } else {
                Ok(s)
            }
        };
        let stats = run_worker(0, &queue, &evaluator, &tx);
        drop(tx);
        assert_eq!(stats.evaluated, 3);
        let errors: Vec<_> = rx
            .iter()
            .flat_map(|m| m.results)
            .filter(|o| o.outcome.is_err())
            .collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].item.s, Complex64::I);
    }
}
