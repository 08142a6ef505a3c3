//! The global work queue of `s`-point evaluations.
//!
//! The paper's master places every outstanding transform evaluation in a global
//! queue from which the slave processors request work.  To keep channel and lock
//! traffic proportional to the number of *chunks* rather than the number of
//! *points*, the queue hands out work in configurable-size chunks: one lock
//! acquisition per `WorkQueue::pop_chunk` call returns up to `chunk_size`
//! items, and the worker answers with a single message per chunk.

use crate::unpoisoned;
use smp_numeric::Complex64;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One unit of work: evaluate the transform of measure `measure` at `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkItem {
    /// Index of the measure (within the running plan) whose transform is to
    /// be evaluated.  Single-measure runs use measure `0` throughout.
    pub measure: usize,
    /// Position of the point in the evaluation plan (used for bookkeeping only).
    pub index: usize,
    /// The complex evaluation point.
    pub s: Complex64,
}

/// A shared, lock-protected FIFO work queue — the paper's "global work-queue to
/// which the slave processors make requests" — that dispenses work in chunks.
#[derive(Debug)]
pub(crate) struct WorkQueue {
    items: Mutex<VecDeque<WorkItem>>,
    chunk_size: usize,
}

impl WorkQueue {
    /// Creates a queue pre-loaded with arbitrary work items, dispensed up to
    /// `chunk_size` at a time.
    ///
    /// # Panics
    /// Panics when `chunk_size` is zero.
    pub(crate) fn with_chunk_size(items: Vec<WorkItem>, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk_size must be at least 1");
        WorkQueue {
            items: Mutex::new(items.into()),
            chunk_size,
        }
    }

    /// Adds a work item to the back of the queue.
    pub fn push(&self, item: WorkItem) {
        unpoisoned(self.items.lock()).push_back(item);
    }

    /// Takes the next chunk of up to `chunk_size` items under one lock
    /// acquisition (this is the slave's "request").  Returns `None` when the
    /// queue is empty; the final chunk may be shorter than `chunk_size`.
    pub(crate) fn pop_chunk(&self) -> Option<Vec<WorkItem>> {
        let mut items = unpoisoned(self.items.lock());
        if items.is_empty() {
            return None;
        }
        let take = self.chunk_size.min(items.len());
        Some(items.drain(..take).collect())
    }

    /// Number of outstanding items.
    pub fn len(&self) -> usize {
        unpoisoned(self.items.lock()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize) -> Vec<WorkItem> {
        (0..n)
            .map(|index| WorkItem {
                measure: index % 3,
                index,
                s: Complex64::new(index as f64, 0.0),
            })
            .collect()
    }

    #[test]
    fn push_appends() {
        let queue = WorkQueue::with_chunk_size(items(1), 1);
        queue.push(WorkItem {
            measure: 2,
            index: 7,
            s: Complex64::I,
        });
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop_chunk().unwrap()[0].index, 0);
        let item = queue.pop_chunk().unwrap()[0];
        assert_eq!(item.index, 7);
        assert_eq!(item.measure, 2);
    }

    #[test]
    fn chunked_pop_respects_chunk_size_and_order() {
        let queue = WorkQueue::with_chunk_size(items(10), 4);
        let first = queue.pop_chunk().unwrap();
        assert_eq!(first.len(), 4);
        assert_eq!(
            first.iter().map(|i| i.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        let second = queue.pop_chunk().unwrap();
        assert_eq!(second.len(), 4);
        // The final chunk is short: 10 = 4 + 4 + 2.
        let last = queue.pop_chunk().unwrap();
        assert_eq!(last.len(), 2);
        assert_eq!(last[1].index, 9);
        assert!(queue.pop_chunk().is_none());
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn chunk_size_larger_than_queue_drains_in_one_pop() {
        let queue = WorkQueue::with_chunk_size(items(3), 64);
        let chunk = queue.pop_chunk().unwrap();
        assert_eq!(chunk.len(), 3);
        assert!(queue.pop_chunk().is_none());
    }

    #[test]
    #[should_panic(expected = "chunk_size must be at least 1")]
    fn zero_chunk_size_rejected() {
        let _ = WorkQueue::with_chunk_size(Vec::new(), 0);
    }

    #[test]
    fn concurrent_chunked_pops_drain_exactly_once() {
        let queue = WorkQueue::with_chunk_size(items(997), 8);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    while let Some(chunk) = queue.pop_chunk() {
                        assert!(chunk.len() <= 8);
                        seen.lock().unwrap().extend(chunk.iter().map(|i| i.index));
                    }
                });
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..997).collect::<Vec<_>>());
    }

    #[test]
    fn a_queue_whose_lock_holder_panicked_stays_usable() {
        // A worker thread that dies holding the queue lock poisons it; the
        // survivors keep pulling and requeueing as if nothing happened.
        let queue = WorkQueue::with_chunk_size(items(5), 2);
        let died = std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = queue.items.lock();
                panic!("worker dies holding the queue lock");
            });
            holder.join().is_err()
        });
        assert!(died && queue.items.is_poisoned());
        let chunk = queue.pop_chunk().unwrap();
        assert_eq!(chunk.iter().map(|i| i.index).collect::<Vec<_>>(), [0, 1]);
        queue.push(chunk[0]);
        assert_eq!(queue.len(), 4);
        assert_eq!(queue.pop_chunk().unwrap()[0].index, 2);
    }
}
