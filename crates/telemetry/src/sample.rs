//! Sampled query tracing: profile every Nth query at near-zero cost.
//!
//! Per-query tracing ([`crate::TraceRecorder`]) is opt-in because it
//! allocates; a production server wants a *standing* trickle of traces
//! instead. [`TraceSampler`] makes the unsampled path as cheap as telemetry
//! gets — one relaxed `fetch_add` and a compare, no allocation, no lock —
//! and routes the 1-in-N sampled traces into a bounded ring of the most
//! recent traces (what is the engine doing *now*?), which is only ever
//! touched on the sampled path.

use crate::trace::QueryTrace;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Decides which queries get a trace and retains the sampled results.
///
/// Shared freely across sessions/threads: the decision is an atomic
/// counter, retention takes a short mutex only on the sampled (1-in-N)
/// path.
#[derive(Debug)]
pub struct TraceSampler {
    every: u64,
    decisions: AtomicU64,
    sampled: AtomicU64,
    ring_capacity: usize,
    ring: Mutex<VecDeque<QueryTrace>>,
}

impl TraceSampler {
    /// A sampler tracing every `every`-th query (`0` disables sampling
    /// entirely), keeping at most `ring_capacity` recent traces (min 1).
    pub fn new(every: u64, ring_capacity: usize) -> Self {
        TraceSampler {
            every,
            decisions: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            ring_capacity: ring_capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The sampling period (`0` = disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Should the caller trace this query? One relaxed `fetch_add` plus a
    /// compare; never allocates. The first decision after construction
    /// samples (so a sampler is observable immediately), then every
    /// `every`-th after that.
    pub fn should_sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.decisions
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
    }

    /// Retain one finished sampled trace.
    pub fn record(&self, trace: QueryTrace) {
        self.sampled.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("sampler ring lock poisoned");
        if ring.len() == self.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Sampled traces retained so far (monotonic; may exceed what the ring
    /// still holds).
    pub fn sampled_count(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// The most recent sampled traces, oldest first (bounded by the ring
    /// capacity).
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.ring
            .lock()
            .expect("sampler ring lock poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(elapsed_ns: u64) -> QueryTrace {
        QueryTrace {
            events: vec![],
            elapsed_ns,
        }
    }

    #[test]
    fn disabled_sampler_never_samples() {
        let sampler = TraceSampler::new(0, 8);
        for _ in 0..100 {
            assert!(!sampler.should_sample());
        }
        assert_eq!(sampler.sampled_count(), 0);
        assert!(sampler.recent().is_empty());
    }

    #[test]
    fn samples_every_nth_decision() {
        let sampler = TraceSampler::new(4, 8);
        let decisions: Vec<bool> = (0..12).map(|_| sampler.should_sample()).collect();
        assert_eq!(
            decisions,
            vec![true, false, false, false, true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn every_one_samples_everything() {
        let sampler = TraceSampler::new(1, 8);
        assert!((0..10).all(|_| sampler.should_sample()));
    }

    #[test]
    fn ring_keeps_most_recent_traces() {
        let sampler = TraceSampler::new(1, 3);
        for i in 0..5u64 {
            sampler.record(trace(i));
        }
        let recent: Vec<u64> = sampler.recent().iter().map(|t| t.elapsed_ns).collect();
        assert_eq!(recent, vec![2, 3, 4], "oldest evicted, order preserved");
        assert_eq!(sampler.sampled_count(), 5);
    }

    #[test]
    fn concurrent_sampling_counts_exactly() {
        let sampler = std::sync::Arc::new(TraceSampler::new(8, 64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sampler = std::sync::Arc::clone(&sampler);
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for _ in 0..2000 {
                        if sampler.should_sample() {
                            sampler.record(trace(1));
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // 8000 decisions at 1-in-8: exactly 1000 sampled regardless of interleaving
        assert_eq!(total, 1000);
        assert_eq!(sampler.sampled_count(), 1000);
        assert_eq!(sampler.recent().len(), 64);
    }
}
