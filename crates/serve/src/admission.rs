//! Admission control: per-client token buckets plus a global queue-depth
//! watermark.
//!
//! Every submission is either **admitted** into the single-writer ingest
//! queue or **rejected with a retry-after hint** — the server never queues
//! without bound. Two independent gates apply, cheapest first:
//!
//! 1. the global watermark: if the ingest queue already holds
//!    [`AdmissionConfig::max_queue`] submissions, the client is told to
//!    retry after a fixed backoff (the bucket is *not* charged, so a
//!    backlogged server does not also burn the client's budget). The
//!    watermark is **reserve-on-admit**: [`Admission::decide`] claims the
//!    queue slot atomically before answering, so N racing submitters can
//!    never all pass at `max_queue - 1` and overshoot the bound;
//! 2. the per-client token bucket: each submitted mutation costs one token,
//!    so sustained throughput per client converges to
//!    [`AdmissionConfig::rate_per_client`] mutations per second with bursts
//!    up to [`AdmissionConfig::burst_per_client`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::bucket::TokenBucket;

/// Admission-control knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Sustained per-client budget, in mutations per second.
    pub rate_per_client: u64,
    /// Per-client burst allowance, in mutations.
    pub burst_per_client: u64,
    /// Global watermark: maximum submissions waiting in the ingest queue
    /// before new ones are turned away.
    pub max_queue: usize,
    /// Retry hint (milliseconds) handed out when the watermark trips.
    pub queue_retry_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate_per_client: 200_000,
            burst_per_client: 400_000,
            max_queue: 64,
            queue_retry_ms: 5,
        }
    }
}

/// The verdict on one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Enqueue it.
    Admit,
    /// Turn it away; the client should retry after this many milliseconds.
    RetryAfter(u64),
}

/// Per-client bucket state behind the two admission gates (module docs).
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    buckets: HashMap<u32, TokenBucket>,
}

impl Admission {
    /// An admission controller with no clients yet.
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission { cfg, buckets: HashMap::new() }
    }

    /// Decide one submission of `n_muts` mutations from `client` at
    /// monotonic time `now_micros`. `queue` is the live count of
    /// submissions waiting in the ingest queue: on [`Decision::Admit`] the
    /// slot has already been **reserved** (the counter incremented) and the
    /// caller must release it when the submission is dequeued or abandoned;
    /// on [`Decision::RetryAfter`] the counter is unchanged.
    ///
    /// Reserving inside the decision (fetch_add, then validate, rolling
    /// back on rejection) is what makes `max_queue` a hard bound: with a
    /// check-then-enqueue split, every thread racing at `max_queue - 1`
    /// would pass the check and enqueue past the watermark.
    pub fn decide(
        &mut self,
        client: u32,
        n_muts: usize,
        queue: &AtomicUsize,
        now_micros: u64,
    ) -> Decision {
        let prev = queue.fetch_add(1, Ordering::SeqCst);
        if prev >= self.cfg.max_queue {
            queue.fetch_sub(1, Ordering::SeqCst);
            return Decision::RetryAfter(self.cfg.queue_retry_ms.max(1));
        }
        let bucket = self.buckets.entry(client).or_insert_with(|| {
            TokenBucket::new(self.cfg.rate_per_client, self.cfg.burst_per_client)
        });
        match bucket.try_acquire(n_muts as u64, now_micros) {
            // Admitted: the reservation stands until the ingest thread
            // dequeues the submission.
            Ok(()) => Decision::Admit,
            Err(micros) => {
                queue.fetch_sub(1, Ordering::SeqCst);
                Decision::RetryAfter(micros.div_ceil(1000).max(1))
            }
        }
    }

    /// Drop `client`'s bucket once its connection has closed. Client ids
    /// are never reused, so a bucket left behind would never be read again.
    pub fn forget(&mut self, client: u32) {
        self.buckets.remove(&client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            rate_per_client: 1_000,
            burst_per_client: 100,
            max_queue: 2,
            queue_retry_ms: 7,
        }
    }

    #[test]
    fn admits_within_budget_and_rejects_past_it() {
        let mut a = Admission::new(cfg());
        let q = AtomicUsize::new(0);
        assert_eq!(a.decide(1, 100, &q, 0), Decision::Admit);
        assert_eq!(q.load(Ordering::SeqCst), 1, "admit reserves the queue slot");
        let Decision::RetryAfter(ms) = a.decide(1, 50, &q, 0) else {
            panic!("over-budget submission admitted");
        };
        // 50 tokens at 1000/s = 50 ms.
        assert_eq!(ms, 50);
        assert_eq!(q.load(Ordering::SeqCst), 1, "bucket rejection rolls the reservation back");
        assert_eq!(a.decide(1, 50, &q, 50_000), Decision::Admit);
        assert_eq!(q.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn clients_have_independent_budgets() {
        let mut a = Admission::new(cfg());
        let q = AtomicUsize::new(0);
        assert_eq!(a.decide(1, 100, &q, 0), Decision::Admit);
        assert_eq!(a.decide(2, 100, &q, 0), Decision::Admit, "client 2 has its own bucket");
        assert!(matches!(a.decide(1, 1, &q, 0), Decision::RetryAfter(_)));
    }

    /// Every connection makes a bucket on its first submit and drops it on
    /// disconnect, so a stream of short-lived clients leaves no state.
    #[test]
    fn forgotten_clients_leave_no_buckets() {
        let mut a = Admission::new(cfg());
        let q = AtomicUsize::new(0);
        for client in 0..1_000 {
            assert_eq!(a.decide(client, 1, &q, 0), Decision::Admit);
            q.fetch_sub(1, Ordering::SeqCst);
            a.forget(client);
        }
        assert!(a.buckets.is_empty());
    }

    #[test]
    fn queue_watermark_rejects_without_charging_the_bucket() {
        let mut a = Admission::new(cfg());
        let full = AtomicUsize::new(2);
        assert_eq!(a.decide(1, 10, &full, 0), Decision::RetryAfter(7), "queue full");
        assert_eq!(full.load(Ordering::SeqCst), 2, "watermark rejection rolls back");
        // The refused submission did not spend tokens: the full burst is
        // still available once the queue drains.
        let empty = AtomicUsize::new(0);
        assert_eq!(a.decide(1, 100, &empty, 0), Decision::Admit);
    }

    /// Regression: the watermark used to be check-then-enqueue — `decide`
    /// read a queue-depth snapshot and the caller incremented the counter
    /// later, so N threads racing at `max_queue - 1` could all pass and
    /// overshoot the bound. Reserve-on-admit makes it hard: under a
    /// 16-thread storm with an effectively unlimited token budget, the
    /// reserved depth must never exceed `max_queue`.
    #[test]
    fn thread_storm_never_exceeds_the_watermark() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;

        const MAX_QUEUE: usize = 4;
        let adm = Mutex::new(Admission::new(AdmissionConfig {
            rate_per_client: u64::MAX / 2,
            burst_per_client: u64::MAX / 2,
            max_queue: MAX_QUEUE,
            queue_retry_ms: 1,
        }));
        let queue = AtomicUsize::new(0);
        let overshot = AtomicBool::new(false);
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..16u32 {
                let (adm, queue, overshot, admitted) = (&adm, &queue, &overshot, &admitted);
                s.spawn(move || {
                    for i in 0..500u64 {
                        // Read the depth under the admission lock: a rival
                        // being refused holds a reservation for the length
                        // of its `decide`, which is not an admitted slot.
                        let (d, depth) = {
                            let mut adm = adm.lock().unwrap();
                            (adm.decide(t, 1, queue, i), queue.load(Ordering::SeqCst))
                        };
                        if d == Decision::Admit {
                            admitted.fetch_add(1, Ordering::SeqCst);
                            // Hold the slot briefly so rivals pile up at the
                            // watermark, then release it like the ingest
                            // thread's dequeue does.
                            if depth > MAX_QUEUE {
                                overshot.store(true, Ordering::SeqCst);
                            }
                            std::thread::yield_now();
                            queue.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert!(!overshot.load(Ordering::SeqCst), "queue depth exceeded max_queue");
        assert_eq!(queue.load(Ordering::SeqCst), 0, "every reservation was released");
        assert!(admitted.load(Ordering::SeqCst) >= MAX_QUEUE, "storm actually admitted work");
    }
}
