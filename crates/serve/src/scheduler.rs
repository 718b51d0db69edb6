//! Weighted deficit round-robin across priority classes.
//!
//! Admitted queries queue per class; once per simulated second the
//! scheduler dispatches up to [`SchedulerConfig::dispatch_per_s`]
//! queries to the shared fleet. Classes are visited in fixed priority
//! order and each backlogged class accrues its weight in dispatches per
//! round; dispatching one query spends one. An `Interactive` class
//! (weight 4) therefore drains four queries for every one a backlogged
//! `Batch` class (weight 1) drains, every backlogged class dispatches in
//! every round, and an idle class's deficit resets so it cannot hoard
//! credit.
//!
//! Everything is integer state visited in a fixed order, so dispatch
//! order is byte-identical across reruns; the loop bodies allocate
//! nothing (`tests/alloc_budget.rs` holds dispatch allocations per
//! query flat from 10 to 1 000 tenants).

use crate::tenant::PriorityClass;
use std::collections::VecDeque;

/// Fair-scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum queries dispatched to the fleet per simulated second.
    pub dispatch_per_s: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            dispatch_per_s: 256,
        }
    }
}

impl SchedulerConfig {
    /// Set the per-second dispatch budget (`0` is treated as `1`).
    pub fn with_dispatch_per_s(mut self, n: u32) -> Self {
        self.dispatch_per_s = n.max(1);
        self
    }
}

/// One admitted query waiting for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedQuery {
    /// Index of the tenant in the registry.
    pub tenant: usize,
    /// Second the query arrived (before admission and queueing).
    pub arrival_s: u64,
    /// Index into the tenant's own trace stream.
    pub seq: usize,
}

/// The weighted deficit round-robin scheduler.
#[derive(Debug, Clone)]
pub struct WdrrScheduler {
    config: SchedulerConfig,
    queues: [VecDeque<QueuedQuery>; 3],
    /// Dispatches each class may still make.
    deficit: [u64; 3],
}

impl WdrrScheduler {
    /// An empty scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        WdrrScheduler {
            config,
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            deficit: [0; 3],
        }
    }

    /// Queue one admitted query under its class.
    pub fn enqueue(&mut self, class: PriorityClass, q: QueuedQuery) {
        self.queues[class.index()].push_back(q);
    }

    /// Total queued depth across classes (the backpressure signal).
    pub fn queued(&self) -> usize {
        self.queues[0].len() + self.queues[1].len() + self.queues[2].len()
    }

    /// Dispatch one second's budget into `out` (appended in dispatch
    /// order). Returns the number dispatched.
    pub fn dispatch_second(&mut self, out: &mut Vec<QueuedQuery>) -> usize {
        let mut budget = self.config.dispatch_per_s;
        let start = out.len();
        while budget > 0 && self.queued() > 0 {
            for class in PriorityClass::ALL {
                let c = class.index();
                if self.queues[c].is_empty() {
                    // An idle class may not hoard credit.
                    self.deficit[c] = 0;
                    continue;
                }
                self.deficit[c] = self.deficit[c].saturating_add(class.weight());
                while budget > 0 && self.deficit[c] > 0 {
                    let Some(q) = self.queues[c].pop_front() else {
                        break;
                    };
                    out.push(q);
                    self.deficit[c] -= 1;
                    budget -= 1;
                }
            }
        }
        out.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(tenant: usize, seq: usize) -> QueuedQuery {
        QueuedQuery {
            tenant,
            arrival_s: 0,
            seq,
        }
    }

    #[test]
    fn weights_shape_dispatch_ratio() {
        let mut s = WdrrScheduler::new(SchedulerConfig::default().with_dispatch_per_s(7));
        for i in 0..20 {
            s.enqueue(PriorityClass::Interactive, q(0, i));
            s.enqueue(PriorityClass::Standard, q(1, i));
            s.enqueue(PriorityClass::Batch, q(2, i));
        }
        let mut out = Vec::new();
        s.dispatch_second(&mut out);
        assert_eq!(out.len(), 7);
        // One full round: 4 interactive, 2 standard, 1 batch.
        let by_tenant = |t: usize| out.iter().filter(|e| e.tenant == t).count();
        assert_eq!((by_tenant(0), by_tenant(1), by_tenant(2)), (4, 2, 1));
    }

    #[test]
    fn fifo_within_class_and_budget_respected() {
        let mut s = WdrrScheduler::new(SchedulerConfig::default().with_dispatch_per_s(3));
        for i in 0..5 {
            s.enqueue(PriorityClass::Standard, q(0, i));
        }
        let mut out = Vec::new();
        assert_eq!(s.dispatch_second(&mut out), 3);
        assert_eq!(s.queued(), 2);
        let seqs: Vec<usize> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        // Next second drains the rest.
        assert_eq!(s.dispatch_second(&mut out), 2);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn sole_backlogged_class_gets_whole_budget() {
        let mut s = WdrrScheduler::new(SchedulerConfig::default().with_dispatch_per_s(8));
        for i in 0..10 {
            s.enqueue(PriorityClass::Batch, q(0, i));
        }
        let mut out = Vec::new();
        assert_eq!(
            s.dispatch_second(&mut out),
            8,
            "weight caps shares, not rate"
        );
    }

    #[test]
    fn idle_class_cannot_hoard_credit() {
        let mut s = WdrrScheduler::new(SchedulerConfig::default().with_dispatch_per_s(4));
        for i in 0..8 {
            s.enqueue(PriorityClass::Standard, q(0, i));
        }
        let mut out = Vec::new();
        // Two empty-interactive seconds must not bank interactive credit.
        s.dispatch_second(&mut out);
        s.dispatch_second(&mut out);
        s.enqueue(PriorityClass::Interactive, q(1, 0));
        assert_eq!(s.deficit[PriorityClass::Interactive.index()], 0);
    }

    #[test]
    fn dispatch_is_deterministic() {
        let fill = |s: &mut WdrrScheduler| {
            for i in 0..30 {
                s.enqueue(PriorityClass::ALL[i % 3], q(i % 3, i));
            }
        };
        let run = || {
            let mut s = WdrrScheduler::new(SchedulerConfig::default().with_dispatch_per_s(9));
            fill(&mut s);
            let mut out = Vec::new();
            while s.queued() > 0 {
                s.dispatch_second(&mut out);
            }
            out
        };
        assert_eq!(run(), run());
    }
}
