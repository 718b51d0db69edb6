//! A simulated cloud object store (Amazon S3).
//!
//! Stores real bytes (the engine shuffles actual data through it) and bills
//! per request, which is the property that makes exclusive S3 shuffling
//! expensive at high query volumes (§7.1.3): a 128×128 shuffle costs 256
//! PUTs and 128 GETs-per-task, and those request charges can reach half of
//! total query cost. A runner that replays profiles instead of moving
//! bytes counts its modeled requests here too, so every task runner's
//! requests are retried, priced and attributed in one place.
//!
//! The store is internally synchronized so it can be shared (`Arc`) between
//! the coordinator and concurrently executing tasks. Keys live in a
//! `BTreeMap` so listings and prefix deletes are deterministic.

use crate::ledger::{CostCategory, CostLedger};
use crate::pricing::Pricing;
use bytes_shim::Bytes;
use cackle_faults::{op_key, FaultInjector, StoreOp, TaskFaults};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

// A tiny indirection so the engine crate and this crate agree on the
// payload type without a cross-crate dependency.
mod bytes_shim {
    /// Immutable shared byte payloads stored in the object store.
    pub type Bytes = std::sync::Arc<[u8]>;
}

/// Poison-forgiving lock accessors: a panicking task must not wedge the
/// simulated store, so a poisoned lock simply yields its inner guard.
fn read_objects(
    l: &RwLock<BTreeMap<String, Bytes>>,
) -> RwLockReadGuard<'_, BTreeMap<String, Bytes>> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_objects(
    l: &RwLock<BTreeMap<String, Bytes>>,
) -> RwLockWriteGuard<'_, BTreeMap<String, Bytes>> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

fn lock_billing(l: &Mutex<Billing>) -> MutexGuard<'_, Billing> {
    l.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_faults(l: &Mutex<TaskFaults>) -> MutexGuard<'_, TaskFaults> {
    l.lock().unwrap_or_else(|e| e.into_inner())
}

/// What concurrent requests touch under the store lock is integer
/// counters only: integer adds commute, so the totals do not depend on
/// the order tasks reach the store. Requests are priced in bulk by
/// [`ObjectStore::ledger`], never one by one.
#[derive(Debug, Default)]
struct Billing {
    /// Request and byte counters of every attempt; no money.
    counts: CostLedger,
    /// Request counters of the attempts beyond each request's first.
    retried: CostLedger,
}

impl Billing {
    fn count(&mut self, op: StoreOp, requests: u64, attempts: u64) {
        let (all, retried) = match op {
            StoreOp::Put => (
                &mut self.counts.put_requests,
                &mut self.retried.put_requests,
            ),
            StoreOp::Get => (
                &mut self.counts.get_requests,
                &mut self.retried.get_requests,
            ),
        };
        *all += attempts;
        *retried += attempts - requests;
    }
}

/// A shared, internally synchronized object store with request billing.
#[derive(Debug)]
pub struct ObjectStore {
    pricing: Pricing,
    objects: RwLock<BTreeMap<String, Bytes>>,
    billing: Mutex<Billing>,
    /// Keyed view of the fault plan consulted per request (disabled by
    /// default); see [`ObjectStore::inject_faults`].
    faults: Mutex<TaskFaults>,
}

impl ObjectStore {
    /// Create an empty store.
    pub fn new(pricing: Pricing) -> Self {
        ObjectStore {
            pricing,
            objects: RwLock::new(BTreeMap::new()),
            billing: Mutex::new(Billing::default()),
            faults: Mutex::new(TaskFaults::default()),
        }
    }

    /// Consult `faults` on every subsequent request: an injected
    /// transient 5xx is retried in-store up to the policy's
    /// `max_retries`, with each attempt billed as a real request — S3
    /// bills errored requests too. A request whose every attempt fails is
    /// recorded on the plan's shared handle, and the run loop ends the
    /// run with a typed error. Set before sharing the store.
    pub fn inject_faults(&self, faults: &FaultInjector) {
        *lock_faults(&self.faults) = faults.keyed();
    }

    /// Billed attempts for one request (1 + injected retries). Draws
    /// are keyed by the object key: tasks hit the store concurrently, so
    /// a shared sequential fault stream would make attempt counts depend
    /// on thread scheduling (requests for the same key draw identically —
    /// acceptable correlation for a fault model).
    fn attempts(&self, op: StoreOp, key: &str) -> u64 {
        lock_faults(&self.faults).store_attempts_keyed(op, op_key(key.as_bytes()))
    }

    /// PUT an object, counting one billable request per attempt (injected
    /// transient errors retry internally and each attempt bills).
    pub fn put(&self, key: &str, data: Vec<u8>) {
        let attempts = self.attempts(StoreOp::Put, key);
        let len = data.len() as u64;
        write_objects(&self.objects).insert(key.to_string(), Bytes::from(data));
        let mut b = lock_billing(&self.billing);
        b.count(StoreOp::Put, 1, attempts);
        b.counts.bytes_put += len;
    }

    /// GET an object, counting one billable request per attempt. Returns
    /// `None` (still billed, as S3 bills failed GETs) when the key does
    /// not exist; injected transient errors retry internally and each
    /// attempt bills.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        let attempts = self.attempts(StoreOp::Get, key);
        let out = read_objects(&self.objects).get(key).cloned();
        let mut b = lock_billing(&self.billing);
        b.count(StoreOp::Get, 1, attempts);
        if let Some(data) = &out {
            b.counts.bytes_get += data.len() as u64;
        }
        out
    }

    /// Count `requests` modeled requests of `op` that carry no payload:
    /// the shuffle traffic of stage `stage` of query `query`, for a runner
    /// that replays byte counts instead of moving bytes. Each request
    /// retries and bills like [`put`](ObjectStore::put) and
    /// [`get`](ObjectStore::get), its attempts drawn under the key
    /// `(query, stage, request index)`, so the draws do not depend on the
    /// order stages reach the store.
    pub fn modeled_requests(&self, op: StoreOp, query: u64, stage: u64, requests: u64) {
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&query.to_le_bytes());
        id[8..].copy_from_slice(&stage.to_le_bytes());
        let scope = op_key(&id);
        let faults = lock_faults(&self.faults).clone();
        let attempts = (0..requests)
            .map(|i| faults.store_attempts_keyed(op, scope.wrapping_add(i)))
            .sum();
        lock_billing(&self.billing).count(op, requests, attempts);
    }

    /// DELETE an object. S3 DELETE requests are free.
    pub fn delete(&self, key: &str) -> bool {
        write_objects(&self.objects).remove(key).is_some()
    }

    /// Delete every object whose key starts with `prefix` (used to clean up
    /// a query's shuffle outputs). DELETEs are free.
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let mut objs = write_objects(&self.objects);
        // BTreeMap range scan: only keys at or after the prefix are visited.
        let keys: Vec<String> = objs
            .range(prefix.to_string()..)
            .map(|(k, _)| k.clone())
            .take_while(|k| k.starts_with(prefix))
            .collect();
        for k in &keys {
            objs.remove(k);
        }
        keys.len()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        read_objects(&self.objects).len()
    }

    /// Total stored bytes.
    pub fn stored_bytes(&self) -> u64 {
        read_objects(&self.objects)
            .values()
            .map(|b| b.len() as u64)
            .sum()
    }

    /// Snapshot of the billing ledger: the request and byte counters,
    /// and each request category priced in one [`Pricing::requests`]
    /// charge over its total. The price is linear in the count, so the
    /// snapshot bills exactly what pricing each request alone would, the
    /// same at any worker count.
    pub fn ledger(&self) -> CostLedger {
        self.priced(lock_billing(&self.billing).counts.clone())
    }

    /// The share of [`ledger`](ObjectStore::ledger) that injected
    /// transient errors caused: the attempts beyond each request's first,
    /// counted and priced the same way. Attribution only — the ledger
    /// already bills them.
    pub fn retried(&self) -> CostLedger {
        self.priced(lock_billing(&self.billing).retried.clone())
    }

    fn priced(&self, mut ledger: CostLedger) -> CostLedger {
        for (op, category, count) in [
            (StoreOp::Put, CostCategory::S3Put, ledger.put_requests),
            (StoreOp::Get, CostCategory::S3Get, ledger.get_requests),
        ] {
            ledger.bill(category, self.pricing.requests(op, count));
        }
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_and_billing() {
        let s = ObjectStore::new(Pricing::default());
        s.put("q1/s0/t0/p3", vec![1, 2, 3]);
        let got = s.get("q1/s0/t0/p3").unwrap();
        assert_eq!(&got[..], &[1, 2, 3]);
        let l = s.ledger();
        assert_eq!(l.put_requests, 1);
        assert_eq!(l.get_requests, 1);
        assert_eq!(l.bytes_put, 3);
        assert_eq!(l.bytes_get, 3);
        assert_eq!(l.total().dollars(), 5.4e-6);
    }

    #[test]
    fn missing_get_is_still_billed() {
        let s = ObjectStore::new(Pricing::default());
        assert!(s.get("nope").is_none());
        let l = s.ledger();
        assert_eq!(l.get_requests, 1);
        assert_eq!(l.bytes_get, 0);
        assert_eq!(l.total().dollars(), 4e-7);
    }

    #[test]
    fn delete_prefix_cleans_query_outputs() {
        let s = ObjectStore::new(Pricing::default());
        for t in 0..4 {
            s.put(&format!("q7/s1/t{t}"), vec![0; 10]);
        }
        s.put("q8/s1/t0", vec![0; 10]);
        assert_eq!(s.delete_prefix("q7/"), 4);
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.stored_bytes(), 10);
        // Deletes added no request charges beyond the 5 PUTs.
        assert_eq!(s.ledger().put_requests, 5);
        assert_eq!(s.ledger().get_requests, 0);
    }

    #[test]
    fn injected_transient_errors_bill_extra_requests_and_recover() {
        use cackle_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
        let s = ObjectStore::new(Pricing::default());
        let spec = FaultSpec::default().with_store_errors(0.6, 0.6);
        let inj = FaultInjector::new(
            FaultPlan::compile(&spec, 13).unwrap(),
            RecoveryPolicy::default().with_max_retries(3),
        );
        s.inject_faults(&inj);
        for i in 0..50 {
            s.put(&format!("k{i}"), vec![7; 4]);
            assert!(s.get(&format!("k{i}")).is_some(), "every GET recovers");
        }
        let l = s.ledger();
        // Transient errors retried: more billed requests than operations,
        // bounded by 1 + max_retries attempts each.
        assert!(l.put_requests > 50 && l.put_requests <= 200, "{}", {
            l.put_requests
        });
        assert!(l.get_requests > 50 && l.get_requests <= 200, "{}", {
            l.get_requests
        });
        // Payload accounting is per-operation, not per-attempt.
        assert_eq!(l.bytes_put, 200);
        assert_eq!(l.bytes_get, 200);
    }

    #[test]
    fn billing_is_independent_of_request_order() {
        use cackle_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
        // One fixed multiset of keyed requests whose attempt counts vary
        // (1–4 per request), issued in two orders — what two worker
        // counts do to the store.
        let spec = FaultSpec::default().with_store_errors(0.2, 0.2);
        let inj = FaultInjector::new(
            FaultPlan::compile(&spec, 29).unwrap(),
            RecoveryPolicy::default().with_max_retries(3),
        );
        let requests: Vec<(bool, String)> = (0..800)
            .flat_map(|i| [(true, format!("q{}/t{i}", i % 7)), (false, format!("k{i}"))])
            .collect();
        let run = |order: &mut dyn Iterator<Item = &(bool, String)>| {
            let s = ObjectStore::new(Pricing::default());
            s.inject_faults(&inj);
            for (put, key) in order {
                if *put {
                    s.put(key, vec![3; 8]);
                } else {
                    s.get(key);
                }
            }
            s.ledger()
        };
        let a = run(&mut requests.iter());
        let b = run(&mut requests.iter().rev());
        assert!(a.put_requests > 800 && a.get_requests > 800, "no retries");
        assert_eq!(a, b);
    }

    #[test]
    fn modeled_requests_retry_bill_and_attribute_like_real_ones() {
        use cackle_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
        let pricing = Pricing::default();
        // Fault-free: exactly the requests asked for, nothing retried.
        let s = ObjectStore::new(pricing.clone());
        s.modeled_requests(StoreOp::Put, 3, 1, 200);
        s.modeled_requests(StoreOp::Get, 3, 2, 50);
        let l = s.ledger();
        assert_eq!((l.put_requests, l.get_requests, l.bytes_put), (200, 50, 0));
        assert_eq!(
            l.total(),
            pricing.requests(StoreOp::Put, 200) + pricing.requests(StoreOp::Get, 50)
        );
        assert_eq!(s.retried(), CostLedger::new());
        // Under store errors: the retried share is every attempt beyond
        // the first, priced like the rest, and the same in any order.
        let spec = FaultSpec::default().with_store_errors(0.5, 0.5);
        let inj = FaultInjector::new(
            FaultPlan::compile(&spec, 17).unwrap(),
            RecoveryPolicy::default(),
        );
        let stages = [
            (StoreOp::Put, 0, 0, 300),
            (StoreOp::Get, 0, 1, 120),
            (StoreOp::Put, 1, 0, 80),
        ];
        let run = |order: &mut dyn Iterator<Item = &(StoreOp, u64, u64, u64)>| {
            let s = ObjectStore::new(pricing.clone());
            s.inject_faults(&inj);
            for &(op, query, stage, n) in order {
                s.modeled_requests(op, query, stage, n);
            }
            (s.ledger(), s.retried())
        };
        let (l, retried) = run(&mut stages.iter());
        assert_eq!(run(&mut stages.iter().rev()), (l.clone(), retried.clone()));
        assert!(
            retried.put_requests > 0 && retried.get_requests > 0,
            "no retries"
        );
        assert_eq!(l.put_requests, 380 + retried.put_requests);
        assert_eq!(l.get_requests, 120 + retried.get_requests);
        assert_eq!(
            retried.total(),
            pricing.requests(StoreOp::Put, retried.put_requests)
                + pricing.requests(StoreOp::Get, retried.get_requests)
        );
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let s = Arc::new(ObjectStore::new(Pricing::default()));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for j in 0..50 {
                        s.put(&format!("t{i}/o{j}"), vec![i as u8; 16]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.object_count(), 400);
        assert_eq!(s.ledger().put_requests, 400);
    }
}
