//! Query coalescing: one in-flight resolution per distinct question.
//!
//! When several workers ask the same `(qname, qtype)` at once — common at
//! sweep start, when every worker needs the TLD's NS set — only the first
//! does network work; the rest block until the leader publishes its result
//! and then share it. This is the classic "singleflight" pattern.

use parking_lot::{Condvar, Mutex};
// dps: allow-file(unordered-collection, reason = "the in-flight table is a keyed lookup only, never iterated")
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Call<V> {
    slot: Mutex<Option<V>>,
    done: Condvar,
}

/// Deduplicates concurrent identical calls.
pub struct Singleflight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Call<V>>>>,
    coalesced: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> Singleflight<K, V> {
    /// An empty flight table.
    pub fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Runs `work` for `key`, unless an identical call is already in
    /// flight — then blocks and returns the leader's result instead.
    /// The boolean is true when this call was coalesced onto another.
    ///
    /// `work` must not panic: followers of a panicked leader would wait
    /// forever (resolution work returns errors as values, so this does not
    /// arise in practice).
    pub fn run(&self, key: K, work: impl FnOnce() -> V) -> (V, bool) {
        let call = {
            let mut inflight = self.inflight.lock();
            match inflight.entry(key.clone()) {
                Entry::Occupied(e) => {
                    let call = Arc::clone(e.get());
                    drop(inflight);
                    let mut slot = call.slot.lock();
                    while slot.is_none() {
                        call.done.wait(&mut slot);
                    }
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return (slot.clone().expect("leader published"), true);
                }
                Entry::Vacant(v) => {
                    let call = Arc::new(Call {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    v.insert(Arc::clone(&call));
                    call
                }
            }
        };
        let value = work();
        *call.slot.lock() = Some(value.clone());
        call.done.notify_all();
        self.inflight.lock().remove(&key);
        (value, false)
    }

    /// Calls that piggy-backed on another's work so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for Singleflight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

    #[test]
    fn sequential_calls_each_run() {
        let sf = Singleflight::new();
        let (a, c1) = sf.run("k", || 1);
        let (b, c2) = sf.run("k", || 2);
        assert_eq!((a, c1, b, c2), (1, false, 2, false));
        assert_eq!(sf.coalesced(), 0);
    }

    #[test]
    fn concurrent_identical_calls_coalesce() {
        const THREADS: u32 = 8;
        let sf = Arc::new(Singleflight::new());
        let executions = Arc::new(AtomicU32::new(0));
        let gate = Arc::new(Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (sf, executions, gate) =
                    (Arc::clone(&sf), Arc::clone(&executions), Arc::clone(&gate));
                std::thread::spawn(move || {
                    gate.wait();
                    sf.run("k", || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for others to pile on.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        42
                    })
                    .0
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        // Every thread that arrived while the leader slept shared its work.
        let ran = executions.load(Ordering::SeqCst);
        assert!(ran < THREADS, "{ran} executions for {THREADS} threads");
        assert_eq!(sf.coalesced(), u64::from(THREADS - ran));
    }
}
