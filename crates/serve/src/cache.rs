//! The parsed-circuit LRU cache — why repeat tenants are fast.
//!
//! The service's dominant cost for small requests is not the simulation
//! itself but the per-request setup: parsing QASM (or walking op JSON)
//! and building the [`Circuit`]. A tenant polling `/gradient` with fresh
//! parameters every few milliseconds re-pays that setup on every call
//! unless we remember the structure.
//!
//! The cache maps the **raw wire form** of a circuit (the
//! [`CircuitSpec::cache_token`] string — QASM text or canonical op JSON,
//! *before* any parsing) to an [`Arc`] of the built circuit. Keying on the
//! raw form means a warm hit skips the QASM parser and the builder
//! entirely; the handler goes straight from HTTP bytes to
//! [`Circuit::run`].
//!
//! Entries are found by FNV-64 hash of the token with a full token
//! equality check behind it, so hash collisions cost a miss, never a
//! wrong circuit. Eviction is exact LRU over a small `Vec` (capacity is
//! tens of entries — a scan beats pointer-chasing at this size).
//! Building happens **outside** the lock: concurrent first requests for
//! the same circuit may both build (duplicated work, bounded by the
//! worker count) but nobody ever waits on a build while holding the
//! cache.

use std::sync::{Arc, Mutex, PoisonError};

use plateau_sim::Circuit;

use crate::protocol::{CircuitSpec, ProtocolError};

/// A cached circuit structure: the built circuit.
#[derive(Debug)]
pub struct CachedCircuit {
    /// The exact token this entry was built from (collision guard).
    token: String,
    /// The built circuit.
    pub circuit: Circuit,
}

/// FNV-1a 64-bit — tiny, deterministic, good enough to spread cache
/// tokens; correctness never depends on it (tokens are compared too).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Slot {
    hash: u64,
    entry: Arc<CachedCircuit>,
    /// Monotone use stamp; smallest = least recently used.
    stamp: u64,
}

/// An exact-LRU cache of parsed circuit structures.
pub struct CircuitCache {
    /// Every lock recovers a poisoned mutex: no code panics while holding
    /// it, so one panicking request cannot fail every later one.
    slots: Mutex<(Vec<Slot>, u64)>,
    capacity: usize,
}

impl CircuitCache {
    /// A cache holding at most `capacity` circuits.
    pub fn with_capacity(capacity: usize) -> CircuitCache {
        CircuitCache {
            slots: Mutex::new((Vec::with_capacity(capacity.min(64)), 0)),
            capacity: capacity.max(1),
        }
    }

    /// [`CircuitCache::with_capacity`]; the flag, which chose whether
    /// entries were compiled, is ignored. Kept only until a benchmark
    /// change drops its calls.
    pub fn new(capacity: usize, _compile: bool) -> CircuitCache {
        CircuitCache::with_capacity(capacity)
    }

    /// Looks up `spec`, building and inserting on a miss. Returns the
    /// shared entry and whether this call was a hit.
    ///
    /// Emits `serve.cache.hits` / `serve.cache.misses` and keeps the
    /// `serve.cache.entries` gauge current.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError`] from building the circuit (bad QASM,
    /// invalid ops); failures are not cached.
    pub fn get_or_build(
        &self,
        spec: &CircuitSpec,
    ) -> Result<(Arc<CachedCircuit>, bool), ProtocolError> {
        let token = spec.cache_token();
        let hash = fnv64(token.as_bytes());
        if let Some(entry) = self.lookup(hash, &token) {
            plateau_obs::counter!("serve.cache.hits").inc();
            return Ok((entry, true));
        }
        plateau_obs::counter!("serve.cache.misses").inc();
        // Build outside the lock — parsing can take milliseconds and
        // must not serialize unrelated tenants.
        let circuit = spec.build()?;
        let entry = Arc::new(CachedCircuit { token, circuit });
        self.insert(hash, Arc::clone(&entry));
        Ok((entry, false))
    }

    fn lookup(&self, hash: u64, token: &str) -> Option<Arc<CachedCircuit>> {
        let mut guard = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let (slots, clock) = &mut *guard;
        let slot = slots
            .iter_mut()
            .find(|s| s.hash == hash && s.entry.token == token)?;
        *clock += 1;
        slot.stamp = *clock;
        Some(Arc::clone(&slot.entry))
    }

    fn insert(&self, hash: u64, entry: Arc<CachedCircuit>) {
        let mut guard = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let (slots, clock) = &mut *guard;
        // A racing builder may have inserted the same token meanwhile;
        // keep the existing entry and drop ours.
        if slots
            .iter()
            .any(|s| s.hash == hash && s.entry.token == entry.token)
        {
            return;
        }
        if slots.len() >= self.capacity {
            if let Some((lru, _)) = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, s)| (i, s.stamp))
            {
                slots.swap_remove(lru);
                plateau_obs::counter!("serve.cache.evictions").inc();
            }
        }
        *clock += 1;
        slots.push(Slot {
            hash,
            entry,
            stamp: *clock,
        });
        plateau_obs::gauge!("serve.cache.entries").set(slots.len() as f64);
    }

    /// Drops every entry (used by the load generator to re-measure the
    /// cold path).
    pub fn clear(&self) {
        let mut guard = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0.clear();
        plateau_obs::gauge!("serve.cache.entries").set(0.0);
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner).0.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize, layers: usize) -> CircuitSpec {
        let mut c = Circuit::new(n).unwrap();
        for _ in 0..layers {
            for q in 0..n {
                c.ry(q).unwrap();
            }
            for q in 0..n - 1 {
                c.cz(q, q + 1).unwrap();
            }
        }
        CircuitSpec::from_circuit(&c)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_entry() {
        let cache = CircuitCache::with_capacity(4);
        let (a, hit_a) = cache.get_or_build(&spec(3, 2)).unwrap();
        let (b, hit_b) = cache.get_or_build(&spec(3, 2)).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_specs_get_distinct_entries() {
        let cache = CircuitCache::with_capacity(4);
        let (a, _) = cache.get_or_build(&spec(3, 2)).unwrap();
        let (b, _) = cache.get_or_build(&spec(4, 2)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = CircuitCache::with_capacity(2);
        cache.get_or_build(&spec(2, 1)).unwrap();
        cache.get_or_build(&spec(3, 1)).unwrap();
        // Touch the first so the second is LRU.
        cache.get_or_build(&spec(2, 1)).unwrap();
        cache.get_or_build(&spec(4, 1)).unwrap();
        assert_eq!(cache.len(), 2);
        // 2q stayed warm, 3q was evicted.
        let (_, hit) = cache.get_or_build(&spec(2, 1)).unwrap();
        assert!(hit);
        let (_, hit) = cache.get_or_build(&spec(3, 1)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn qasm_and_ops_forms_cache_independently() {
        let cache = CircuitCache::with_capacity(4);
        let ops_form = spec(2, 1);
        let circuit = ops_form.build().unwrap();
        let qasm = plateau_sim::qasm::to_qasm(&circuit, &vec![0.0; circuit.n_params()]).unwrap();
        cache.get_or_build(&ops_form).unwrap();
        let (_, hit) = cache.get_or_build(&CircuitSpec::Qasm(qasm)).unwrap();
        assert!(!hit, "different wire forms must not collide");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn build_failures_are_not_cached() {
        let cache = CircuitCache::with_capacity(4);
        let bad = CircuitSpec::Qasm("OPENQASM 2.0; nonsense".into());
        assert!(cache.get_or_build(&bad).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_forces_cold_rebuild() {
        let cache = CircuitCache::with_capacity(4);
        cache.get_or_build(&spec(3, 1)).unwrap();
        cache.clear();
        let (_, hit) = cache.get_or_build(&spec(3, 1)).unwrap();
        assert!(!hit);
    }
}
