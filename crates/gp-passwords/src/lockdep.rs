//! Runtime lock-order checking (lockdep) for the store's lock hierarchy.
//!
//! The canonical acquisition order of the sharded store is
//! `snap → accounts → wal` (see [`crate::shard`]). `gp-lint` checks that
//! order statically; this module checks it *dynamically*: the store's locks
//! are wrapped in [`OrderedMutex`] / [`OrderedRwLock`], each tagged with a
//! [`LockClass`] rank. In debug builds (which is what `cargo test` runs)
//! every acquisition is pushed onto a thread-local held-stack and recorded
//! into a global acquisition-order graph; acquiring a lock whose rank is not
//! strictly greater than every lock already held by the thread panics
//! immediately with both acquisition sites. Every existing concurrency test
//! therefore doubles as a deadlock detector — an inversion panics the first
//! time it *runs*, not the first time it deadlocks under contention.
//!
//! Release builds compile the tracking out entirely; the wrappers are
//! zero-cost shims over [`parking_lot`]'s primitives.

use parking_lot::{Mutex, RwLock};
use std::ops::{Deref, DerefMut};
use std::panic::Location;

/// A named rank in the lock hierarchy. Locks must be acquired in strictly
/// increasing rank order within a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    /// Human-readable class name, used in panic messages and the graph.
    pub name: &'static str,
    /// Position in the canonical order; smaller ranks are acquired first.
    pub rank: u8,
}

impl LockClass {
    /// The node's compaction lock (`snapshot_lock`), acquired first.
    pub const SNAP: LockClass = LockClass {
        name: "snap",
        rank: 10,
    };
    /// Per-shard account map (`accounts`), acquired after `snap`.
    pub const ACCOUNTS: LockClass = LockClass {
        name: "accounts",
        rank: 20,
    };
    /// The node's WAL (`wal`), acquired last.
    pub const WAL: LockClass = LockClass {
        name: "wal",
        rank: 30,
    };
}

#[cfg(debug_assertions)]
mod tracking {
    use super::LockClass;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex as StdMutex, OnceLock};

    #[derive(Clone, Copy)]
    struct Held {
        class: LockClass,
        token: u64,
        location: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    type EdgeGraph = BTreeMap<(&'static str, &'static str), (String, String)>;

    fn graph() -> &'static StdMutex<EdgeGraph> {
        static GRAPH: OnceLock<StdMutex<EdgeGraph>> = OnceLock::new();
        GRAPH.get_or_init(|| StdMutex::new(BTreeMap::new()))
    }

    /// Check the rank discipline, record the acquisition, return a token the
    /// guard uses to pop itself on drop.
    pub(super) fn acquire(class: LockClass, location: &'static Location<'static>) -> u64 {
        HELD.with(|cell| {
            let mut held = cell.borrow_mut();
            for prior in held.iter() {
                if prior.class.rank >= class.rank {
                    panic!(
                        "lock-order inversion: acquiring `{}` (rank {}) at {} while \
                         holding `{}` (rank {}) acquired at {}; canonical order is \
                         snap -> accounts -> wal",
                        class.name,
                        class.rank,
                        location,
                        prior.class.name,
                        prior.class.rank,
                        prior.location,
                    );
                }
            }
            if !held.is_empty() {
                let mut g = match graph().lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                for prior in held.iter() {
                    g.entry((prior.class.name, class.name))
                        .or_insert_with(|| (prior.location.to_string(), location.to_string()));
                }
            }
            // gp-lint: allow(L6, token ids need uniqueness only; edges publish via the graph mutex)
            let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            held.push(Held {
                class,
                token,
                location,
            });
            token
        })
    }

    pub(super) fn release(token: u64) {
        HELD.with(|cell| cell.borrow_mut().retain(|h| h.token != token));
    }

    /// Snapshot of the global acquisition-order graph: `(held, acquired)`
    /// class-name pairs observed so far, with one example site each.
    pub fn observed_edges() -> Vec<super::ObservedEdge> {
        let g = match graph().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        g.iter().map(|(k, v)| (*k, v.clone())).collect()
    }
}

/// One observed acquisition edge: the `(held-class, acquired-class)` name
/// pair plus one example `(held-site, acquired-site)` location pair.
pub type ObservedEdge = ((&'static str, &'static str), (String, String));

/// Snapshot of the global acquisition-order graph (debug builds only):
/// `((held-class, acquired-class), (held-site, acquired-site))` pairs.
#[cfg(debug_assertions)]
pub fn observed_edges() -> Vec<ObservedEdge> {
    tracking::observed_edges()
}

/// Token representing one tracked acquisition; a no-op in release builds.
#[derive(Debug)]
struct Tracked {
    #[cfg(debug_assertions)]
    token: u64,
}

impl Tracked {
    #[inline]
    fn acquire(class: LockClass, location: &'static Location<'static>) -> Tracked {
        #[cfg(not(debug_assertions))]
        {
            let _ = (class, location);
            Tracked {}
        }
        #[cfg(debug_assertions)]
        Tracked {
            token: tracking::acquire(class, location),
        }
    }
}

impl Drop for Tracked {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        tracking::release(self.token);
    }
}

/// A [`parking_lot::Mutex`] participating in the lock hierarchy.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` in a mutex belonging to `class`.
    pub fn new(class: LockClass, value: T) -> Self {
        Self {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Acquire the lock, enforcing the rank discipline in debug builds.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let location = Location::caller();
        let guard = self.inner.lock();
        OrderedMutexGuard {
            _tracked: Tracked::acquire(self.class, location),
            guard,
        }
    }

    /// Try to acquire without blocking; tracked like `lock` on success.
    #[track_caller]
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let location = Location::caller();
        let guard = self.inner.try_lock()?;
        Some(OrderedMutexGuard {
            _tracked: Tracked::acquire(self.class, location),
            guard,
        })
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// Guard returned by [`OrderedMutex::lock`].
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T> {
    // Field order matters: the data guard must drop before the tracking pop
    // would matter, but either order is safe — tokens pop by identity.
    _tracked: Tracked,
    guard: std::sync::MutexGuard<'a, T>,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`parking_lot::RwLock`] participating in the lock hierarchy.
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    class: LockClass,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wrap `value` in a reader–writer lock belonging to `class`.
    pub fn new(class: LockClass, value: T) -> Self {
        Self {
            class,
            inner: RwLock::new(value),
        }
    }

    /// Acquire a shared read guard, enforcing the rank discipline.
    #[track_caller]
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let location = Location::caller();
        let guard = self.inner.read();
        OrderedReadGuard {
            _tracked: Tracked::acquire(self.class, location),
            guard,
        }
    }

    /// Acquire an exclusive write guard, enforcing the rank discipline.
    #[track_caller]
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let location = Location::caller();
        let guard = self.inner.write();
        OrderedWriteGuard {
            _tracked: Tracked::acquire(self.class, location),
            guard,
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// Guard returned by [`OrderedRwLock::read`].
#[derive(Debug)]
pub struct OrderedReadGuard<'a, T> {
    _tracked: Tracked,
    guard: std::sync::RwLockReadGuard<'a, T>,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Guard returned by [`OrderedRwLock::write`].
#[derive(Debug)]
pub struct OrderedWriteGuard<'a, T> {
    _tracked: Tracked,
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_is_accepted() {
        let accounts = OrderedRwLock::new(LockClass::ACCOUNTS, 1u32);
        let wal = OrderedMutex::new(LockClass::WAL, 2u32);
        let a = accounts.write();
        let w = wal.lock();
        assert_eq!(*a + *w, 3);
    }

    #[test]
    fn guards_pop_out_of_order_safely() {
        let snap = OrderedMutex::new(LockClass::SNAP, ());
        let wal = OrderedMutex::new(LockClass::WAL, ());
        let s = snap.lock();
        let w = wal.lock();
        drop(s); // release lower rank first; token-based pop handles it
        drop(w);
        let _again = snap.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn inversion_panics_in_debug_builds() {
        let accounts = OrderedRwLock::new(LockClass::ACCOUNTS, ());
        let wal = OrderedMutex::new(LockClass::WAL, ());
        let _w = wal.lock();
        let _a = accounts.read();
    }
}
