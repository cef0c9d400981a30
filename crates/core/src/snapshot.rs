//! Atomic snapshot cells: read-mostly shared state without read locks.
//!
//! A [`SnapshotCell`] holds an immutable `Arc<T>` snapshot. Readers
//! [`load`](SnapshotCell::load) the current `Arc` (a refcount bump under
//! a briefly held lock — never held across any store round trip) and keep
//! working on that frozen snapshot for as long as they like. Writers
//! build the *next* snapshot and [`store`](SnapshotCell::store) it in one
//! swap, so a change — a new configuration, a refitted optimizer model —
//! is one transition: a concurrent query sees either the whole old value
//! or the whole new one, never a half-updated hybrid. This is the hand-rolled equivalent of the `arc-swap` crate
//! (this workspace is offline-vendored), trading the lock-free fast path
//! for `#![forbid(unsafe_code)]`.

use std::sync::Arc;

use parking_lot::Mutex;

/// An atomically swappable immutable snapshot of `T`.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    current: Mutex<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// A cell holding `value` as its first snapshot.
    pub fn new(value: T) -> Self {
        SnapshotCell { current: Mutex::new(Arc::new(value)) }
    }

    /// The current snapshot. The internal lock is held only for the
    /// refcount bump; the returned `Arc` stays valid (and frozen) however
    /// long the caller holds it.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.lock())
    }

    /// Replaces the snapshot wholesale.
    pub fn store(&self, value: T) {
        *self.current.lock() = Arc::new(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let cell = SnapshotCell::new(1);
        assert_eq!(*cell.load(), 1);
        cell.store(2);
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn readers_keep_their_snapshot_across_updates() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let before = cell.load();
        cell.store(vec![1, 2, 3, 4]);
        assert_eq!(*before, vec![1, 2, 3], "loaded snapshot is frozen");
        assert_eq!(*cell.load(), vec![1, 2, 3, 4]);
    }
}
