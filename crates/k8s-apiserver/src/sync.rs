//! Poison-ignoring `Mutex` / `RwLock` over `std::sync`.
//!
//! Every critical section in this crate leaves its data valid at each step,
//! so a thread that panicked while holding a lock must not wedge the server
//! for everyone else: `lock()` / `read()` / `write()` hand back the guard
//! whether or not the lock is poisoned.

use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug)]
pub(crate) struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[derive(Debug)]
pub(crate) struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn mutex_locks_and_recovers() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        let panicked = thread::scope(|s| {
            s.spawn(|| {
                let _guard = m.lock();
                panic!("poison the mutex");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(m.0.is_poisoned());
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_reads_and_writes() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        let panicked = thread::scope(|s| {
            s.spawn(|| {
                let _guard = l.write();
                panic!("poison the rwlock");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(l.0.is_poisoned());
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), [1, 2, 3]);
    }
}
