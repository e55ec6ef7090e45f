//! The crate's one sync seam: poison-ignoring `Mutex` / `RwLock` /
//! `Condvar` over `std::sync`, and the deliberate yield.
//!
//! Every critical section in this crate leaves its data valid at each step,
//! so a thread that panicked while holding a lock must not wedge the server
//! for everyone else: `lock()` / `read()` / `write()` and the condvar waits
//! hand back the guard whether or not the lock is poisoned. Every lock, wait
//! and yield in the crate goes through here (`clippy.toml` refuses the `std`
//! originals elsewhere), so a scheduler can intercept them all in one place.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub(crate) use std::sync::RwLockWriteGuard;
use std::sync::{self, MutexGuard, RwLockReadGuard};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
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

#[derive(Debug, Default)]
pub(crate) struct Condvar(sync::Condvar);

impl Condvar {
    pub(crate) fn notify_one(&self) {
        self.0.notify_one();
    }

    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Wait while `condition` holds, up to `timeout` in total (any
    /// `Duration`, `Duration::MAX` included). Returns the guard and whether
    /// the wait timed out with the condition still holding. Unlike std's,
    /// a poisoned wakeup re-checks the condition instead of returning.
    pub(crate) fn wait_timeout_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> (MutexGuard<'a, T>, bool) {
        let start = Instant::now();
        while condition(&mut guard) {
            let Some(left) = timeout.checked_sub(start.elapsed()) else {
                return (guard, true);
            };
            guard = self
                .0
                .wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        (guard, false)
    }
}

/// Offer the rest of this thread's time slice to another runnable thread.
pub(crate) fn yield_now() {
    std::thread::yield_now();
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

    #[test]
    fn wait_timeout_while_survives_poison_and_honours_the_condition() {
        let m = Mutex::new(0);
        let cond = Condvar::default();
        let panicked = thread::scope(|s| {
            s.spawn(|| {
                let _guard = m.lock();
                panic!("poison the mutex");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(m.0.is_poisoned());
        // Nothing to wait for: the guard comes straight back.
        let (guard, timed_out) = cond.wait_timeout_while(m.lock(), Duration::MAX, |n| *n != 0);
        assert!(!timed_out);
        drop(guard);
        // A condition nobody satisfies times out with the guard in hand.
        let (guard, timed_out) =
            cond.wait_timeout_while(m.lock(), Duration::from_millis(5), |n| *n == 0);
        assert!(timed_out);
        assert_eq!(*guard, 0);
        drop(guard);
        // Woken on the poisoned mutex, the wait re-checks and returns only
        // once the condition is false.
        thread::scope(|s| {
            s.spawn(|| {
                for step in 1..=3 {
                    thread::sleep(Duration::from_millis(2));
                    *m.lock() = step;
                    cond.notify_all();
                }
            });
            let (guard, timed_out) =
                cond.wait_timeout_while(m.lock(), Duration::from_secs(10), |n| *n < 3);
            assert!(!timed_out);
            assert_eq!(*guard, 3);
        });
    }
}
