//! The checked-sync facade: every concurrency-bearing module of this crate
//! pulls its primitives from here instead of `std::sync`, so one cfg swaps
//! the whole serving stack onto the vendored `loom` model checker.
//!
//! * Default build: thin wrappers over `std::sync`. `Mutex::lock` returns
//!   the guard directly (a poisoned lock is recovered — the protected
//!   state in this crate is always valid at the point of panic, and the
//!   serving daemon's panic story is catch-and-refuse, not abort), which
//!   is also what keeps `unwrap`/`expect` out of the call sites — the
//!   `cargo xtask lint` rule banning them in this crate leans on this
//!   facade.
//! * `--cfg teal_loom` (set via `RUSTFLAGS`): the same names re-export the
//!   `loom` shims, and `crates/serve/tests/model_check.rs` exhaustively
//!   explores the interleavings of the WFQ arbiter, the shutdown protocol
//!   and the response-slot protocol.
//!
//! Modules opted into the facade carry a `// teal-lint: checked-sync`
//! marker; the lint then rejects any direct `use std::sync` in them so new
//! code cannot silently bypass the model-checkable layer. `server.rs` is
//! *not* opted in: it is compiled out of the loom build together with the
//! epoll loop it owns, and holds no concurrency of its own.
//!
//! The loom build intentionally supports only what a model needs: no
//! `RwLock` reader concurrency (readers serialize), condvar timeouts fire
//! immediately, and primitives must not be contended outside `loom::model`.

#[cfg(not(teal_loom))]
mod imp {
    use std::ops::{Deref, DerefMut};
    use std::sync::PoisonError;
    use std::time::Duration;

    pub use std::sync::atomic;
    pub use std::sync::Arc;

    /// `std::sync::Mutex` minus poisoning: `lock` always returns the
    /// guard. See the module docs for why recovery is sound here.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }
    }

    impl<T: ?Sized> Mutex<T> {
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
        }
    }

    pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    /// `std::sync::Condvar` over the facade's guards; `wait_timeout`
    /// returns a plain `bool` (timed out?) instead of std's result struct.
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        pub fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            MutexGuard(self.0.wait(guard.0).unwrap_or_else(PoisonError::into_inner))
        }

        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> (MutexGuard<'a, T>, bool) {
            let (g, res) = self
                .0
                .wait_timeout(guard.0, dur)
                .unwrap_or_else(PoisonError::into_inner);
            (MutexGuard(g), res.timed_out())
        }

        pub fn notify_one(&self) {
            self.0.notify_one()
        }

        pub fn notify_all(&self) {
            self.0.notify_all()
        }
    }

    /// `std::sync::RwLock` minus poisoning.
    #[derive(Debug, Default)]
    pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

    impl<T> RwLock<T> {
        pub fn new(value: T) -> Self {
            RwLock(std::sync::RwLock::new(value))
        }
    }

    impl<T: ?Sized> RwLock<T> {
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
        }

        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
        }
    }

    pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    pub mod thread {
        //! Thread spawning for facade users: named spawn that panics on
        //! spawn failure (resource exhaustion at thread creation has no
        //! graceful recovery in this daemon) and a join that reports the
        //! child's panic as a `Result` instead of propagating.

        pub struct JoinHandle<T>(std::thread::JoinHandle<T>);

        pub fn spawn_named<F, T>(name: &str, f: F) -> JoinHandle<T>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            match std::thread::Builder::new().name(name.to_string()).spawn(f) {
                Ok(h) => JoinHandle(h),
                Err(e) => panic!("spawn thread {name:?}: {e}"),
            }
        }

        impl<T> JoinHandle<T> {
            /// `Err(())` iff the thread panicked.
            #[allow(clippy::result_unit_err)]
            pub fn join(self) -> Result<T, ()> {
                self.0.join().map_err(|_| ())
            }
        }
    }
}

#[cfg(teal_loom)]
mod imp {
    pub use loom::sync::atomic;
    #[allow(unused_imports)] // parity with the std facade's full surface
    pub use loom::sync::{
        Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    };

    pub mod thread {
        //! Model-thread spawning: names are accepted for source
        //! compatibility and dropped (the scheduler identifies threads by
        //! spawn order).

        pub struct JoinHandle<T>(loom::thread::JoinHandle<T>);

        pub fn spawn_named<F, T>(_name: &str, f: F) -> JoinHandle<T>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            JoinHandle(loom::thread::spawn(f))
        }

        impl<T> JoinHandle<T> {
            /// `Err(())` iff the thread panicked.
            #[allow(clippy::result_unit_err)]
            pub fn join(self) -> Result<T, ()> {
                self.0.join().map_err(|_| ())
            }
        }
    }
}

pub(crate) use imp::*;
