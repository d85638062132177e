//! Parallel experiment sweeps over OS threads.
//!
//! Every experiment grid point (protocol × processors × scheme × geometry)
//! is an independent, deterministic simulation, so the runners fan the
//! points out over [`std::thread::scope`] threads. Results are written to
//! a per-index slot and collected in input order, so the output of a sweep
//! is **identical** to the serial loop it replaces — parallelism changes
//! wall-clock time, never content.
//!
//! No thread pool, no channels, no dependencies: a shared atomic cursor
//! hands indices to workers (work stealing), and every worker is joined
//! before returning. A panic in a grid point propagates to the caller with
//! its own payload, as the serial loop would raise it.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on worker threads (grid points are CPU-bound simulations;
/// more threads than cores just adds scheduling noise).
fn worker_count(points: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    cores.min(points).max(1)
}

/// Applies `f` to every point, in parallel, returning results in input
/// order. `f` receives the point's index and a reference to the point.
///
/// # Panics
///
/// Re-raises the panic of the lowest-index point whose `f` panicked, with
/// its original payload — the same panic the serial loop would raise.
pub fn sweep<T: Sync, R: Send>(points: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let n = points.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return points.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // A worker stops at its first panicking point and hands back its index
    // and payload. Indices are claimed in increasing order, so every point
    // below the lowest panicking one has been claimed by some worker and
    // run to completion: the lowest index reported is the serial loop's.
    let worker = || -> Option<(usize, Box<dyn Any + Send>)> {
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return None;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| f(i, &points[i]))) {
                Ok(result) => *slots[i].lock().expect("result slot poisoned") = Some(result),
                Err(payload) => return Some((i, payload)),
            }
        }
    };
    let first_panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().unwrap_or_else(|payload| panic::resume_unwind(payload)))
            .min_by_key(|&(i, _)| i)
    });
    if let Some((_, payload)) = first_panic {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("sweep point {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let points: Vec<usize> = (0..100).collect();
        let out = sweep(&points, |i, &p| {
            // Stagger finish order so late indices often finish first.
            std::thread::sleep(std::time::Duration::from_micros((100 - i as u64) * 10));
            p * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep(&empty, |_, &x| x).is_empty());
        assert_eq!(sweep(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn index_matches_point() {
        let points: Vec<usize> = (0..50).collect();
        let out = sweep(&points, |i, &p| {
            assert_eq!(i, p);
            i
        });
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn matches_serial_execution() {
        let points: Vec<u64> = (1..40).collect();
        let serial: Vec<u64> = points.iter().map(|&p| p * p + 1).collect();
        assert_eq!(sweep(&points, |_, &p| p * p + 1), serial);
    }

    #[test]
    #[should_panic(expected = "grid point failed")]
    fn propagates_worker_panics() {
        let points: Vec<usize> = (0..8).collect();
        sweep(&points, |_, &p| {
            if p == 5 {
                panic!("grid point failed");
            }
            p
        });
    }

    #[test]
    #[should_panic(expected = "point 3 failed")]
    fn propagates_the_lowest_index_panic() {
        // Point 3 waits until point 6 has panicked, so with two or more
        // workers the higher index fails first. The serial path (one core)
        // reaches point 3 first and times out instead.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let points: Vec<usize> = (0..8).collect();
        sweep(&points, |_, &p| {
            if p == 6 {
                let _ = tx.send(());
                panic!("point 6 failed");
            }
            if p == 3 {
                let rx = rx.lock().expect("receiver lock poisoned");
                let _ = rx.recv_timeout(std::time::Duration::from_secs(1));
                panic!("point 3 failed");
            }
            p
        });
    }
}
