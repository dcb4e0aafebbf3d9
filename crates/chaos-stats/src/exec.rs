//! Deterministic execution policies for the embarrassingly parallel
//! stages of the CHAOS pipeline.
//!
//! CHAOS composes a cluster model as a sum of independent per-machine
//! models (Eq. 5), so per-machine fits, cross-validation folds (Eq. 6),
//! sweep grid cells and fault-sweep points are all pure functions of
//! their inputs. [`ExecPolicy`] makes that structure explicit: every
//! parallel entry point in the workspace takes a policy, and
//! [`ExecPolicy::Serial`] and [`ExecPolicy::Parallel`] are guaranteed to
//! produce *bit-identical* results because
//!
//! 1. each work item is a pure function of its index alone,
//! 2. results are merged back into index order before anything reads
//!    them, and
//! 3. every floating-point reduction happens over the ordered, merged
//!    sequence — never in thread-completion order.
//!
//! The scheduler is a scoped-thread fan-out with an atomic work-stealing
//! counter: no external dependencies, no work queues, no channels.
//!
//! # Example
//!
//! ```
//! use chaos_stats::exec::ExecPolicy;
//!
//! let serial = ExecPolicy::Serial.par_map_indices(100, |i| (i as f64).sqrt());
//! let parallel = ExecPolicy::Parallel { threads: 4 }.par_map_indices(100, |i| (i as f64).sqrt());
//! assert_eq!(serial, parallel); // bit-identical, not just approximately equal
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// How a batch of independent work items is executed.
///
/// The two modes are interchangeable by construction: callers only ever
/// observe results in item order, so switching policies never changes a
/// single bit of the output (see the [module docs](self) for why).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Run every item on the calling thread, in index order.
    #[default]
    Serial,
    /// Fan items out over `threads` scoped worker threads.
    ///
    /// `threads == 0` means "use all available cores" and `threads == 1`
    /// degenerates to [`ExecPolicy::Serial`] behavior.
    Parallel {
        /// Number of worker threads (`0` = all available cores).
        threads: usize,
    },
}

impl ExecPolicy {
    /// Picks a policy from the machine: parallel over all cores when more
    /// than one is available, serial otherwise.
    pub fn auto() -> Self {
        match thread::available_parallelism() {
            Ok(n) if n.get() > 1 => ExecPolicy::Parallel { threads: n.get() },
            _ => ExecPolicy::Serial,
        }
    }

    /// Reads the policy from the `CHAOS_THREADS` environment variable.
    ///
    /// * unset, empty or `auto` → [`ExecPolicy::auto`]
    /// * `serial`, `0` or `1` → [`ExecPolicy::Serial`]
    /// * any other integer `n` → `Parallel { threads: n }`
    /// * anything unparsable → [`ExecPolicy::Serial`]
    pub fn from_env() -> Self {
        match std::env::var("CHAOS_THREADS") {
            Err(_) => ExecPolicy::auto(),
            Ok(v) => match v.trim() {
                "" | "auto" => ExecPolicy::auto(),
                "serial" | "0" | "1" => ExecPolicy::Serial,
                other => match other.parse::<usize>() {
                    Ok(n) => ExecPolicy::Parallel { threads: n },
                    Err(_) => ExecPolicy::Serial,
                },
            },
        }
    }

    /// Whether this policy fans work out over more than one thread.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// The number of worker threads this policy resolves to (1 for
    /// serial execution).
    pub fn threads(&self) -> usize {
        match *self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { threads: 0 } => thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            ExecPolicy::Parallel { threads } => threads,
        }
    }

    /// Maps `f` over `0..n` and returns the results in index order.
    ///
    /// `f` must be pure: under a parallel policy it runs concurrently on
    /// worker threads in an unspecified order.
    pub fn par_map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads().min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        // Per-worker item counts feed the work-stealing balance metrics;
        // only collected when observability is on.
        let track = chaos_obs::enabled();
        let worker_items: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let next = AtomicUsize::new(0);
        let merged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    if track {
                        worker_items
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(local.len());
                    }
                    merged
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .extend(local);
                });
            }
        });
        if track {
            chaos_obs::add("exec.parallel_batches", 1);
            chaos_obs::add("exec.items", n as u64);
            let items = worker_items
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for count in items {
                chaos_obs::record("exec.worker_items", count as u64);
                // 1000 = perfectly even split across workers; 0 = a worker
                // that never won a steal.
                chaos_obs::record(
                    "exec.worker_share_permille",
                    (count * workers * 1000 / n) as u64,
                );
            }
        }
        let mut pairs = merged
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    /// Maps a fallible `f` over `0..n`; on failure returns the error with
    /// the *lowest index* — exactly the error serial execution would have
    /// stopped at first.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index error produced by `f`, if any.
    pub fn try_par_map_indices<R, E, F>(&self, n: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        let mut out = Vec::with_capacity(n);
        for item in self.par_map_indices(n, f) {
            out.push(item?);
        }
        Ok(out)
    }

    /// Maps `f` over a slice, returning results in item order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_indices(items.len(), |i| f(&items[i]))
    }

    /// Maps a fallible `f` over a slice; on failure returns the
    /// lowest-index error, matching serial first-error semantics.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index error produced by `f`, if any.
    pub fn try_par_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        self.try_par_map_indices(items.len(), |i| f(&items[i]))
    }

    /// Maps `f` over a mutable slice in place, returning the per-item
    /// results in item order.
    ///
    /// This is the sharding primitive for stateful work: each item owns
    /// mutable state (e.g. one machine's state in the streaming
    /// engine's tick) and `f` advances it. The slice is split into
    /// contiguous chunks, one per worker, so item `i` is always processed
    /// by exactly one thread and results are merged back in chunk — i.e.
    /// index — order. Because `f` only sees one item at a time, the
    /// output is bit-identical across thread counts for any `f` that is
    /// a pure function of the item it receives.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads().min(n);
        if workers <= 1 {
            // chaos-lint: allow(R6) — the API returns an owned result vector; one output allocation per call, not per item
            return items.iter_mut().map(f).collect();
        }
        let chunk = n.div_ceil(workers);
        let f = &f;
        // chaos-lint: allow(R6) — per-parallel-region scaffolding (chunk partitions, spawn handles, per-chunk result
        // collection and joins), bounded by the worker count and amortized across the whole batch
        let chunked: Vec<Vec<R>> = thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks_mut(chunk)
                .map(|part| scope.spawn(move || part.iter_mut().map(f).collect::<Vec<R>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(results) => results,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        if chaos_obs::enabled() {
            chaos_obs::add("exec.parallel_batches", 1);
            chaos_obs::add("exec.items", n as u64);
        }
        // chaos-lint: allow(R6) — single merge of per-chunk results into the owned output vector
        let mut out = Vec::with_capacity(n);
        for part in chunked {
            // chaos-lint: allow(R6) — extends into the preallocated output above
            out.extend(part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let f = |i: usize| ((i as f64 * 12.9898).sin() * 43758.5453).fract();
        let serial = ExecPolicy::Serial.par_map_indices(257, f);
        for threads in [2, 3, 4, 8] {
            let par = ExecPolicy::Parallel { threads }.par_map_indices(257, f);
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let p = ExecPolicy::Parallel { threads: 4 };
        assert_eq!(p.par_map_indices(0, |i| i), Vec::<usize>::new());
        assert_eq!(p.par_map_indices(1, |i| i * 10), vec![0]);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let f = |i: usize| if i % 5 == 3 { Err(i) } else { Ok(i) };
        let serial = ExecPolicy::Serial.try_par_map_indices(100, f);
        let par = ExecPolicy::Parallel { threads: 8 }.try_par_map_indices(100, f);
        assert_eq!(serial, Err(3));
        assert_eq!(par, Err(3));
    }

    #[test]
    fn try_map_success_round_trips() {
        let f = |i: usize| Ok::<_, ()>(i * i);
        let got = ExecPolicy::Parallel { threads: 3 }
            .try_par_map_indices(20, f)
            .unwrap();
        assert_eq!(got, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn slice_variants_preserve_order() {
        let items: Vec<f64> = (0..64).map(|i| i as f64 / 7.0).collect();
        let serial = ExecPolicy::Serial.par_map(&items, |x| x.exp());
        let par = ExecPolicy::Parallel { threads: 4 }.par_map(&items, |x| x.exp());
        assert_eq!(serial, par);
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(ExecPolicy::Serial.threads(), 1);
        assert!(!ExecPolicy::Serial.is_parallel());
        assert_eq!(ExecPolicy::Parallel { threads: 4 }.threads(), 4);
        assert!(ExecPolicy::Parallel { threads: 4 }.is_parallel());
        assert!(ExecPolicy::Parallel { threads: 0 }.threads() >= 1);
        assert!(!ExecPolicy::Parallel { threads: 1 }.is_parallel());
    }

    #[test]
    fn parallel_batches_record_worker_metrics_when_enabled() {
        chaos_obs::set_level(chaos_obs::ObsLevel::Summary);
        let out = ExecPolicy::Parallel { threads: 4 }.par_map_indices(64, |i| i * 2);
        chaos_obs::set_level(chaos_obs::ObsLevel::Off);
        assert_eq!(out.len(), 64);
        // Other tests may run batches concurrently while the level is on,
        // so assert lower bounds only.
        assert!(chaos_obs::counters()
            .iter()
            .any(|(n, v)| n == "exec.items" && *v >= 64));
        let hists = chaos_obs::histograms();
        let (_, h) = hists
            .iter()
            .find(|(n, _)| n == "exec.worker_items")
            .expect("worker items histogram registered");
        assert!(h.count >= 1);
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_preserves_order() {
        let base: Vec<f64> = (0..97).map(|i| i as f64 / 13.0).collect();
        let mut serial = base.clone();
        let serial_out = ExecPolicy::Serial.par_map_mut(&mut serial, |x| {
            *x = x.sin();
            x.to_bits()
        });
        for threads in [2, 3, 4, 8] {
            let mut par = base.clone();
            let par_out = ExecPolicy::Parallel { threads }.par_map_mut(&mut par, |x| {
                *x = x.sin();
                x.to_bits()
            });
            assert_eq!(serial, par, "state, threads = {threads}");
            assert_eq!(serial_out, par_out, "results, threads = {threads}");
        }
    }

    #[test]
    fn par_map_mut_empty_and_singleton() {
        let p = ExecPolicy::Parallel { threads: 4 };
        let mut empty: Vec<usize> = Vec::new();
        assert_eq!(p.par_map_mut(&mut empty, |x| *x), Vec::<usize>::new());
        let mut one = vec![41usize];
        assert_eq!(
            p.par_map_mut(&mut one, |x| {
                *x += 1;
                *x
            }),
            vec![42]
        );
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn par_map_mut_more_threads_than_items() {
        let mut items: Vec<usize> = (0..3).collect();
        let out = ExecPolicy::Parallel { threads: 16 }.par_map_mut(&mut items, |x| *x * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn auto_is_valid_policy() {
        // Whatever the host looks like, auto() must resolve to >= 1 thread.
        assert!(ExecPolicy::auto().threads() >= 1);
    }
}
