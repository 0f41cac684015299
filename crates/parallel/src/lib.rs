//! # pm-parallel
//!
//! A tiny std-only fork-join executor for embarrassingly parallel batches.
//!
//! The Section 5.5 decomposition splits the maxent solve into many small
//! independent per-component systems; this crate runs such batches on a
//! bounded pool of scoped threads (`std::thread::scope`) with **work
//! stealing over chunks**: workers claim the next unprocessed chunk of the
//! input from a shared atomic cursor, so a worker that draws cheap items
//! keeps pulling work instead of idling behind a statically assigned slice.
//!
//! The offline build environment has no crates registry, so `rayon` is not
//! an option — the surface here is the minimal subset the engine needs:
//!
//! * [`map`] / [`map_with`] — parallel indexed map preserving input
//!   order, the latter with per-worker scratch state. Output `i` is always
//!   the result for input `i`, regardless of which worker computed it or
//!   when, so callers that merge results in input order are deterministic
//!   by construction. The chunk size comes from the item and worker
//!   counts; no caller picks one.
//! * [`broadcast`] — one scoped thread per task, for driving N independent
//!   concurrent *sessions* (shared-artifact `Analyst` handles) rather than
//!   load-balancing a batch.
//! * [`available_parallelism`] / [`resolve_threads`] — the `0 = auto`
//!   thread-count convention shared by `EngineConfig::threads` and the CLI.
//!
//! No `unsafe`: workers accumulate `(index, value)` pairs locally and the
//! caller scatters them after joining, trading one allocation per worker
//! for a safe, dependency-free implementation. A panicking closure panics
//! the calling thread after all workers have stopped (no work is leaked).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads, with a serial fallback when the platform
/// cannot tell (`std::thread::available_parallelism` errors).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Resolves a requested thread count: `0` means "use every available core"
/// (the default of `EngineConfig::threads` and the CLI's `--threads`).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_parallelism()
    } else {
        requested
    }
}

/// Chunk size balancing steal overhead against load imbalance: ~4 steals
/// per worker, so one slow chunk costs at most ~1/4 of a worker's share.
fn default_chunk(num_items: usize, threads: usize) -> usize {
    (num_items / (threads * 4)).max(1)
}

/// Parallel indexed map.
///
/// Calls `f(i, &items[i])` for every `i` and returns the results in input
/// order. `threads` follows the [`resolve_threads`] convention (`0` =
/// all cores); with one effective worker the map runs on the calling
/// thread with no pool at all.
///
/// # Panics
/// Propagates a panic of `f` on any item.
pub fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with(threads, items, || (), |(), i, t| f(i, t))
}

/// Runs `f(0), f(1), …, f(tasks - 1)` on `tasks` concurrent scoped
/// threads, returning the results in task order.
///
/// Unlike [`map`], which load-balances a batch over a bounded pool, this
/// spawns **one OS thread per task** — the shape for testing or driving
/// genuinely concurrent *sessions* (e.g. N `Analyst` handles forked from
/// one shared `CompiledTable`, each evolving its own adversary model),
/// where every task must make progress independently rather than queue
/// behind a worker. `tasks` may exceed the core count. With `tasks <= 1`
/// the closure runs on the calling thread.
///
/// # Panics
/// Propagates the first panicking task after all tasks have stopped.
pub fn broadcast<R, F>(tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    if tasks == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..tasks).map(|i| s.spawn(move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// [`map`] with **per-worker state**: each worker calls `init()`
/// exactly once and threads the resulting value mutably through every item
/// it processes.
///
/// Workers repeatedly claim the next chunk of items from a shared cursor
/// until the input is exhausted (work stealing over chunks); the chunk
/// size gives each worker about four claims. Results are returned in input
/// order whatever the claim interleaving was.
///
/// This is the scratch-arena shape: a worker that draws many tiny solver
/// tasks reuses one warm allocation arena across all of them instead of
/// cold-starting per item. The state is worker-local — `f` gets `&mut S`
/// without locks — and is dropped when the worker finishes; it never
/// migrates between workers. Correctness must not depend on *which* items
/// share a state: callers (the engine's component solves) treat `S` as a
/// cache whose contents are cleared, not trusted, at each item, keeping
/// results bit-identical for every thread count and claim interleaving.
///
/// With one effective worker everything runs on the calling thread with a
/// single `init()` — the serial path exercises the exact same reuse.
///
/// # Panics
/// Propagates a panic of `init` or `f`.
pub fn map_with<T, S, R, FS, F>(threads: usize, items: &[T], init: FS, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = resolve_threads(threads);
    let chunk = default_chunk(items.len(), threads);
    let workers = threads.min(items.len().div_ceil(chunk));
    if workers <= 1 {
        let mut state = init();
        return items.iter().enumerate().map(|(i, t)| f(&mut state, i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    let worker = |state: &mut S, out: &mut Vec<(usize, R)>| {
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                out.push((i, f(state, i, item)));
            }
        }
    };

    std::thread::scope(|s| {
        let init = &init;
        let worker = &worker;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut state = init();
                    let mut out = Vec::new();
                    worker(&mut state, &mut out);
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(map(8, &[41], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = map(64, &[1, 2, 3], |_, &x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counters: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
        map(8, &(0..256).collect::<Vec<usize>>(), |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
        let out = map(0, &(0..50).collect::<Vec<usize>>(), |_, &x| x);
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map(4, &(0..32).collect::<Vec<usize>>(), |_, &x| {
                assert!(x != 17, "boom at 17");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn per_worker_state_initialised_once_per_worker() {
        let inits = AtomicU64::new(0);
        let items: Vec<usize> = (0..200).collect();
        for threads in [1, 2, 4] {
            inits.store(0, Ordering::SeqCst);
            let out = map_with(
                threads,
                &items,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    Vec::<usize>::new()
                },
                |scratch, i, &x| {
                    // A reused arena carries garbage from the previous item;
                    // correct callers clear it rather than trust it.
                    scratch.push(x);
                    i + x
                },
            );
            assert_eq!(out, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
            let n = inits.load(Ordering::SeqCst);
            assert!(n >= 1, "at least one worker state");
            assert!(
                n <= resolve_threads(threads) as u64,
                "threads={threads}: {n} states exceeds the worker count"
            );
        }
    }

    #[test]
    fn per_worker_state_reused_across_chunks() {
        // Each output is how many items its worker's state has seen.
        let items: Vec<usize> = (0..57).collect();
        let count = |seen: &mut Vec<usize>, _: usize, &x: &usize| {
            seen.push(x);
            seen.len()
        };
        // One worker: a single state sees every item in order.
        let out = map_with(1, &items, Vec::<usize>::new, count);
        assert_eq!(out, (1..=57).collect::<Vec<_>>());
        // Two workers claim chunks of 7: one of them claims several, and
        // its one state counts past a single chunk.
        let out = map_with(2, &items, Vec::<usize>::new, count);
        let states = out.iter().filter(|&&n| n == 1).count();
        assert!((1..=2).contains(&states), "{states} states for 2 workers");
        assert!(*out.iter().max().unwrap() > default_chunk(items.len(), 2));
    }

    #[test]
    fn map_with_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map_with(4, &(0..32).collect::<Vec<usize>>(), || 0u64, |_, _, &x| {
                assert!(x != 9, "boom at 9");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn broadcast_runs_every_task_concurrently() {
        // More tasks than cores is fine: every task runs on its own thread.
        let out = broadcast(8, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
        assert_eq!(broadcast(1, |i| i + 41), vec![41]);
        assert!(broadcast(0, |i| i).is_empty());
        // All 4 tasks are live at once: each waits for every other to
        // check in, which only terminates if none queues behind another.
        let arrivals = AtomicU64::new(0);
        let out = broadcast(4, |i| {
            arrivals.fetch_add(1, Ordering::SeqCst);
            while arrivals.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn broadcast_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            broadcast(4, |i| {
                assert!(i != 2, "boom at 2");
                i
            })
        });
        assert!(result.is_err());
    }
}
