//! The one parallel executor behind [`crate::run_sweep`], the
//! supervised sweep's first pass, [`crate::run_validation_sweep`] and
//! the skewed cache model's rank-weight fill ([`crate::cache`]).
//!
//! [`fan_out`] runs one closure per item on a scoped thread pool: workers
//! claim items from a shared counter (so one slow item never blocks the
//! rest of a stripe), write each result into that item's write-once slot,
//! and the slots are read back in input order. Output order therefore
//! equals input order for every thread count and schedule, and a pure
//! per-item function gives bit-identical results sequentially and in
//! parallel.
//!
//! Thread use is bounded. A fan-out called while its thread runs another
//! fan-out's items — a sweep cell's `prepare`, say — runs inline, so
//! pools never nest. A worker the system refuses to spawn leaves its
//! items to the caller's thread instead of panicking.
//!
//! Fault containment is the caller's, through [`contain`]: a sweep cell
//! wraps its body so that one panicking item becomes that item's error
//! instead of unwinding the pool.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Whether this thread is running a [`fan_out`]'s items.
    static RUNNING_ITEMS: Cell<bool> = const { Cell::new(false) };
}

/// Marks this thread as running fan-out items until dropped, then
/// restores the mark it found (an inline fan-out runs on its caller's
/// thread, which may itself be a worker).
struct ItemsMark(bool);

impl ItemsMark {
    fn set() -> Self {
        ItemsMark(RUNNING_ITEMS.with(|m| m.replace(true)))
    }
}

impl Drop for ItemsMark {
    fn drop(&mut self) {
        RUNNING_ITEMS.with(|m| m.set(self.0));
    }
}

/// Run `run(i, state)` for every `i in 0..n` and return the results in
/// input order.
///
/// `threads == 0` uses [`std::thread::available_parallelism`]; when fewer
/// than two workers would run, every item runs inline on the caller's
/// thread. So does every item of a fan-out called from inside another
/// fan-out's items (on a worker or inline), whatever `threads` asks. A
/// worker that fails to spawn leaves its items to the caller's thread.
/// Each worker builds its own `state` with `init` on its first
/// claim and reuses it for every later item it claims, so `init` runs at
/// most once per worker. A state must stay usable after an item that
/// panicked mid-use (a [`clara_nicsim::SimScratch`] resets its arenas at
/// the start of every run).
///
/// `run` should [`contain`] its own panics. One that escapes is re-raised
/// on the caller's thread once every worker has stopped, as
/// [`std::thread::scope`] does — it never leaves a slot silently empty.
pub(crate) fn fan_out<S, T: Send + Sync>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T> {
    let workers = match threads {
        _ if RUNNING_ITEMS.with(Cell::get) => 1,
        0 => std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1),
        t => t,
    }
    .min(n);
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let work = || {
        let _mark = ItemsMark::set();
        let mut state = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let state = state.get_or_insert_with(&init);
            // A slot is claimed by exactly one worker; set cannot fail.
            let _ = slots[i].set(run(i, state));
        }
    };
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            let spawned = (0..workers)
                .filter(|_| std::thread::Builder::new().spawn_scoped(s, work).is_ok())
                .count();
            if spawned < workers {
                work();
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every claimed item fills its slot")
        })
        .collect()
}

/// Run `f`, turning a panic into `Err` with the panic's message.
///
/// `AssertUnwindSafe` is sound for every caller in this crate: on a panic
/// the closure's own values are discarded, a panicking
/// [`OnceLock::get_or_init`] leaves its lock empty rather than torn, and
/// a reused simulator scratch is reset before its next run.
pub(crate) fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_text(payload.as_ref()))
}

/// The message of a caught panic: `&str` and `String` payloads verbatim,
/// anything else a fixed placeholder.
pub fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_for_every_thread_count() {
        for threads in [1, 2, 8] {
            let out = fan_out(50, threads, || (), |i, _| i * i);
            assert_eq!(
                out,
                (0..50).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn state_is_built_at_most_once_per_worker() {
        for threads in [1, 2, 8] {
            let built = AtomicUsize::new(0);
            // Each state counts the items its worker has run.
            let out = fan_out(
                40,
                threads,
                || {
                    built.fetch_add(1, Ordering::SeqCst);
                    0
                },
                |_, ran: &mut usize| {
                    *ran += 1;
                    *ran
                },
            );
            let built = built.into_inner();
            assert!(
                (1..=threads).contains(&built),
                "threads={threads} built={built}"
            );
            // Only each state's first item sees a fresh count.
            assert_eq!(out.iter().filter(|&&ran| ran == 1).count(), built);
        }
    }

    #[test]
    fn a_fan_out_on_a_worker_runs_on_that_workers_thread() {
        for threads in [1, 2, 3] {
            let out = fan_out(6, threads, || (), |_, _| {
                let outer = std::thread::current().id();
                let inner = fan_out(5, 4, || (), |_, _| std::thread::current().id());
                (outer, inner)
            });
            for (outer, inner) in out {
                assert!(inner.iter().all(|&id| id == outer), "threads={threads}");
            }
        }
        // The caller's thread is a worker only while it runs items.
        let caller = std::thread::current().id();
        let spread = fan_out(8, 2, || (), |_, _| std::thread::current().id());
        assert!(spread.iter().all(|&id| id != caller), "spawned workers run every item");
    }

    #[test]
    fn a_panicking_item_becomes_its_own_error() {
        for threads in [1, 2, 8] {
            let out = fan_out(
                16,
                threads,
                || (),
                |i, _| {
                    contain(|| {
                        if i == 5 {
                            panic!("item {i} failed");
                        }
                        i
                    })
                },
            );
            for (i, r) in out.into_iter().enumerate() {
                let want = if i == 5 {
                    Err("item 5 failed".to_string())
                } else {
                    Ok(i)
                };
                assert_eq!(r, want, "threads={threads}");
            }
        }
    }

    #[test]
    fn panic_text_keeps_string_payloads() {
        assert_eq!(
            contain(|| panic!("static")),
            Err::<(), _>("static".to_string())
        );
        let owned = String::from("owned");
        assert_eq!(
            contain(|| panic!("{owned}")),
            Err::<(), _>("owned".to_string())
        );
        assert_eq!(
            contain(|| std::panic::panic_any(7u32)),
            Err::<(), _>("non-string panic payload".to_string())
        );
    }
}
