//! webvuln-exec — a dependency-free parallel-map executor.
//!
//! The paper's crawl is embarrassingly parallel per domain: 157.2M pages
//! over 201 weeks only becomes tractable when fetch and fingerprint work
//! fans out across every core. This crate provides the one execution
//! primitive the pipeline needs — a parallel `map` over a slice — built
//! on plain `std`, exactly like `webvuln-telemetry`.
//!
//! Design:
//!
//! - **Fixed worker pool** sized by [`std::thread::available_parallelism`]
//!   (or an explicit `threads(n)` override). Workers live for the duration
//!   of one map call via [`std::thread::scope`] and are joined before it
//!   returns; no unsafe, no leaked threads. A one-worker map runs the
//!   same loop on the calling thread and spawns no worker.
//! - **One cursor.** Workers claim the next range of items from one
//!   shared cursor — about four ranges per worker — and a worker that
//!   finds the cursor at the end exits. Scheduling only changes *who* runs
//!   a range, never *what* the range produces.
//! - **Deterministic merge.** Finished ranges are taken back by index, so
//!   the returned `Vec` is byte-identical regardless of thread count or
//!   scheduling jitter. This is the property the chaos suite pins:
//!   `run(threads = 1) == run(threads = N)`.
//! - **Failure containment.** A panicking task never hangs or aborts the
//!   pool. Unsupervised maps catch the unwind, stop the cursor, and
//!   re-raise the first panic in index order after every worker has
//!   joined. [`Executor::map_supervised`] goes further: each task runs
//!   under `catch_unwind`, and a panicking task is quarantined as a
//!   structured [`TaskFailure`] instead of failing the run. How many
//!   quarantines a run tolerates is the caller's budget to enforce.
//!
//! All four maps are thin callers of one loop, generic over what runs
//! around each item (propagate a panic, or quarantine it), so the cursor,
//! the joins and the merge exist once. [`Executor::map_in_order`] is the
//! streaming form: one item per claim, and the caller consumes each
//! result in order while later ones still run.
//!
//! Scheduling statistics ([`ExecStats`]: claims, per-worker busy
//! nanoseconds, containment counts) are returned out-of-band;
//! [`ExecStats::record`] publishes them as the `exec.*` metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use webvuln_telemetry::trace::{self, TraceCtx};
use webvuln_telemetry::Registry;

/// Fail-point sites owned by this crate, for the chaos-harness catalog.
///
/// - `exec.task` — probed before every mapped item runs, on both the
///   plain and supervised paths. `Panic` crashes the task (quarantined
///   under supervision, propagated otherwise), `Error` escalates to a
///   panic (the worker loop has no error channel), and `Delay` does
///   nothing.
pub const FAILPOINTS: &[&str] = &["exec.task"];

/// Scheduling statistics for one [`Executor::map_with_stats`] call.
///
/// Everything here describes *how* the work was executed, never *what* it
/// produced: stats vary run to run (busy time depends on OS scheduling)
/// while the mapped results stay byte-identical. [`ExecStats::record`]
/// surfaces them as `exec.*` telemetry counters and histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of worker threads the pool ran with.
    pub threads: usize,
    /// Number of items mapped.
    pub(crate) items: u64,
    /// Number of ranges (tasks) the workers claimed from the cursor.
    pub(crate) tasks: u64,
    /// Per-worker busy time in nanoseconds (time spent inside the mapped
    /// closure, excluding waiting). Length equals `threads`.
    pub worker_busy_ns: Vec<u64>,
    /// Supervised tasks quarantined because they panicked.
    pub(crate) panics: u64,
}

impl ExecStats {
    /// Adds this run's scheduling stats to the `exec.*` metrics of
    /// `registry`: `exec.tasks_total`, the `exec.workers` gauge and the
    /// `exec.worker_busy_ns` per-worker busy histogram. The failure
    /// containment counter (`exec.quarantined_total`) is published only
    /// when nonzero, so fault-free snapshots keep their historical shape.
    pub fn record(&self, registry: &Registry) {
        registry.counter("exec.tasks_total").add(self.tasks);
        registry.gauge("exec.workers").set(self.threads as i64);
        let busy = registry.histogram("exec.worker_busy_ns");
        for &ns in &self.worker_busy_ns {
            busy.record(ns);
        }
        if self.panics > 0 {
            registry.counter("exec.quarantined_total").add(self.panics);
        }
    }
}

/// One quarantined task from an [`Executor::map_supervised`] run.
///
/// Both fields are deterministic for a deterministic workload — the item
/// index and the panic payload text — so quarantine decisions and any
/// records derived from them are byte-identical across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// Panic payload rendered as text.
    pub(crate) payload: String,
}

impl TaskFailure {
    /// One-line deterministic description, used for quarantined fetch
    /// records and reports.
    pub fn describe(&self) -> String {
        format!("panic: {}", self.payload)
    }
}

/// Renders a caught panic payload as text. `panic!` with a literal gives
/// `&'static str`; with a format string gives `String`; anything else is
/// opaque.
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What the workers and the caller of one map share, under one lock.
struct Cursor<O> {
    /// First item no worker has claimed; every item, once the run stops.
    claim: usize,
    /// First item the caller has not taken back.
    next: usize,
    /// Finished ranges the caller has not taken back, by first item.
    done: BTreeMap<usize, std::thread::Result<Vec<O>>>,
    /// Quarantined items, in the order their ranges finished.
    failures: Vec<TaskFailure>,
}

fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// Joins every thread of a scope before the scope ends. The scope itself
/// only waits until each closure has returned, which is before the OS
/// thread has exited and given its allocator arena back; a `map` called
/// right after would then sometimes be handed fresh arenas instead, and
/// the process's peak memory would depend on that race.
fn join_all<'scope, T>(
    handles: impl IntoIterator<Item = std::thread::ScopedJoinHandle<'scope, T>>,
) {
    for handle in handles {
        if let Err(payload) = handle.join() {
            resume_unwind(payload);
        }
    }
}

/// A reusable parallel-map executor.
///
/// Construction is cheap (no threads are spawned until [`Executor::map`]
/// is called), so pipelines can hold one and pass it by reference.
///
/// ```
/// use webvuln_exec::Executor;
///
/// let exec = Executor::new(4);
/// let squares = exec.map(&[1u64, 2, 3, 4, 5], |n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::auto()
    }
}

impl Executor {
    /// An executor with an explicit thread count. `0` means "size by
    /// [`std::thread::available_parallelism`]", same as [`Executor::auto`].
    pub fn new(threads: usize) -> Self {
        Executor { threads }
    }

    /// An executor sized by the host's available parallelism.
    pub fn auto() -> Self {
        Executor::new(0)
    }

    /// The number of worker threads a `map` call will use: the configured
    /// count, or the host's available parallelism when configured as `0`.
    pub fn threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Maps `f` over `items` in parallel, returning results in input
    /// order. Byte-identical to a sequential `items.iter().map(f)` run
    /// regardless of thread count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_with_stats(items, f).0
    }

    /// [`Executor::map`] plus the scheduling statistics for the call.
    ///
    /// A panicking task can never hang the pool: the unwind is caught at
    /// the range boundary, the cursor stops, every worker joins, and the
    /// first caught panic in index order is re-raised on the calling
    /// thread. Use [`Executor::map_supervised`] to quarantine failures
    /// instead of propagating them.
    pub fn map_with_stats<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, ExecStats)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        let push = |value| {
            out.push(value);
            Ok::<(), Infallible>(())
        };
        let Ok(stats) = self.propagate(items, false, push, f);
        (out, stats)
    }

    /// Maps `f` over `items` under supervision: each task runs inside
    /// `catch_unwind`, and a panicking task yields `None` in the output
    /// plus a structured [`TaskFailure`] instead of aborting the run.
    ///
    /// Output positions and failures are index-ordered and — for a
    /// deterministic workload — byte-identical across thread counts,
    /// exactly like [`Executor::map`].
    pub fn map_supervised<T, R, F>(
        &self,
        items: &[T],
        f: F,
    ) -> (Vec<Option<R>>, ExecStats, Vec<TaskFailure>)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        let push = |value| {
            out.push(value);
            Ok::<(), Infallible>(())
        };
        // The quarantine policy: catch the unwind; a panicking item leaves
        // `None` plus a `TaskFailure`.
        let quarantine = |item: &T, index, worker, ctx: Option<&_>, failures: &mut Vec<_>| {
            let _scope = trace::task_scope(ctx, index as u64, worker);
            // AssertUnwindSafe: on panic the task's partial result is
            // discarded and the item is quarantined; mapped closures
            // observe only shared state that is itself unwind-tolerant
            // (atomic counters, breakers keyed per domain).
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let _ = webvuln_failpoint::hit("exec.task", "");
                f(item)
            }));
            let payload = match caught {
                Ok(value) => return Some(value),
                Err(payload) => payload_text(payload.as_ref()),
            };
            failures.push(TaskFailure { index, payload });
            None
        };
        let Ok((stats, failures)) = self.run(items, false, push, quarantine);
        (out, stats, failures)
    }

    /// Maps `f` over `items` on the pool and hands each result to `sink`
    /// on the calling thread, in input order, as soon as it and every
    /// earlier one are done: the caller's in-order work overlaps the
    /// pool's, and no more than `threads` results wait at once.
    /// Workers claim one item at a time, in order; with one worker, the
    /// calling thread runs the items between results. The first error
    /// `sink` returns stops the pool — items in flight finish, no new one
    /// starts — and is returned; a panic in `f` is re-raised here once
    /// every worker has joined, as [`Executor::map`] re-raises it.
    pub fn map_in_order<T: Sync, R: Send, E>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
        sink: impl FnMut(R) -> Result<(), E>,
    ) -> Result<ExecStats, E> {
        self.propagate(items, true, sink, f)
    }

    /// The propagate policy: the mapped closure and nothing else — a panic
    /// escapes to the loop, which stops the pool and re-raises it.
    fn propagate<T: Sync, R: Send, E>(
        &self,
        items: &[T],
        in_order: bool,
        sink: impl FnMut(R) -> Result<(), E>,
        f: impl Fn(&T) -> R + Sync,
    ) -> Result<ExecStats, E> {
        let propagate = |item: &T, index: usize, worker, ctx: Option<&_>, _: &mut Vec<_>| {
            let _scope = trace::task_scope(ctx, index as u64, worker);
            let _ = webvuln_failpoint::hit("exec.task", "");
            f(item)
        };
        Ok(self.run(items, in_order, sink, propagate)?.0)
    }

    /// The one worker loop behind every map, generic over the per-item
    /// policy (so each map compiles its own copy and pays for no other):
    /// `run_item(item, index, worker, trace context, failures)` runs one
    /// item; a panic that escapes it stops the pool and is re-raised on
    /// the caller, a failure it pushes is returned in index order.
    ///
    /// Workers claim the next range from one cursor — `len / (4 ×
    /// threads)` items, rounded up, or one item `in_order` — never past
    /// `threads` items beyond the first result the caller has not
    /// taken back when `in_order`. The calling thread takes finished
    /// ranges back in index order and hands each result to `sink` (the
    /// first error `sink` returns stops the pool and is returned), and is
    /// the worker itself when there is one.
    fn run<T, O, E>(
        &self,
        items: &[T],
        in_order: bool,
        mut sink: impl FnMut(O) -> Result<(), E>,
        run_item: impl Fn(&T, usize, u64, Option<&TraceCtx>, &mut Vec<TaskFailure>) -> O + Sync,
    ) -> Result<(ExecStats, Vec<TaskFailure>), E>
    where
        T: Sync,
        O: Send,
    {
        let (threads, len) = (self.threads(), items.len());
        let (step, window) = match in_order {
            true => (1, threads),
            false => (len.div_ceil(4 * threads).max(1), len),
        };
        // Captured once on the calling thread; each item (re-)installs it
        // as its task scope so events land in the caller's trace whichever
        // worker runs the item.
        let ctx = trace::capture();
        let ctx = ctx.as_ref();
        let state = Mutex::new(Cursor {
            claim: 0,
            next: 0,
            done: BTreeMap::new(),
            failures: Vec::new(),
        });
        let signal = Condvar::new();
        let busy_ns: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        // Beside a pool the caller only takes results back. An in-order
        // caller busy with an item holds every worker past the window (a
        // store-less study at 8 threads on 2 cores took 2 % more CPU), and
        // a batch caller running ranges raised `study_fresh` peak RSS from
        // 15.5 to 17.5 MB at 2 threads.
        let caller_runs = threads == 1;

        let work = |worker: usize,
                    mut sink: Option<&mut dyn FnMut(O) -> Result<(), E>>|
         -> Result<(), E> {
            let mut s = lock_ignore_poison(&state);
            loop {
                if let Some(sink) = &mut sink {
                    let lo = s.next;
                    if lo == len {
                        return Ok(());
                    }
                    if let Some(out) = s.done.remove(&lo) {
                        s.next = len.min(lo + step);
                        drop(s);
                        signal.notify_all();
                        for value in out.unwrap_or_else(|payload| resume_unwind(payload)) {
                            sink(value)?;
                        }
                        s = lock_ignore_poison(&state);
                        continue;
                    }
                }
                let lo = s.claim;
                if lo < len.min(s.next + window) && (caller_runs || sink.is_none()) {
                    let hi = len.min(lo + step);
                    s.claim = hi;
                    drop(s);
                    let started = Instant::now();
                    let mut failures = Vec::new();
                    // AssertUnwindSafe: the partial output of a range that
                    // panics is discarded, and the caller re-raises the
                    // panic — no torn state is ever observed.
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        let run = |index| {
                            run_item(&items[index], index, worker as u64, ctx, &mut failures)
                        };
                        (lo..hi).map(run).collect::<Vec<O>>()
                    }));
                    let busy = started.elapsed().as_nanos() as u64;
                    busy_ns[worker].fetch_add(busy, Ordering::Relaxed);
                    s = lock_ignore_poison(&state);
                    if out.is_err() {
                        s.claim = len;
                    }
                    s.failures.append(&mut failures);
                    s.done.insert(lo, out);
                    signal.notify_all();
                } else if sink.is_none() && lo == len {
                    return Ok(());
                } else {
                    s = signal.wait(s).unwrap_or_else(|p| p.into_inner());
                }
            }
        };

        let taken = std::thread::scope(|scope| {
            let work = &work;
            let first = usize::from(caller_runs);
            let workers: Vec<_> = (first..threads.min(len.div_ceil(step)))
                .map(|worker| {
                    scope.spawn(move || {
                        let _ = work(worker, None);
                    })
                })
                .collect();
            // A panic re-raised by the take-back, or one in `sink`, is
            // caught until the pool has stopped and joined.
            let taken = catch_unwind(AssertUnwindSafe(|| work(0, Some(&mut sink))));
            lock_ignore_poison(&state).claim = len;
            signal.notify_all();
            join_all(workers);
            taken
        });
        taken.unwrap_or_else(|payload| {
            // A crash escapes the run here: dump the flight recorder so
            // the panic comes with its last-N-events context.
            if let Some(ctx) = ctx {
                eprintln!("{}", ctx.flight_recorder_dump());
            }
            resume_unwind(payload)
        })?;

        let mut failures = state
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .failures;
        failures.sort_by_key(|failure| failure.index);
        let stats = ExecStats {
            threads,
            items: len as u64,
            tasks: len.div_ceil(step) as u64,
            worker_busy_ns: busy_ns.into_iter().map(AtomicU64::into_inner).collect(),
            panics: failures.len() as u64,
        };
        Ok((stats, failures))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn maps_in_input_order() {
        let exec = Executor::new(4);
        let items: Vec<u64> = (0..1_000).collect();
        let out = exec.map(&items, |n| n * 2 + 1);
        let expected: Vec<u64> = items.iter().map(|n| n * 2 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn identical_across_thread_counts() {
        let items: Vec<String> = (0..537).map(|i| format!("domain-{i:04}.example")).collect();
        let reference = Executor::new(1).map(&items, |d| format!("{d}/fetched"));
        for threads in [2, 3, 4, 8, 16] {
            let out = Executor::new(threads).map(&items, |d| format!("{d}/fetched"));
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let exec = Executor::new(8);
        let (out, stats) = exec.map_with_stats(&[] as &[u64], |n| *n);
        assert!(out.is_empty());
        assert_eq!(stats.items, 0);
        assert_eq!(stats.tasks, 0);
        assert_eq!(stats.worker_busy_ns.len(), 8);
    }

    #[test]
    fn fewer_items_than_workers() {
        let exec = Executor::new(16);
        let out = exec.map(&[10u64, 20, 30], |n| n + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn single_item() {
        let (out, stats) = Executor::new(8).map_with_stats(&[7u64], |n| n * n);
        assert_eq!(out, vec![49]);
        assert_eq!(stats.items, 1);
        assert_eq!(stats.tasks, 1);
    }

    #[test]
    fn stats_account_for_every_item_and_task() {
        let items: Vec<u64> = (0..250).collect();
        let (out, stats) = Executor::new(4).map_with_stats(&items, |n| *n);
        assert_eq!(out.len(), 250);
        assert_eq!(stats.items, 250);
        // Claims of ceil(250 / 16) = 16 items: 16 of them.
        assert_eq!(stats.tasks, 16);
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.worker_busy_ns.len(), 4);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let exec = Executor::auto();
        assert!(exec.threads() >= 1);
        let out = exec.map(&[1u64, 2, 3], |n| n * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn results_are_not_required_to_be_clone_or_default() {
        // R = Box<str>: no Default, merge must move values, not fill.
        let items: Vec<u64> = (0..97).collect();
        let out = Executor::new(3).map(&items, |n| format!("v{n}").into_boxed_str());
        assert_eq!(out.len(), 97);
        assert_eq!(&*out[96], "v96");
    }

    #[test]
    fn uneven_work_is_rebalanced() {
        // A pathological distribution (one item 100x slower) still
        // completes and still merges in order.
        let items: Vec<u64> = (0..64).collect();
        let out = Executor::new(4).map(&items, |n| {
            if *n == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            n + 100
        });
        let expected: Vec<u64> = (100..164).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn busy_time_is_recorded() {
        let items: Vec<u64> = (0..8).collect();
        let (_, stats) = Executor::new(2).map_with_stats(&items, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let total: u64 = stats.worker_busy_ns.iter().sum();
        assert!(
            total >= 8_000_000,
            "8 one-millisecond tasks must record >= 8ms busy, got {total}ns"
        );
    }

    #[test]
    fn unsupervised_panic_propagates_instead_of_hanging() {
        // Regression: a panicking task used to leave the pool waiting on
        // it forever. Now the pool drains and the panic is re-raised on
        // the caller.
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 2, 4, 8] {
            let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Executor::new(threads).map(&items, |n| {
                    if *n == 57 {
                        panic!("task 57 exploded");
                    }
                    *n
                })
            }));
            let payload = unwound.expect_err("panic must propagate");
            assert_eq!(payload_text(payload.as_ref()), "task 57 exploded");
        }
    }

    #[test]
    fn map_in_order_hands_results_over_in_order_with_a_bounded_window() {
        let items: Vec<u64> = (0..300).collect();
        for threads in [1, 2, 3, 8] {
            let claimed = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let stats = Executor::new(threads)
                .map_in_order(
                    &items,
                    |n| {
                        claimed.fetch_add(1, Ordering::SeqCst);
                        n * 3
                    },
                    |out| {
                        // Workers may run ahead of the sink by the window
                        // and the items in flight, never further.
                        let ahead = claimed.load(Ordering::SeqCst) - seen.len();
                        assert!(ahead <= 3 * threads, "threads={threads}: {ahead} ahead");
                        seen.push(out);
                        Ok::<(), ()>(())
                    },
                )
                .expect("sink never fails");
            let expected: Vec<u64> = items.iter().map(|n| n * 3).collect();
            assert_eq!(seen, expected, "threads={threads}");
            assert_eq!((stats.items, stats.worker_busy_ns.len()), (300, threads));
        }
    }

    #[test]
    fn map_in_order_stops_at_the_first_sink_error_and_reraises_panics() {
        let items: Vec<u64> = (0..500).collect();
        let ran = AtomicUsize::new(0);
        let mut taken = 0;
        let stopped = Executor::new(4).map_in_order(
            &items,
            |n| {
                ran.fetch_add(1, Ordering::SeqCst);
                *n
            },
            |n| {
                taken += 1;
                if n == 20 {
                    return Err(format!("sink refused {n}"));
                }
                Ok(())
            },
        );
        assert_eq!(stopped.map(|_| ()), Err("sink refused 20".to_string()));
        assert_eq!(taken, 21);
        assert!(ran.load(Ordering::SeqCst) < 500, "the pool stopped early");

        for threads in [1, 2, 8] {
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let explode = |n: &u64| {
                    assert!(*n != 57 && *n != 90, "task {n} exploded");
                    *n
                };
                Executor::new(threads).map_in_order(&items, explode, |_| Ok::<(), ()>(()))
            }));
            let payload = unwound.expect_err("panic must propagate");
            assert_eq!(payload_text(payload.as_ref()), "task 57 exploded");
        }
    }

    #[test]
    fn supervised_quarantines_panics_deterministically() {
        let items: Vec<u64> = (0..300).collect();
        let run = |threads: usize| {
            Executor::new(threads).map_supervised(&items, |n| {
                if n % 71 == 3 {
                    panic!("bad item {n}");
                }
                n * 10
            })
        };
        let (ref_out, ref_stats, ref_failures) = run(1);
        assert_eq!(ref_out.len(), 300);
        assert_eq!(ref_stats.panics, ref_failures.len() as u64);
        assert_eq!(
            ref_failures.iter().map(|t| t.index).collect::<Vec<_>>(),
            vec![3, 74, 145, 216, 287]
        );
        assert!(ref_failures[0].describe().contains("bad item 3"));
        for threads in [2, 4, 8] {
            let (out, stats, failures) = run(threads);
            assert_eq!(out, ref_out, "threads={threads}");
            assert_eq!(failures, ref_failures, "threads={threads}");
            assert_eq!(stats.panics, 5);
        }
    }

    #[test]
    fn supervised_fault_free_run_has_no_failures() {
        let items: Vec<u64> = (0..128).collect();
        let (out, stats, failures) = Executor::new(4).map_supervised(&items, |n| n + 1);
        assert_eq!(failures, Vec::new());
        assert_eq!(stats.panics, 0);
        let expected: Vec<Option<u64>> = (1..=128).map(Some).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn trace_context_propagates_and_failures_carry_tails() {
        let items: Vec<u64> = (0..120).collect();
        for threads in [1, 2, 8] {
            let tracer = trace::Tracer::new();
            let (_, _, failures) = {
                let _g = tracer.install();
                let _p = trace::phase_scope("crawl");
                Executor::new(threads).map_supervised(&items, |n| {
                    trace::emit("item.seen", "", "", 100, trace::Sink::Export);
                    if n % 37 == 1 {
                        panic!("bad item {n}");
                    }
                    *n
                })
            };
            let indices: Vec<usize> = failures.iter().map(|t| t.index).collect();
            assert_eq!(indices, vec![1, 38, 75, 112], "threads={threads}");
            // Every item, quarantined or not, emitted one event in the
            // submitter's phase with its own index as the task, whichever
            // worker ran it.
            let events = tracer.finish().events;
            let seen: Vec<_> = events.iter().map(|e| (e.phase, e.task, e.name)).collect();
            let expected: Vec<_> = items.iter().map(|&n| ("crawl", n, "item.seen")).collect();
            assert_eq!(seen, expected, "threads={threads}");
        }
    }

    /// Every map against sequential oracles, over random item counts and
    /// failing items, at every thread count: scheduling decides who runs
    /// an item and when, never what the caller gets back.
    #[test]
    fn every_map_agrees_with_a_sequential_oracle() {
        struct Running<'a>(&'a AtomicUsize);
        impl Drop for Running<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }

        webvuln_failpoint::check::run("exec maps agree with sequential oracles", 96, |g| {
            // An item is its index and a byte that decides its fate.
            let items: Vec<(usize, u8)> = g.bytes(0..=300).into_iter().enumerate().collect();
            let len = items.len();
            let panic_every = *g.pick(&[0u8, 5, 31, 251]);
            // The in-order sink refuses this result (none, when `len`).
            let refused = g.range(0..=len as u64) as usize;
            let panics = |b: u8| panic_every != 0 && b % panic_every == 1;
            let value = |i: usize, b: u8| i as u64 * 257 + u64::from(b);
            let task = |&(i, b): &(usize, u8)| {
                if panics(b) {
                    panic!("item {i} exploded");
                }
                value(i, b)
            };

            // The oracles: `map` and `map_in_order` without failing items,
            // `map_supervised` with them.
            let plain: Vec<u64> = items.iter().map(|&(i, b)| value(i, b)).collect();
            let exploding: Vec<String> = items
                .iter()
                .filter(|&&(_, b)| panics(b))
                .map(|(i, _)| format!("item {i} exploded"))
                .collect();
            let supervised: Vec<Option<u64>> = items
                .iter()
                .map(|&(i, b)| (!panics(b)).then(|| value(i, b)))
                .collect();
            let quarantined: Vec<(usize, String)> = items
                .iter()
                .filter(|&&(_, b)| panics(b))
                .map(|&(i, _)| (i, format!("item {i} exploded")))
                .collect();

            for threads in [1, 2, 3, 8] {
                let exec = Executor::new(threads);
                // `map`, or `map_in_order` with a sink that keeps every
                // result.
                let collect = |in_order: bool, f: &(dyn Fn(&(usize, u8)) -> u64 + Sync)| {
                    if !in_order {
                        return exec.map(&items, f);
                    }
                    let mut out = Vec::new();
                    let sunk = exec.map_in_order(&items, f, |v| {
                        out.push(v);
                        Ok::<(), ()>(())
                    });
                    sunk.expect("the sink keeps every result");
                    out
                };

                for in_order in [false, true] {
                    let form = format!("threads={threads} in_order={in_order}");
                    // Liveness: C claims on N workers put min(C, N) items
                    // in flight at once — no worker idles while a claim is
                    // left. A batch claim is ceil(len / 4N) items, an
                    // in-order one a single item. Items hold their slot
                    // until that many overlap (or a deadline passes, so a
                    // broken cursor fails instead of hanging).
                    let claims = match in_order {
                        true => len,
                        false => len.div_ceil(len.div_ceil(4 * threads).max(1)),
                    };
                    let overlap = threads.min(claims);
                    let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
                    let out = collect(in_order, &|&(i, b)| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        let give_up = Instant::now() + Duration::from_secs(2);
                        while peak.load(Ordering::SeqCst) < overlap && Instant::now() < give_up {
                            std::thread::yield_now();
                        }
                        running.fetch_sub(1, Ordering::SeqCst);
                        value(i, b)
                    });
                    assert_eq!(out, plain, "{form}");
                    assert_eq!(peak.into_inner(), overlap, "{form}: overlap");

                    // Propagate: the sequential map, or one of the panics —
                    // and nothing still running once the map has unwound.
                    let running = AtomicUsize::new(0);
                    let unwound = catch_unwind(AssertUnwindSafe(|| {
                        collect(in_order, &|item| {
                            running.fetch_add(1, Ordering::SeqCst);
                            let _running = Running(&running);
                            task(item)
                        })
                    }));
                    assert_eq!(running.into_inner(), 0, "{form}: joined");
                    match unwound {
                        Ok(out) => {
                            assert!(exploding.is_empty(), "{form}: panic swallowed");
                            assert_eq!(out, plain, "{form}");
                        }
                        Err(payload) => {
                            let text = payload_text(payload.as_ref());
                            assert!(exploding.contains(&text), "{form}: {text}");
                        }
                    }
                }

                // A sink error stops the pool: it comes back to the caller,
                // the sink sees nothing after it, and no item starts past
                // the window beyond the refused result.
                let ran = AtomicUsize::new(0);
                let mut seen = Vec::new();
                let stopped = exec.map_in_order(
                    &items,
                    |&(i, b)| {
                        ran.fetch_add(1, Ordering::SeqCst);
                        value(i, b)
                    },
                    |v| {
                        if seen.len() == refused {
                            return Err(refused);
                        }
                        seen.push(v);
                        Ok(())
                    },
                );
                let expected = if refused < len { Err(refused) } else { Ok(()) };
                assert_eq!(stopped.map(|_| ()), expected, "threads={threads}");
                assert_eq!(seen, plain[..refused], "threads={threads}");
                let bound = len.min(refused + 1 + 2 * threads);
                assert!(ran.into_inner() <= bound, "threads={threads}: pool ran on");

                // Quarantine: outputs, failures and counts, exactly.
                let (out, stats, failures) = exec.map_supervised(&items, task);
                assert_eq!(out, supervised, "threads={threads}");
                let failures: Vec<_> = failures.into_iter().map(|t| (t.index, t.payload)).collect();
                assert_eq!(failures, quarantined, "threads={threads}");
                assert_eq!(stats.panics, exploding.len() as u64, "threads={threads}");
            }
        });
    }

    /// Two single-item claims on two workers must run concurrently: the
    /// serve crate runs its per-worker connection loops as the items of
    /// one map, so two that serialized on one thread would leave every
    /// other connection waiting.
    #[test]
    fn two_workers_overlap_two_long_tasks() {
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let slots: Vec<usize> = vec![0, 1];
        Executor::new(2).map(&slots, |_| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            // Hold the slot until the other task has started (or a
            // deadline passes, so a broken cursor fails fast instead of
            // deadlocking the test).
            let deadline = Instant::now() + std::time::Duration::from_millis(500);
            while peak.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            running.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.load(Ordering::SeqCst), 2, "no overlap");
    }
}
