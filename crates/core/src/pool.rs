//! The per-server executor: a fixed set of threads draining one FIFO queue.
//!
//! Each simulated server runs one pool; leaves are tasks on it (paper §5.3:
//! "there is a thread pool that serves leafs with work to do"). A worker's
//! aggregation node splits each partition into grain-sized pieces *before*
//! it submits them (see [`crate::cluster`]), so the pool needs no scheduling
//! of its own: every thread takes the oldest queued task, and one large
//! micropartition spreads across every thread because its pieces are
//! already separate tasks. What the pool guarantees:
//!
//! * **FIFO order**: tasks leave the queue in the order they were
//!   submitted, from any thread; a one-thread pool runs them in that order.
//!   A task may submit more tasks — they queue behind the ones already
//!   there, and the other threads take them while it runs.
//! * **Panic isolation**: a panicking task unwinds into the pool thread's
//!   `catch_unwind`, which counts it ([`ThreadPool::tasks_panicked`]) and
//!   takes the next task, so a pool never shrinks. Callers that need the
//!   panic's message catch it inside their task; this is the backstop.
//! * **Drain on drop**: dropping the pool closes the queue and joins the
//!   threads, which exit only once every queued task has run.
//!
//! Completion order is *not* deterministic — it depends on how long each
//! task runs. Result determinism is the execution tree's job: it folds leaf
//! partials in range order, so any interleaving produces identical bytes.

use crossbeam::channel::{Receiver, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A thread pool with a fixed number of threads and one FIFO queue.
pub struct ThreadPool {
    /// The queue's only sender; `Drop` takes it to close the queue.
    queue: Option<Sender<Task>>,
    /// Tasks whose panic was caught by the executor (diagnostics).
    panicked: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `threads` worker threads named after `label`.
    #[expect(
        clippy::expect_used,
        reason = "startup-time OS resource exhaustion has no caller to report to"
    )]
    pub(crate) fn new(threads: usize, label: &str) -> Self {
        let (queue, tasks) = crossbeam::channel::unbounded::<Task>();
        let panicked = Arc::new(AtomicUsize::new(0));
        let threads = (0..threads.max(1))
            .map(|i| {
                let (tasks, panicked) = (tasks.clone(), panicked.clone());
                std::thread::Builder::new()
                    .name(format!("{label}-{i}"))
                    .spawn(move || run_tasks(&tasks, &panicked))
                    // Thread spawning fails only on OS resource exhaustion
                    // at pool construction; there is no query to fail yet.
                    .expect("spawn pool thread")
            })
            .collect();
        ThreadPool {
            queue: Some(queue),
            panicked,
            threads,
        }
    }

    /// Enqueue a task behind every task already queued.
    pub(crate) fn submit(&self, task: impl FnOnce() + Send + 'static) {
        // The send fails only once every pool thread has exited, which
        // happens only after the queue closed in `drop`; the unsent task is
        // then dropped, and its owner sees its result channel close.
        if let Some(queue) = &self.queue {
            let _ = queue.send(Box::new(task));
        }
    }

    /// Tasks whose panic the executor caught so far. Pool threads survive
    /// panicking tasks; this counter is how tests and diagnostics observe
    /// that isolation fired.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    pub fn tasks_panicked(&self) -> usize {
        self.panicked.load(Ordering::SeqCst)
    }
}

/// A pool thread's life: run queued tasks until the queue is closed and
/// empty.
fn run_tasks(tasks: &Receiver<Task>, panicked: &AtomicUsize) {
    while let Ok(task) = tasks.recv() {
        // Panic isolation: a poisoned task must not take down its pool
        // thread (which would shrink the pool for the process lifetime).
        // The task's owner observes the failure through its own channel
        // going dead.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
            panicked.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the queue lets each thread's `recv` fail once the queue
        // is empty, so every queued task still runs.
        self.queue = None;
        // The pool can be dropped *from one of its own threads*: a leaf
        // task may hold the last `Arc<Worker>` when the query's caller has
        // already moved on. Joining ourselves would deadlock (EDEADLK) —
        // detach the current thread instead; it exits on its own once its
        // task returns and the queue is drained.
        let me = std::thread::current().id();
        for t in self.threads.drain(..) {
            if t.thread().id() == me {
                continue;
            }
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadPool({} threads)", self.threads.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn all_tasks_run() {
        let pool = ThreadPool::new(4, "test");
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = crossbeam::channel::unbounded();
        for _ in 0..100 {
            let c = counter.clone();
            let tx = tx.clone();
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..100 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_run_in_parallel() {
        let pool = ThreadPool::new(4, "par");
        let (tx, rx) = crossbeam::channel::unbounded();
        let barrier = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..4 {
            let b = barrier.clone();
            let tx = tx.clone();
            pool.submit(move || {
                // Deadlocks unless 4 tasks run concurrently.
                b.wait();
                tx.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok());
        }
    }

    #[test]
    fn one_thread_runs_submissions_in_order() {
        let pool = ThreadPool::new(1, "fifo");
        let (tx, rx) = crossbeam::channel::unbounded();
        for i in 0..64 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        drop(tx);
        drop(pool);
        let order: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn drop_drains_pending_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2, "drain");
            for _ in 0..50 {
                let c = counter.clone();
                pool.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn dropping_the_last_handle_inside_a_task_drains_and_exits() {
        // The task that drops the pool runs on a pool thread, so `drop`
        // must detach that thread rather than join it. Every task queued
        // behind it still runs, and the detached thread exits once the
        // queue is drained — its `JoinHandle` is gone, so it reports its
        // exit by dropping a sender when its thread-locals are destroyed.
        thread_local! {
            static EXIT: std::cell::RefCell<Option<crossbeam::channel::Sender<()>>> =
                const { std::cell::RefCell::new(None) };
        }
        for threads in [1usize, 3] {
            let pool = Arc::new(ThreadPool::new(threads, "selfdrop"));
            let (gate_tx, gate_rx) = crossbeam::channel::bounded::<()>(1);
            let (exit_tx, exit_rx) = crossbeam::channel::unbounded::<()>();
            let (dropped_tx, dropped_rx) = crossbeam::channel::unbounded();
            let ran = Arc::new(AtomicUsize::new(0));
            let handle = pool.clone();
            pool.submit(move || {
                EXIT.with(|e| *e.borrow_mut() = Some(exit_tx));
                // Hold the task until the queue behind it is filled and the
                // test's own handle is gone, then drop the last one here.
                gate_rx.recv().unwrap();
                drop(handle);
                dropped_tx.send(()).unwrap();
            });
            for _ in 0..32 {
                let ran = ran.clone();
                pool.submit(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            drop(pool);
            gate_tx.send(()).unwrap();
            assert_eq!(
                dropped_rx.recv_timeout(Duration::from_secs(10)),
                Ok(()),
                "threads={threads}: drop from a pool thread returned"
            );
            assert_eq!(
                exit_rx.recv_timeout(Duration::from_secs(10)),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected),
                "threads={threads}: the dropping thread exited"
            );
            assert_eq!(ran.load(Ordering::SeqCst), 32, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0, "one");
        assert_eq!(pool.threads.len(), 1);
    }

    #[test]
    fn recursive_submission_from_pool_threads_completes() {
        // A task that splits itself in half down to unit pieces, submitting
        // one half from the pool thread it runs on. All pieces must run, on
        // any number of threads.
        for threads in [1usize, 4] {
            let pool = Arc::new(ThreadPool::new(threads, "rec"));
            let done = Arc::new(AtomicUsize::new(0));
            let (tx, rx) = crossbeam::channel::unbounded();
            fn split(
                pool: &Arc<ThreadPool>,
                n: usize,
                done: &Arc<AtomicUsize>,
                tx: &crossbeam::channel::Sender<usize>,
            ) {
                if n <= 1 {
                    done.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(1);
                    return;
                }
                let half = n / 2;
                let (p2, d2, t2) = (pool.clone(), done.clone(), tx.clone());
                pool.submit(move || split(&p2, n - half, &d2, &t2));
                split(pool, half, done, tx);
            }
            let (p, d, t) = (pool.clone(), done.clone(), tx.clone());
            pool.submit(move || split(&p, 64, &d, &t));
            let mut got = 0usize;
            while got < 64 {
                got += rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("recursive pieces complete");
            }
            assert_eq!(done.load(Ordering::Relaxed), 64, "threads={threads}");
        }
    }

    #[test]
    fn panicking_tasks_do_not_kill_pool_threads() {
        // Every thread eats a panicking task; the pool must still run a
        // full batch of follow-up tasks (impossible if panics killed the
        // threads, since the pool never respawns them).
        let pool = ThreadPool::new(2, "poison");
        for _ in 0..8 {
            pool.submit(|| panic!("injected task panic"));
        }
        let (tx, rx) = crossbeam::channel::unbounded();
        for i in 0..32 {
            let tx = tx.clone();
            pool.submit(move || {
                let _ = tx.send(i);
            });
        }
        let mut got = 0;
        while got < 32 {
            assert!(
                rx.recv_timeout(Duration::from_secs(10)).is_ok(),
                "pool stopped executing after panics"
            );
            got += 1;
        }
        // The last panicking task may still be unwinding on the sibling
        // thread when the follow-ups finish; give the counter a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.tasks_panicked() < 8 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.tasks_panicked(), 8);
    }

    #[test]
    fn a_task_blocked_on_its_own_pieces_is_not_starved() {
        // One task submits 16 pieces, then blocks its thread until every
        // piece has run — which happens only because the other threads
        // take the pieces off the queue while it waits.
        let pool = Arc::new(ThreadPool::new(4, "pieces"));
        let (tx, rx) = crossbeam::channel::unbounded();
        let p2 = pool.clone();
        pool.submit(move || {
            let (done_tx, done_rx) = crossbeam::channel::unbounded();
            for i in 0..16 {
                let done_tx = done_tx.clone();
                p2.submit(move || {
                    let _ = done_tx.send(i);
                });
            }
            drop(done_tx);
            let mut seen = 0;
            while seen < 16 && done_rx.recv_timeout(Duration::from_secs(10)).is_ok() {
                seen += 1;
            }
            let _ = tx.send(seen);
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(15)),
            Ok(16),
            "the other threads ran the blocked task's pieces"
        );
    }
}
