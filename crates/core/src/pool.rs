//! The per-server work-stealing executor.
//!
//! Each simulated server runs one pool; leaves are tasks on it (paper §5.3:
//! "there is a thread pool that serves leafs with work to do"). The seed
//! implementation was a FIFO channel feeding fixed threads, which serialized
//! a query on its largest micropartition: one pool thread summarized one
//! partition, however big. This pool replaces it with the classic
//! work-stealing shape (per-thread deques over the vendored
//! [`crossbeam::deque`], a global injector, steal-on-idle):
//!
//! * **External submissions** ([`ThreadPool::submit`] from a non-pool
//!   thread) land in the global [`Injector`] FIFO, preserving the seed
//!   pool's fairness for coarse tasks (partition filters, maps, unsplit
//!   leaves).
//! * **Recursive splits**: a task that calls `submit` *from a pool thread*
//!   pushes onto that thread's own deque instead. The owner pops LIFO — it
//!   keeps refining the freshest, smallest half it just split — while idle
//!   threads steal FIFO from the opposite end, taking the oldest and
//!   therefore largest pending piece. That is exactly the
//!   divide-and-conquer schedule the leaf executor in
//!   [`crate::cluster`] relies on: a single oversized micropartition
//!   recursively splits into ~grain-sized sub-ranges that spread across
//!   every core without any central coordination.
//! * **Parking**: idle threads sleep on a condvar; every submission
//!   notifies one sleeper. A thread re-checks the queued-task count under
//!   the sleep lock before parking, so wakeups cannot be lost.
//! * **Shutdown** drains: dropping the pool closes submissions and joins
//!   the threads, which exit only once every queued task has run.
//!
//! Scheduling order is deliberately *not* deterministic — stealing is a
//! race. Result determinism is the execution tree's job: it folds leaf
//! partials in range order, so any interleaving produces identical bytes
//! (see `cluster::aggregate_worker`).

use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// The deque of the pool thread running the current code, if any:
    /// `(shared-state address, local deque)`. Lets `submit` route
    /// recursive-split tasks to the local deque without an extra API.
    static CURRENT: RefCell<Option<(usize, Deque<Task>)>> = const { RefCell::new(None) };
}

struct Shared {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    /// Tasks sitting in the injector or any deque (not ones executing).
    queued: AtomicUsize,
    /// Tasks whose panic was caught by the executor (diagnostics).
    panicked: AtomicUsize,
    shutdown: AtomicBool,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Address used as the pool identity for the thread-local routing.
    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Wake one sleeper. Sleepers re-check the queued count under the
    /// sleep lock before parking, so with the count incremented before the
    /// push a submission can never slip past a parking thread.
    fn notify_one(&self) {
        let _guard = self.sleep.lock();
        self.wake.notify_one();
    }

    /// Find a task: own deque first (LIFO), then the injector, then other
    /// threads' deques (FIFO steals).
    fn find_task(&self, me: usize) -> Option<Task> {
        let local = CURRENT.with(|c| c.borrow().as_ref().and_then(|(_, deque)| deque.pop()));
        if let Some(t) = local {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(t);
        }
        if let Some(t) = self.injector.steal().success() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(t);
        }
        let n = self.stealers.len();
        for k in 1..n {
            if let Some(t) = self.stealers[(me + k) % n].steal().success() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
        }
        None
    }
}

/// A work-stealing thread pool with a fixed number of threads.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `threads` worker threads named after `label`.
    #[expect(
        clippy::expect_used,
        reason = "startup-time OS resource exhaustion has no caller to report to"
    )]
    pub(crate) fn new(threads: usize, label: &str) -> Self {
        let threads = threads.max(1);
        let deques: Vec<Deque<Task>> = (0..threads).map(|_| Deque::new_lifo()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers: deques.iter().map(|d| d.stealer()).collect(),
            queued: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        });
        let threads = deques
            .into_iter()
            .enumerate()
            .map(|(i, deque)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("{label}-{i}"))
                    .spawn(move || {
                        let id = shared.id();
                        CURRENT.with(|c| *c.borrow_mut() = Some((id, deque)));
                        worker_loop(&shared, i);
                        CURRENT.with(|c| *c.borrow_mut() = None);
                    })
                    // Thread spawning fails only on OS resource exhaustion
                    // at pool construction; there is no query to fail yet.
                    .expect("spawn pool thread")
            })
            .collect();
        ThreadPool { shared, threads }
    }

    /// Enqueue a task. Called from one of this pool's own threads, the
    /// task goes to that thread's deque (stealable by idle siblings) —
    /// the recursive-split path; called from outside, it goes to the
    /// global injector FIFO.
    pub(crate) fn submit(&self, task: impl FnOnce() + Send + 'static) {
        let mut task = Some(Box::new(task) as Task);
        // Count before pushing: a worker that pops the task immediately
        // must never decrement the counter below zero.
        self.shared.queued.fetch_add(1, Ordering::SeqCst);
        let my_id = self.shared.id();
        CURRENT.with(|c| {
            if let Some((id, deque)) = c.borrow().as_ref() {
                if *id == my_id {
                    if let Some(t) = task.take() {
                        deque.push(t);
                    }
                }
            }
        });
        if let Some(t) = task {
            self.shared.injector.push(t);
        }
        self.shared.notify_one();
    }

    /// Tasks whose panic the executor caught so far. Pool threads survive
    /// panicking tasks; this counter is how tests and diagnostics observe
    /// that isolation fired.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    pub fn tasks_panicked(&self) -> usize {
        self.shared.panicked.load(Ordering::SeqCst)
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        if let Some(task) = shared.find_task(me) {
            // Panic isolation: a poisoned task must not take down its
            // pool thread (which would strand the thread's deque and
            // shrink the pool for the process lifetime). The task's owner
            // observes the failure through its own channel going dead —
            // the leaf executor additionally catches panics *inside* the
            // task to report a structured error; this is the backstop.
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
                shared.panicked.fetch_add(1, Ordering::SeqCst);
            }
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            if shared.queued.load(Ordering::SeqCst) == 0 {
                return;
            }
            continue;
        }
        // Park until new work arrives; re-check under the lock so a
        // submission between `find_task` and here is never missed.
        let mut guard = shared.sleep.lock();
        if shared.queued.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst) {
            shared.wake.wait(&mut guard);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.sleep.lock();
            self.shared.wake.notify_all();
        }
        // The pool can be dropped *from one of its own threads*: a leaf
        // task may hold the last `Arc<Worker>` when the query's caller has
        // already moved on. Joining ourselves would deadlock (EDEADLK) —
        // detach the current thread instead; it exits on its own once its
        // task returns and the loop observes the shutdown flag.
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
            assert!(rx.recv_timeout(std::time::Duration::from_secs(5)).is_ok());
        }
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
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0, "one");
        assert_eq!(pool.threads.len(), 1);
    }

    #[test]
    fn recursive_submission_from_pool_threads_completes() {
        // A task that splits itself in half down to unit pieces — the
        // executor shape the leaf runner uses. All pieces must run, on any
        // number of threads, with the splits flowing through the local
        // deques.
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
                    .recv_timeout(std::time::Duration::from_secs(10))
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
                rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok(),
                "pool stopped executing after panics"
            );
            got += 1;
        }
        // The last panicking task may still be unwinding on the sibling
        // thread when the follow-ups finish; give the counter a moment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.tasks_panicked() < 8 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.tasks_panicked(), 8);
    }

    #[test]
    fn idle_threads_steal_from_a_busy_thread() {
        // One task floods its own local deque then blocks until every
        // flooded piece has run — impossible unless other threads steal
        // from its deque.
        let pool = Arc::new(ThreadPool::new(4, "steal"));
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
            // Block this pool thread until all 16 pieces ran elsewhere (or
            // here, after this task—which can't happen while we wait).
            let mut seen = 0;
            while seen < 16 {
                if done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .is_ok()
                {
                    seen += 1;
                } else {
                    break;
                }
            }
            let _ = tx.send(seen);
        });
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(15)),
            Ok(16),
            "pieces pushed to a blocked thread's deque were stolen"
        );
    }
}
