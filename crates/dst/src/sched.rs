//! The deterministic scheduler: virtual threads are real OS threads
//! serialized by a token. A task runs until its granted *budget* of
//! yield points is spent (or it voluntarily yields), then hands the
//! token back; the seeded PRNG picks the next task and budget. Two
//! schedule modes:
//!
//! * **Random**: uniform choice among runnable tasks with a small
//!   random budget — good breadth over interleavings.
//! * **PCT** (probabilistic concurrency testing): each task gets a
//!   random priority; the highest-priority runnable task runs, with
//!   `depth - 1` random change points that demote the current leader.
//!   PCT finds bugs of small "depth" (few ordering constraints) with
//!   provable probability. A task that calls [`crate::yield_now`] is
//!   demoted, so spin loops cannot livelock a priority schedule.
//!
//! Determinism: scheduling decisions depend only on the PRNG and the
//! evolution of the runnable set, which (for instrumented code free of
//! other nondeterminism) depends only on prior decisions. Same seed ⇒
//! same schedule ⇒ same history, byte for byte.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crate::history::{Event, Op};
use crate::splitmix64;

const DEFAULT_MAX_STEPS: u64 = 500_000;
/// Horizon (in steps) over which PCT change points are sampled.
const PCT_HORIZON: u64 = 20_000;
/// Largest random budget granted in Random mode.
const MAX_BUDGET: u32 = 4;

/// Schedule-generation strategy for one simulated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Random,
    Pct { depth: usize },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Done,
}

struct Inner {
    status: Vec<Status>,
    /// Task currently holding the execution token, if any.
    current: Option<usize>,
    /// Budget attached to the current grant.
    granted_budget: u32,
    rng: u64,
    mode: Mode,
    /// PCT priorities (higher runs first); demotions go ever lower.
    priorities: Vec<i64>,
    next_demoted: i64,
    change_points: Vec<u64>,
    steps: u64,
    max_steps: u64,
    schedule: Vec<(u32, u32)>,
    history: Vec<Event>,
    failure: Option<String>,
    aborting: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
}

struct Ctx {
    id: usize,
    shared: Arc<Shared>,
    budget: Cell<u32>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Payload used to unwind the remaining tasks once the run is aborting
/// (a task panicked or the step budget ran out). Delivered via
/// `resume_unwind` so the global panic hook stays quiet.
struct DstAbort;

pub(crate) fn in_task() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

pub(crate) fn yield_point() {
    CTX.with(|c| {
        let b = c.borrow();
        if let Some(ctx) = b.as_ref() {
            let left = ctx.budget.get();
            if left > 1 {
                ctx.budget.set(left - 1);
            } else {
                reschedule(ctx, false);
            }
        }
    });
}

pub(crate) fn yield_now_task() {
    CTX.with(|c| {
        let b = c.borrow();
        if let Some(ctx) = b.as_ref() {
            reschedule(ctx, true);
        }
    });
}

pub(crate) fn record_op_with<F: FnOnce() -> Op>(f: F) {
    CTX.with(|c| {
        let b = c.borrow();
        if let Some(ctx) = b.as_ref() {
            let op = f();
            let mut inner = ctx.shared.inner.lock().unwrap();
            let task = ctx.id;
            inner.history.push(Event { task, op });
        }
    });
}

/// Unwind the calling task out of an aborting run. A task that is
/// already unwinding is at a yield point in a destructor, where a second
/// panic would abort the process: it runs on, unscheduled, to the end of
/// its cleanup instead.
fn abort_unwind() {
    if !std::thread::panicking() {
        std::panic::resume_unwind(Box::new(DstAbort))
    }
}

fn next_rand(inner: &mut Inner) -> u64 {
    inner.rng = splitmix64(inner.rng);
    inner.rng
}

/// Pick the next task + budget and store the grant. Caller notifies.
fn grant_next(inner: &mut Inner) {
    let runnable: Vec<usize> = (0..inner.status.len())
        .filter(|&t| inner.status[t] == Status::Runnable)
        .collect();
    if runnable.is_empty() {
        inner.current = None;
        return;
    }
    let (pick, budget) = match inner.mode {
        Mode::Random => {
            let r = next_rand(inner);
            let pick = runnable[(r % runnable.len() as u64) as usize];
            (pick, 1 + ((r >> 32) % MAX_BUDGET as u64) as u32)
        }
        Mode::Pct { .. } => {
            // At a change point the current leader drops to the bottom,
            // letting the next priority take over mid-run.
            if inner.change_points.contains(&inner.steps) {
                if let Some(&leader) = runnable.iter().max_by_key(|&&t| inner.priorities[t]) {
                    inner.priorities[leader] = inner.next_demoted;
                    inner.next_demoted -= 1;
                }
            }
            let pick = *runnable
                .iter()
                .max_by_key(|&&t| inner.priorities[t])
                .expect("runnable set non-empty");
            // Budget 1: every yield point is a scheduler step, so change
            // points land at exact yield-point indices.
            (pick, 1)
        }
    };
    inner.current = Some(pick);
    inner.granted_budget = budget;
    inner.schedule.push((pick as u32, budget));
}

/// Hand the token back, run one scheduling step, and wait to be granted
/// again. `demote` lowers the caller's PCT priority first.
fn reschedule(ctx: &Ctx, demote: bool) {
    let shared = &ctx.shared;
    let mut inner = shared.inner.lock().unwrap();
    if inner.aborting {
        drop(inner);
        abort_unwind();
        return;
    }
    inner.steps += 1;
    if inner.steps > inner.max_steps {
        if inner.failure.is_none() {
            inner.failure = Some(format!(
                "step budget exhausted after {} scheduling steps (possible livelock)",
                inner.max_steps
            ));
        }
        inner.aborting = true;
        shared.cv.notify_all();
        drop(inner);
        abort_unwind();
        return;
    }
    if demote {
        inner.priorities[ctx.id] = inner.next_demoted;
        inner.next_demoted -= 1;
    }
    grant_next(&mut inner);
    shared.cv.notify_all();
    while inner.current != Some(ctx.id) && !inner.aborting {
        inner = shared.cv.wait(inner).unwrap();
    }
    if inner.aborting {
        drop(inner);
        abort_unwind();
        return;
    }
    ctx.budget.set(inner.granted_budget);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn task_main(shared: Arc<Shared>, id: usize, f: Box<dyn FnOnce() + Send>) {
    // Wait for the first grant before touching anything.
    {
        let mut inner = shared.inner.lock().unwrap();
        while inner.current != Some(id) && !inner.aborting {
            inner = shared.cv.wait(inner).unwrap();
        }
        if inner.aborting {
            inner.status[id] = Status::Done;
            shared.cv.notify_all();
            return;
        }
        let budget = inner.granted_budget;
        drop(inner);
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                id,
                shared: Arc::clone(&shared),
                budget: Cell::new(budget),
            });
        });
    }
    let result = catch_unwind(AssertUnwindSafe(f));
    CTX.with(|c| *c.borrow_mut() = None);
    let mut inner = shared.inner.lock().unwrap();
    inner.status[id] = Status::Done;
    if let Err(payload) = result {
        if payload.downcast_ref::<DstAbort>().is_none() {
            if inner.failure.is_none() {
                inner.failure = Some(format!(
                    "task {id} panicked: {}",
                    panic_message(payload.as_ref())
                ));
            }
            inner.aborting = true;
        }
    }
    if inner.current == Some(id) {
        grant_next(&mut inner);
    }
    shared.cv.notify_all();
}

/// Builder for one deterministic run.
pub struct Sim {
    seed: u64,
    mode: Mode,
    max_steps: u64,
    #[allow(clippy::type_complexity)]
    tasks: Vec<Box<dyn FnOnce() + Send + 'static>>,
}

impl Sim {
    /// A random-schedule simulation driven by `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            seed,
            mode: Mode::Random,
            max_steps: DEFAULT_MAX_STEPS,
            tasks: Vec::new(),
        }
    }

    /// Switch to a PCT priority schedule of the given depth.
    pub fn with_pct(mut self, depth: usize) -> Self {
        self.mode = Mode::Pct { depth };
        self
    }

    /// Override the livelock step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Add a virtual thread.
    pub fn spawn<F: FnOnce() + Send + 'static>(&mut self, f: F) {
        self.tasks.push(Box::new(f));
    }

    /// Run every task to completion under the seeded schedule.
    pub fn run(self) -> RunOutcome {
        let n = self.tasks.len();
        assert!(n > 0, "Sim::run with no tasks");
        let mut rng = splitmix64(self.seed ^ 0xD57_5EED);
        let mut priorities = Vec::with_capacity(n);
        for _ in 0..n {
            rng = splitmix64(rng);
            priorities.push((rng >> 1) as i64);
        }
        let mut change_points = Vec::new();
        if let Mode::Pct { depth } = self.mode {
            for _ in 1..depth {
                rng = splitmix64(rng);
                change_points.push(1 + rng % PCT_HORIZON);
            }
        }
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                status: vec![Status::Runnable; n],
                current: None,
                granted_budget: 0,
                rng,
                mode: self.mode,
                priorities,
                next_demoted: -1,
                change_points,
                steps: 0,
                max_steps: self.max_steps,
                schedule: Vec::new(),
                history: Vec::new(),
                failure: None,
                aborting: false,
            }),
            cv: Condvar::new(),
        });
        let handles: Vec<_> = self
            .tasks
            .into_iter()
            .enumerate()
            .map(|(id, f)| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dst-task-{id}"))
                    .spawn(move || task_main(sh, id, f))
                    .expect("spawn dst task")
            })
            .collect();
        {
            let mut inner = shared.inner.lock().unwrap();
            grant_next(&mut inner);
            shared.cv.notify_all();
        }
        for h in handles {
            let _ = h.join();
        }
        let inner = shared.inner.lock().unwrap();
        RunOutcome {
            seed: self.seed,
            mode: inner.mode,
            steps: inner.steps,
            schedule: inner.schedule.clone(),
            history: inner.history.clone(),
            failure: inner.failure.clone(),
        }
    }
}

/// Everything a finished run produced: the verdict, the exact schedule,
/// and the recorded operation history.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub seed: u64,
    pub mode: Mode,
    pub steps: u64,
    /// Every grant as `(task, budget)`, in order.
    pub schedule: Vec<(u32, u32)>,
    pub history: Vec<Event>,
    /// First failure observed (task panic or step-budget exhaustion).
    pub failure: Option<String>,
}

impl RunOutcome {
    /// Panic (with the full replay dump) if any task failed.
    pub fn expect_clean(&self) {
        if let Some(f) = &self.failure {
            panic!("dst run failed: {f}\n{}", self.dump());
        }
    }

    /// Assert the run was clean, then apply a checker to it; if the
    /// checker panics, re-panic with the seed and full schedule so the
    /// failure replays exactly.
    pub fn check<F: FnOnce(&RunOutcome)>(&self, f: F) {
        self.expect_clean();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(self))) {
            eprintln!("{}", self.dump());
            std::panic::resume_unwind(payload);
        }
    }

    /// Human-readable replay information: seed, mode, and the complete
    /// schedule (the seed alone reproduces it; the schedule is printed
    /// so a failure can be eyeballed without re-running).
    fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== dst replay info: seed={:#x} mode={:?} steps={} events={} ===",
            self.seed,
            self.mode,
            self.steps,
            self.history.len()
        );
        let _ = write!(out, "schedule (task x budget):");
        for (i, (task, budget)) in self.schedule.iter().enumerate() {
            if i % 16 == 0 {
                let _ = write!(out, "\n  ");
            }
            let _ = write!(out, "{task}x{budget} ");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "re-run this exact interleaving with the seed above");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn tasks_are_serialized_and_all_run() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(42);
        for _ in 0..4 {
            let hits = Arc::clone(&hits);
            sim.spawn(move || {
                for _ in 0..10 {
                    crate::yield_point();
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let out = sim.run();
        out.expect_clean();
        assert_eq!(hits.load(Ordering::Relaxed), 40);
        assert!(
            out.schedule.len() > 1,
            "must have rescheduled at least once"
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            for t in 0..3u64 {
                sim.spawn(move || {
                    let mut x = t;
                    for _ in 0..50 {
                        crate::yield_point();
                        x = crate::splitmix64(x);
                    }
                    std::hint::black_box(x);
                });
            }
            sim.run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.schedule, b.schedule);
        let c = run(8);
        assert_ne!(a.schedule, c.schedule, "different seeds should diverge");
    }

    #[test]
    fn task_panic_is_reported_with_seed() {
        let mut sim = Sim::new(3);
        sim.spawn(|| {
            for _ in 0..5 {
                crate::yield_point();
            }
            panic!("boom");
        });
        sim.spawn(|| loop {
            // Would spin forever; the abort must unwind it.
            crate::yield_now();
        });
        let out = sim.run();
        assert!(out.dump().contains("seed=0x3"));
        let failure = out.failure.expect("panic must be captured");
        assert!(failure.contains("boom"), "got: {failure}");
    }

    #[test]
    fn step_budget_catches_livelock() {
        let mut sim = Sim::new(11).with_max_steps(1000);
        sim.spawn(|| loop {
            crate::yield_now();
        });
        let out = sim.run();
        assert!(out.failure.unwrap().contains("step budget"));
    }

    #[test]
    fn an_abort_lets_destructors_finish_their_yield_points() {
        // Both tasks are parked mid-spin when the budget runs out; each
        // unwinds through a guard whose drop yields. The run reports the
        // livelock instead of a panic inside a destructor aborting the
        // process.
        struct YieldsOnDrop(Arc<AtomicU64>);
        impl Drop for YieldsOnDrop {
            fn drop(&mut self) {
                for _ in 0..8 {
                    crate::yield_point();
                    crate::yield_now();
                }
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let dropped = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(5).with_max_steps(1000);
        for _ in 0..2 {
            let guard = YieldsOnDrop(Arc::clone(&dropped));
            sim.spawn(move || {
                let _guard = guard;
                loop {
                    crate::yield_now();
                }
            });
        }
        let out = sim.run();
        assert!(out.failure.unwrap().contains("step budget"));
        assert_eq!(dropped.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pct_mode_runs_clean_and_deterministic() {
        let run = || {
            let counter = Arc::new(AtomicU64::new(0));
            let mut sim = Sim::new(99).with_pct(3);
            for _ in 0..3 {
                let counter = Arc::clone(&counter);
                sim.spawn(move || {
                    for _ in 0..20 {
                        crate::yield_point();
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let out = sim.run();
            out.expect_clean();
            (out.schedule, counter.load(Ordering::Relaxed))
        };
        let (s1, c1) = run();
        let (s2, c2) = run();
        assert_eq!(s1, s2);
        assert_eq!(c1, 60);
        assert_eq!(c2, 60);
    }

    #[test]
    fn yield_now_demotes_spinner_so_holder_progresses() {
        // A PCT schedule where the spinner may start with the highest
        // priority: without demote-on-yield_now this would livelock.
        let flag = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(5).with_pct(2).with_max_steps(20_000);
        {
            let flag = Arc::clone(&flag);
            sim.spawn(move || {
                while flag.load(Ordering::Relaxed) == 0 {
                    crate::yield_now();
                }
            });
        }
        {
            let flag = Arc::clone(&flag);
            sim.spawn(move || {
                crate::yield_point();
                flag.store(1, Ordering::Relaxed);
            });
        }
        sim.run().expect_clean();
    }
}
