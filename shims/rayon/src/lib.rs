//! In-workspace stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this shim reimplements
//! the subset of rayon's API the workspace uses on a small resident worker
//! pool:
//!
//! * [`ThreadPool`] / [`ThreadPoolBuilder`] with [`ThreadPool::install`] —
//!   a pool of `num_threads` owns `num_threads − 1` *helper* threads (the
//!   thread that launches keeps working, so it is the last worker). Helpers
//!   are spawned on the pool's first parallel launch, park on a condvar
//!   between launches and are joined when the pool drops: a pool that never
//!   launches costs no thread, and a dropped pool leaves none behind.
//!   `install` makes the pool current for parallel iterators run inside the
//!   closure; launches outside any `install` use a process-wide pool sized
//!   to the host.
//! * Indexed parallel iterators over slices, mutable slices, chunks and
//!   ranges, with `map` / `zip` / `enumerate` / `filter` adaptors and `for_each` / `collect` / `reduce` / `count` terminals.
//!
//! # Launch dispatch
//!
//! A launch splits its iterator into four contiguous parts per thread of the
//! pool (`PARTS_PER_THREAD`; fewer when the iterator is shorter) — the split
//! depends on the pool's size and the iterator's length only, never on who
//! ends up running what, so results are reproducible — and publishes the
//! parts as one *job*: a claim counter over all parts but the last, and a
//! result slot per part. Parked helpers wake and claim parts. The launching
//! thread runs the last part, then claims whatever is still unclaimed, then
//! waits for the helpers still inside a part. A launch therefore never waits
//! for a thread to *start*: if the helpers are slow to wake, or busy, the
//! launcher has done the work itself by the time they look. Nor does it wait
//! long for one to *finish*: a helper that loses its processor in the middle
//! of a launch holds up the part it is in, a fraction of the launch, and
//! every other part goes to whoever is still running.
//!
//! The launches that reach a pool are the verifier's sections: one per
//! backsubstitution list whose items are whole walks
//! (`gpupoly_device::Device::streams`), a handful of long parts claimed one
//! at a time, and a fused batch's host work between two layers, one block
//! of queries a device. Kernels launch no parallel iterator: every kernel a
//! walk launches runs on the walk's thread — mirroring how a GPU stream
//! serializes its kernels while streams run side by side. A launch from a
//! thread that is already running a part is flattened: it runs whole,
//! sequentially, on that thread, whichever pool is current there
//! ([`in_part`] is the test; the flag belongs to the thread, not to a pool,
//! so a part of pool A that launches on pool B stays on its thread too).
//!
//! A pool holds one job at a time. A second thread launching on a pool whose
//! job slot is taken (concurrent callers of one device) runs all of its
//! parts itself, which can neither deadlock nor oversubscribe.
//!
//! Every part runs under `catch_unwind`. A panicking part does not stop the
//! others; once the job has drained, the first panic in part order is
//! re-raised on the launching thread and the pool is ready for the next
//! launch.
//!
//! # The one `unsafe` block
//!
//! Kernel closures borrow their operands, but resident helpers are
//! `'static` threads, so `drive` hands them a reference to the job on its
//! own stack with the lifetime erased (a `transmute` of
//! `&'a dyn Claim` to `&'static dyn Claim`) — what real rayon does in its
//! `StackJob`. It is sound because no helper can reach the job once `drive`
//! is gone:
//!
//! 1. The erased reference lives only in `State::job`, behind the pool
//!    mutex. A helper copies it out only while holding that mutex, and in
//!    the same critical section counts itself into `State::active`; it
//!    counts itself out, again under the mutex, only after its last use of
//!    the job.
//! 2. `drive` creates a `Retract` guard immediately after publishing. Its
//!    `Drop` — which runs on return *and* on unwind — takes the mutex, waits
//!    until `active == 0` and clears `State::job` in that same critical
//!    section. From then on no helper holds the reference and none can
//!    obtain it; the mutex hand-over orders every helper access before the
//!    guard's return.
//! 3. The guard is declared after the job, so it drops first: the job (part
//!    slots, result slots, the borrowed closure) is intact until the last
//!    helper has left it.
//!
//! Part and result hand-over inside the job is safe code: each slot is a
//! `Mutex`, and the claim counter only decides who locks which slot.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

thread_local! {
    /// The pool made current by the innermost [`ThreadPool::install`].
    static CURRENT: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
    /// Set while this thread runs a part (always, on a helper).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| thread::available_parallelism().map_or(4, |n| n.get()))
}

/// The pool a launch on this thread uses: the installed one, or the
/// process-wide default (created on first use, never dropped).
fn current_pool() -> Arc<Shared> {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        let global = GLOBAL.get_or_init(|| ThreadPool::new(default_threads(), Vec::new()));
        global.shared.clone()
    })
}

/// `true` while the calling thread is running a part of a launch: a launch
/// made now would be flattened — run whole, on this thread, without touching
/// a pool (module docs, "Launch dispatch"). A caller that cuts work to keep
/// a pool's threads busy asks this first: inside a part there is one thread.
pub fn in_part() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Error building a thread pool (this shim never fails to build one).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
    thread_name: Option<Box<dyn FnMut(usize) -> String>>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings (all host cores).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Sets the callback naming the pool's threads by index. Helper `i` of
    /// the `num_threads − 1` the pool owns is named `f(i)`; the last index
    /// belongs to whichever thread launches.
    pub fn thread_name<F>(mut self, f: F) -> Self
    where
        F: FnMut(usize) -> String + 'static,
    {
        self.thread_name = Some(Box::new(f));
        self
    }

    /// Builds the pool. No thread is spawned until its first parallel
    /// launch.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        let names = match self.thread_name {
            Some(mut f) => (0..threads - 1).map(&mut *f).collect(),
            None => Vec::new(),
        };
        Ok(ThreadPool::new(threads, names))
    }
}

/// One launch as the helpers see it.
trait Claim {
    /// Claims and runs one unclaimed part; `false` once none is left.
    fn run_one(&self) -> bool;
}

/// What a pool's threads share.
struct Shared {
    /// The parallelism level: the helpers plus the launching thread.
    threads: usize,
    /// Helper names by index (empty: unnamed).
    names: Vec<String>,
    state: Mutex<State>,
    /// Helpers park here for a job (or shutdown).
    work: Condvar,
    /// The launcher parks here for `active` to reach zero.
    done: Condvar,
}

struct State {
    /// The published job, from `drive`'s publish to its `Retract` guard's
    /// drop. The `'static` is a lie told in `drive`; see the module docs.
    job: Option<&'static (dyn Claim + Sync)>,
    /// Publish count, so a helper that has drained a job still on display
    /// does not pick it up again.
    published: u64,
    /// Helpers currently holding `job`.
    active: usize,
    shutdown: bool,
    helpers: Vec<JoinHandle<()>>,
}

impl Shared {
    /// Every update of `State` is a single field store, valid at every
    /// step, and user code never runs under the lock — so a poisoned lock
    /// (a failed allocation in here, at worst) carries consistent data.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spawns the helpers this pool is still missing. A failed spawn leaves
    /// the pool short: launches complete on fewer threads and the next one
    /// tries again.
    fn spawn_helpers(self: &Arc<Self>, state: &mut State) {
        while state.helpers.len() < self.threads - 1 {
            let mut builder = thread::Builder::new();
            if let Some(name) = self.names.get(state.helpers.len()) {
                builder = builder.name(name.clone());
            }
            let pool = self.clone();
            match builder.spawn(move || pool.helper_main()) {
                Ok(handle) => state.helpers.push(handle),
                Err(_) => break,
            }
        }
    }

    fn helper_main(&self) {
        IN_WORKER.with(|c| c.set(true));
        let mut seen = 0;
        let mut state = self.lock();
        while !state.shutdown {
            match state.job {
                Some(job) if state.published != seen => {
                    seen = state.published;
                    state.active += 1;
                    drop(state);
                    while job.run_one() {}
                    state = self.lock();
                    state.active -= 1;
                    if state.active == 0 {
                        self.done.notify_one();
                    }
                }
                _ => {
                    state = self
                        .work
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// A pool of worker threads: [`ThreadPool::install`] makes it the one that
/// parallel iterators launch on.
pub struct ThreadPool {
    shared: Arc<Shared>,
}

impl ThreadPool {
    fn new(threads: usize, names: Vec<String>) -> Self {
        ThreadPool {
            shared: Arc::new(Shared {
                threads,
                names,
                state: Mutex::new(State {
                    job: None,
                    published: 0,
                    active: 0,
                    shutdown: false,
                    helpers: Vec::new(),
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
        }
    }

    /// Runs `op` with this pool current: parallel iterators launched inside
    /// split `num_threads` ways and wake this pool's helpers.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let _guard = PoolScope(CURRENT.with(|c| c.replace(Some(self.shared.clone()))));
        op()
    }

    /// The pool's configured thread count.
    pub fn current_num_threads(&self) -> usize {
        self.shared.threads
    }
}

impl Drop for ThreadPool {
    /// Releases the helpers: no launch can be in flight (`install` borrows
    /// the pool), so they are parked, and exit as soon as they see the flag.
    fn drop(&mut self) {
        let helpers = {
            let mut state = self.shared.lock();
            state.shutdown = true;
            std::mem::take(&mut state.helpers)
        };
        self.shared.work.notify_all();
        for helper in helpers {
            // A helper runs user code only under `catch_unwind`; it has no
            // panic of its own to report.
            let _ = helper.join();
        }
    }
}

/// Restores the previously current pool when dropped (also on unwind).
struct PoolScope(Option<Arc<Shared>>);

impl Drop for PoolScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Marks the current thread as a worker until dropped (also on unwind), so
/// parallel iterators launched from inside a part run sequentially.
struct WorkerScope(bool);

impl WorkerScope {
    fn enter() -> Self {
        WorkerScope(IN_WORKER.with(|c| c.replace(true)))
    }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        IN_WORKER.with(|c| c.set(self.0));
    }
}

/// A part of a launch: waiting to be claimed, being run, or finished.
enum Slot<I, R> {
    Todo(I),
    Running,
    Done(thread::Result<R>),
}

/// One launch: every part but the last (which the launcher keeps), the
/// counter that hands them out, and the kernel.
struct Job<'f, I, R, F> {
    slots: Vec<Mutex<Slot<I, R>>>,
    /// Next unclaimed slot. `Relaxed`: it only deals out distinct indices;
    /// parts and results change hands through the slot mutexes.
    next: AtomicUsize,
    f: &'f F,
}

impl<I, R, F> Claim for Job<'_, I, R, F>
where
    I: ParallelIterator,
    F: Fn(I::Seq) -> R,
{
    fn run_one(&self) -> bool {
        let Some(slot) = self.slots.get(self.next.fetch_add(1, Ordering::Relaxed)) else {
            return false;
        };
        let lock = || slot.lock().unwrap_or_else(PoisonError::into_inner);
        let Slot::Todo(part) = std::mem::replace(&mut *lock(), Slot::Running) else {
            unreachable!("the claim counter hands out each part once");
        };
        let result = run_part(self.f, part);
        *lock() = Slot::Done(result);
        true
    }
}

/// Runs one part as a worker, catching its panic.
fn run_part<I: ParallelIterator, R>(f: &impl Fn(I::Seq) -> R, part: I) -> thread::Result<R> {
    let _worker = WorkerScope::enter();
    catch_unwind(AssertUnwindSafe(|| f(part.pi_seq())))
}

/// Takes a published job back: waits for the helpers inside it to leave,
/// then clears the pool's job slot. See the module docs, "The one `unsafe`
/// block", for why this must run before `drive`'s frame goes away.
struct Retract<'p>(&'p Shared);

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        while state.active > 0 {
            state = self
                .0
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
    }
}

/// Parts a launch makes per thread of its pool. One part per thread fixes
/// who computes what before anyone knows who will be running: on a shared
/// host a helper that is woken late, or descheduled inside its part, then
/// keeps the launcher waiting for a whole thread's share of the launch. With
/// four parts each, the threads that are running take what one that is not
/// leaves behind, and a two-thread launch waits for an eighth of itself at
/// most. An extra part costs one claim: a counter increment and two
/// uncontended slot locks.
const PARTS_PER_THREAD: usize = 4;

/// Splits `iter` into [`PARTS_PER_THREAD`] contiguous parts per thread of
/// the current pool and runs `f` over each part's sequential iterator,
/// returning the per-part results in order. See the module docs, "Launch
/// dispatch".
fn drive<I, R, F>(iter: I, f: &F) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Seq) -> R + Sync,
{
    if in_part() {
        return vec![f(iter.pi_seq())];
    }
    let pool = current_pool();
    let n = iter.pi_len();
    if pool.threads.min(n) <= 1 {
        return vec![f(iter.pi_seq())];
    }
    let parts = (pool.threads * PARTS_PER_THREAD).min(n);
    let mut slots = Vec::with_capacity(parts - 1);
    let mut rest = iter;
    let mut remaining = n;
    for i in 0..parts - 1 {
        let share = remaining / (parts - i);
        let (head, tail) = rest.pi_split_at(share);
        slots.push(Mutex::new(Slot::Todo(head)));
        rest = tail;
        remaining -= share;
    }
    let job = Job {
        slots,
        next: AtomicUsize::new(0),
        f,
    };
    let retract = {
        let mut state = pool.lock();
        if state.job.is_some() {
            // The pool is serving another launch: this one runs here.
            None
        } else {
            pool.spawn_helpers(&mut state);
            let claim: &(dyn Claim + Sync) = &job;
            // SAFETY: this only extends the reference's lifetime. `retract`
            // below is dropped before `job` on every path out of this
            // function, and its drop returns only once no helper holds the
            // reference and `State::job`, its one home, is cleared (module
            // docs, "The one `unsafe` block").
            state.job = Some(unsafe {
                std::mem::transmute::<&(dyn Claim + Sync), &'static (dyn Claim + Sync)>(claim)
            });
            state.published += 1;
            Some(Retract(&pool))
        }
    };
    if retract.is_some() {
        pool.work.notify_all();
    }
    let last = run_part(f, rest);
    while job.run_one() {}
    drop(retract);
    let mut results = Vec::with_capacity(parts);
    for slot in job.slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Slot::Done(Ok(r)) => results.push(r),
            Slot::Done(Err(panic)) => resume_unwind(panic),
            Slot::Todo(_) | Slot::Running => unreachable!("the job was drained"),
        }
    }
    match last {
        Ok(r) => results.push(r),
        Err(panic) => resume_unwind(panic),
    }
    results
}

/// An indexed parallel iterator: splittable into contiguous parts, each
/// convertible to a sequential iterator.
pub trait ParallelIterator: Sized + Send {
    /// Item type produced by the iterator.
    type Item: Send;
    /// Sequential iterator over one contiguous part.
    type Seq: Iterator<Item = Self::Item>;

    /// Number of index positions (an upper bound for filtered iterators).
    fn pi_len(&self) -> usize;
    /// Splits into `[0, index)` and `[index, len)`.
    fn pi_split_at(self, index: usize) -> (Self, Self);
    /// Sequential iterator over the whole part.
    fn pi_seq(self) -> Self::Seq;

    /// Maps each item through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Keeps only the items for which `p` returns `true`.
    fn filter<P>(self, p: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter {
            base: self,
            p: Arc::new(p),
        }
    }

    /// Iterates two parallel iterators in lockstep.
    fn zip<B>(self, other: B) -> Zip<Self, B::Iter>
    where
        B: IntoParallelIterator,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    /// Pairs each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Runs `op` on every item in parallel.
    fn for_each<OP>(self, op: OP)
    where
        OP: Fn(Self::Item) + Sync + Send,
    {
        drive(self, &|seq| {
            for item in seq {
                op(item);
            }
        });
    }

    /// Collects into a container, preserving order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Counts the items.
    fn count(self) -> usize {
        drive(self, &|seq| seq.count()).into_iter().sum()
    }

    /// Parallel fold with an identity element.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let parts = drive(self, &|seq| {
            let mut acc = identity();
            for item in seq {
                acc = op(acc, item);
            }
            acc
        });
        let mut acc = identity();
        for part in parts {
            acc = op(acc, part);
        }
        acc
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The item type.
    type Item: Send;
    /// Performs the conversion.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

/// `par_iter` on `&C` where `&C: IntoParallelIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The item type.
    type Item: Send + 'data;
    /// Borrowing parallel iterator.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Iter = <&'data C as IntoParallelIterator>::Iter;
    type Item = <&'data C as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `par_iter_mut` on `&mut C` where `&mut C: IntoParallelIterator`.
pub trait IntoParallelRefMutIterator<'data> {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The item type.
    type Item: Send + 'data;
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
where
    &'data mut C: IntoParallelIterator,
{
    type Iter = <&'data mut C as IntoParallelIterator>::Iter;
    type Item = <&'data mut C as IntoParallelIterator>::Item;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Parallel iteration over immutable chunks of a slice.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over chunks of `chunk_size` elements.
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        Chunks {
            slice: self,
            chunk: chunk_size,
        }
    }
}

/// Parallel iteration over mutable chunks of a slice.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable chunks of `chunk_size` elements.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunksMut {
            slice: self,
            chunk: chunk_size,
        }
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Parallel iterator over `&[T]`.
pub struct Iter<'a, T: Sync>(&'a [T]);

impl<'a, T: Sync> ParallelIterator for Iter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;
    fn pi_len(&self) -> usize {
        self.0.len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at(index);
        (Iter(a), Iter(b))
    }
    fn pi_seq(self) -> Self::Seq {
        self.0.iter()
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = Iter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> Self::Iter {
        Iter(self)
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = Iter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> Self::Iter {
        Iter(self)
    }
}

/// Parallel iterator over `&mut [T]`.
pub struct IterMut<'a, T: Send>(&'a mut [T]);

impl<'a, T: Send> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;
    fn pi_len(&self) -> usize {
        self.0.len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at_mut(index);
        (IterMut(a), IterMut(b))
    }
    fn pi_seq(self) -> Self::Seq {
        self.0.iter_mut()
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Iter = IterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> Self::Iter {
        IterMut(self)
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = IterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> Self::Iter {
        IterMut(self)
    }
}

/// Parallel iterator over immutable slice chunks.
pub struct Chunks<'a, T: Sync> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;
    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk).min(self.slice.len());
        let (a, b) = self.slice.split_at(mid);
        (
            Chunks {
                slice: a,
                chunk: self.chunk,
            },
            Chunks {
                slice: b,
                chunk: self.chunk,
            },
        )
    }
    fn pi_seq(self) -> Self::Seq {
        self.slice.chunks(self.chunk)
    }
}

/// Parallel iterator over mutable slice chunks.
pub struct ChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;
    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (
            ChunksMut {
                slice: a,
                chunk: self.chunk,
            },
            ChunksMut {
                slice: b,
                chunk: self.chunk,
            },
        )
    }
    fn pi_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.chunk)
    }
}

/// Parallel iterator over a `usize` range.
pub struct RangeIter {
    range: std::ops::Range<usize>,
}

impl ParallelIterator for RangeIter {
    type Item = usize;
    type Seq = std::ops::Range<usize>;
    fn pi_len(&self) -> usize {
        self.range.len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let mid = self.range.start + index;
        (
            RangeIter {
                range: self.range.start..mid,
            },
            RangeIter {
                range: mid..self.range.end,
            },
        )
    }
    fn pi_seq(self) -> Self::Seq {
        self.range
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = RangeIter;
    type Item = usize;
    fn into_par_iter(self) -> Self::Iter {
        RangeIter { range: self }
    }
}

// ---------------------------------------------------------------------------
// Adaptors
// ---------------------------------------------------------------------------

/// Mapping adaptor (see [`ParallelIterator::map`]).
pub struct Map<I, F> {
    base: I,
    f: Arc<F>,
}

/// Sequential side of [`Map`].
pub struct MapSeq<S, F> {
    base: S,
    f: Arc<F>,
}

impl<S: Iterator, R, F: Fn(S::Item) -> R> Iterator for MapSeq<S, F> {
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.base.next().map(|x| (self.f)(x))
    }
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;
    type Seq = MapSeq<I::Seq, F>;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.pi_split_at(index);
        (
            Map {
                base: a,
                f: self.f.clone(),
            },
            Map { base: b, f: self.f },
        )
    }
    fn pi_seq(self) -> Self::Seq {
        MapSeq {
            base: self.base.pi_seq(),
            f: self.f,
        }
    }
}

/// Filtering adaptor (see [`ParallelIterator::filter`]).
pub struct Filter<I, P> {
    base: I,
    p: Arc<P>,
}

/// Sequential side of [`Filter`].
pub struct FilterSeq<S, P> {
    base: S,
    p: Arc<P>,
}

impl<S: Iterator, P: Fn(&S::Item) -> bool> Iterator for FilterSeq<S, P> {
    type Item = S::Item;
    fn next(&mut self) -> Option<S::Item> {
        self.base.by_ref().find(|x| (self.p)(x))
    }
}

impl<I, P> ParallelIterator for Filter<I, P>
where
    I: ParallelIterator,
    P: Fn(&I::Item) -> bool + Sync + Send,
{
    type Item = I::Item;
    type Seq = FilterSeq<I::Seq, P>;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.pi_split_at(index);
        (
            Filter {
                base: a,
                p: self.p.clone(),
            },
            Filter { base: b, p: self.p },
        )
    }
    fn pi_seq(self) -> Self::Seq {
        FilterSeq {
            base: self.base.pi_seq(),
            p: self.p,
        }
    }
}

/// Lockstep adaptor (see [`ParallelIterator::zip`]).
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;
    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.pi_split_at(index);
        let (b1, b2) = self.b.pi_split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }
    fn pi_seq(self) -> Self::Seq {
        self.a.pi_seq().zip(self.b.pi_seq())
    }
}

/// Index-pairing adaptor (see [`ParallelIterator::enumerate`]).
pub struct Enumerate<I> {
    base: I,
    offset: usize,
}

/// Sequential side of [`Enumerate`].
pub struct EnumerateSeq<S> {
    base: S,
    index: usize,
}

impl<S: Iterator> Iterator for EnumerateSeq<S> {
    type Item = (usize, S::Item);
    fn next(&mut self) -> Option<Self::Item> {
        let x = self.base.next()?;
        let i = self.index;
        self.index += 1;
        Some((i, x))
    }
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type Seq = EnumerateSeq<I::Seq>;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.pi_split_at(index);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + index,
            },
        )
    }
    fn pi_seq(self) -> Self::Seq {
        EnumerateSeq {
            base: self.base.pi_seq(),
            index: self.offset,
        }
    }
}

/// Order-preserving parallel collection.
pub trait FromParallelIterator<T: Send> {
    /// Builds the container from a parallel iterator.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let chunks = drive(iter, &|seq| seq.collect::<Vec<_>>());
        let total = chunks.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

/// The traits needed to use parallel iterators, for glob import.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::Barrier;

    impl ThreadPool {
        /// Helper threads this pool has spawned so far.
        fn helpers_spawned(&self) -> usize {
            self.shared.lock().helpers.len()
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn for_each_mutates_every_chunk() {
        let mut data = vec![0u32; 103];
        data.par_chunks_mut(10)
            .enumerate()
            .for_each(|(i, chunk)| chunk.iter_mut().for_each(|x| *x = i as u32));
        assert_eq!(data[0], 0);
        assert_eq!(data[99], 9);
        assert_eq!(data[102], 10);
    }

    #[test]
    fn zip_filter_count() {
        let a: Vec<u32> = (0..500).collect();
        let b: Vec<u32> = (0..500).map(|i| i % 2).collect();
        let n = a.par_iter().zip(&b).filter(|(_, &flag)| flag == 1).count();
        assert_eq!(n, 250);
    }

    #[test]
    fn reduce_matches_serial() {
        let sum = (0..101usize).into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, 5050);
    }

    #[test]
    fn install_bounds_parallelism() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let out: Vec<usize> = pool.install(|| (0..64usize).into_par_iter().map(|i| i).collect());
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(pool.current_num_threads(), 2);
    }

    /// Two-way launch on `pool` whose parts rendezvous at a barrier, so the
    /// first part can only be run by a helper while the launcher sits in
    /// the last; `part(i)` runs after the rendezvous.
    fn two_way<R: Send>(pool: &ThreadPool, part: impl Fn(usize) -> R + Sync + Send) -> Vec<R> {
        let both = Barrier::new(2);
        pool.install(|| {
            (0..2usize)
                .into_par_iter()
                .map(|i| {
                    both.wait();
                    part(i)
                })
                .collect()
        })
    }

    fn panic_message(outcome: thread::Result<()>) -> &'static str {
        outcome
            .expect_err("the launch must panic")
            .downcast_ref::<&'static str>()
            .copied()
            .expect("a &str payload")
    }

    #[test]
    fn last_part_runs_on_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let me = thread::current().id();
        for _ in 0..200 {
            let runs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            let ids: Vec<thread::ThreadId> = pool.install(|| {
                (0..3usize)
                    .into_par_iter()
                    .map(|i| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        thread::current().id()
                    })
                    .collect()
            });
            assert_eq!(ids[2], me, "the launcher keeps the last part");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn a_stalled_part_holds_up_nothing_but_itself() {
        // Item 0 does not return before every other item has run. Whoever
        // claims it — the helper, or the launcher once its own part is done —
        // the other thread must get through all the rest. (Split one part
        // per thread, items 1 to 3 would sit behind item 0 in the same part
        // and this would hang.)
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let items = 2 * PARTS_PER_THREAD;
        for _ in 0..50 {
            let others_done = AtomicUsize::new(0);
            let out: Vec<usize> = pool.install(|| {
                (0..items)
                    .into_par_iter()
                    .map(|i| {
                        if i == 0 {
                            while others_done.load(Ordering::Acquire) < items - 1 {
                                thread::yield_now();
                            }
                        } else {
                            others_done.fetch_add(1, Ordering::Release);
                        }
                        i
                    })
                    .collect()
            });
            assert_eq!(out, (0..items).collect::<Vec<_>>());
        }
    }

    #[test]
    fn helpers_are_named_and_run_the_parts_the_launcher_cannot_reach() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .thread_name(|i| format!("shim-test-{i}"))
            .build()
            .unwrap();
        assert_eq!(
            pool.helpers_spawned(),
            0,
            "no thread before the first launch"
        );
        let names = two_way(&pool, |_| thread::current().name().map(str::to_owned));
        assert_eq!(names[0].as_deref(), Some("shim-test-0"));
        assert_eq!(names[1].as_deref(), thread::current().name());
        assert_eq!(pool.helpers_spawned(), 1);
    }

    #[test]
    fn launches_spawn_no_thread_after_warm_up() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let launch = || -> Vec<(usize, thread::ThreadId)> {
            pool.install(|| {
                (0..3usize)
                    .into_par_iter()
                    .map(|i| (i, thread::current().id()))
                    .collect()
            })
        };
        launch();
        assert_eq!(pool.helpers_spawned(), 2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let out = launch();
            assert!(out.iter().map(|&(i, _)| i).eq(0..3));
            seen.extend(out.into_iter().map(|(_, id)| id));
        }
        assert_eq!(pool.helpers_spawned(), 2);
        assert!(seen.len() <= 3, "two helpers and the launcher, ever");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropped_pools_release_their_threads() {
        fn os_threads() -> usize {
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
            line["Threads:".len()..].trim().parse().unwrap()
        }
        // Each helper holds a strong reference to its pool's `Shared` for as
        // long as it lives, so a count of zero after the drop says every
        // helper of *this* pool has exited — whatever the tests sharing the
        // process are doing. The OS-wide count is noisier (neighbours run up
        // to a few dozen threads, and under `--test-threads=8` may be at
        // their peak or trough when `before` is read), so its bound is wide:
        // 200 leaked pools would be 600 threads.
        let before = os_threads();
        for _ in 0..200 {
            let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            two_way(&pool, |i| i);
            assert_eq!(pool.helpers_spawned(), 3);
            let shared = Arc::downgrade(&pool.shared);
            drop(pool);
            assert_eq!(shared.strong_count(), 0, "a helper outlived its pool");
            assert!(os_threads() < before + 300);
        }
    }

    #[test]
    fn panic_in_a_helper_part_reaches_the_launcher_and_the_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            two_way(&pool, |i| {
                if i == 0 {
                    panic!("helper part");
                }
            });
        }));
        assert_eq!(panic_message(outcome), "helper part");
        assert_eq!(two_way(&pool, |i| i), vec![0, 1]);
    }

    #[test]
    fn panic_in_the_inline_part_unwinds_through_install() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            two_way(&pool, |i| {
                if i == 1 {
                    panic!("launcher part");
                }
            });
        }));
        assert_eq!(panic_message(outcome), "launcher part");
        // The unwind restored both thread-locals: this thread is not a
        // worker and has no pool installed.
        assert!(!IN_WORKER.with(Cell::get));
        assert!(CURRENT.with(|c| c.borrow().is_none()));
        assert_eq!(two_way(&pool, |i| i), vec![0, 1]);
    }

    #[test]
    fn concurrent_launchers_on_one_pool_all_get_complete_ordered_results() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let start = Barrier::new(8);
        thread::scope(|s| {
            for t in 0..8usize {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..500usize {
                        let out: Vec<usize> = pool.install(|| {
                            (0..64usize)
                                .into_par_iter()
                                .map(|i| i * t + round)
                                .collect()
                        });
                        assert!(out.iter().enumerate().all(|(i, &x)| x == i * t + round));
                    }
                });
            }
        });
        assert_eq!(pool.helpers_spawned(), 1);
    }

    #[test]
    fn nested_parallelism_flattens() {
        // An inner launch runs serially on the thread of the part it is in.
        let inner_stayed_put: Vec<bool> = (0..8usize)
            .into_par_iter()
            .map(|_| {
                let outer = thread::current().id();
                let inner: Vec<thread::ThreadId> = (0..100usize)
                    .into_par_iter()
                    .map(|_| thread::current().id())
                    .collect();
                inner.len() == 100 && inner.iter().all(|&id| id == outer)
            })
            .collect();
        assert_eq!(inner_stayed_put, vec![true; 8]);
    }

    #[test]
    fn a_part_of_one_pool_launching_on_another_stays_on_its_thread() {
        // A traced device's walks are parts of the outer device's pool, and
        // anything they launch is current on the inner device's pool: such a
        // launch must not leave the thread its walk is on.
        let outer = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        assert!(!in_part());
        let stayed_put = two_way(&outer, |_| {
            let me = thread::current().id();
            let ids: Vec<thread::ThreadId> = inner.install(|| {
                assert!(in_part());
                (0..100usize)
                    .into_par_iter()
                    .map(|_| thread::current().id())
                    .collect()
            });
            ids.len() == 100 && ids.iter().all(|&id| id == me)
        });
        assert_eq!(stayed_put, vec![true, true]);
        assert_eq!(inner.helpers_spawned(), 0, "nothing was handed over");
        // Outside a part the inner pool splits as ever.
        let split = two_way(&inner, |_| thread::current().id());
        assert_ne!(split[0], thread::current().id());
    }

    #[test]
    fn a_panic_in_a_launch_nested_across_pools_surfaces_once_on_the_outer_launcher() {
        let outer = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let raised = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            two_way(&outer, |i| {
                inner.install(|| {
                    (0..8usize).into_par_iter().for_each(|j| {
                        if i == 0 && j == 3 {
                            raised.fetch_add(1, Ordering::Relaxed);
                            panic!("nested launch");
                        }
                    })
                })
            });
        }));
        assert_eq!(panic_message(outcome), "nested launch");
        assert_eq!(raised.load(Ordering::Relaxed), 1);
        assert!(!in_part());
        assert!(CURRENT.with(|c| c.borrow().is_none()));
        // Neither pool is left with a job on display or a worker flag set.
        assert_eq!(two_way(&outer, |i| i), vec![0, 1]);
        assert_eq!(two_way(&inner, |i| i), vec![0, 1]);
    }

    #[test]
    fn a_launch_too_short_to_split_is_not_a_part() {
        // One item: the launch runs on the launcher as plain code, not as a
        // worker, so launches made inside it still split — the walks of a
        // one-query batch still run side by side. (Flattened, the rendezvous
        // would hang.)
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let me = thread::current().id();
        let inner: Vec<Vec<thread::ThreadId>> = pool.install(|| {
            (0..1usize)
                .into_par_iter()
                .map(|_| two_way(&pool, |_| thread::current().id()))
                .collect()
        });
        assert_eq!(inner.len(), 1);
        assert_ne!(inner[0][0], me);
        assert_eq!(inner[0][1], me);
    }
}
