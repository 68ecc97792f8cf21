//! In-workspace stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this shim reimplements
//! the subset of rayon's API the workspace uses on top of
//! `std::thread::scope`:
//!
//! * [`ThreadPool`] / [`ThreadPoolBuilder`] with [`ThreadPool::install`] —
//!   the pool does not own threads; `install` sets the parallelism level for
//!   parallel iterators run inside the closure (threads are scoped per
//!   launch — one fewer than the level, the caller runs the last part —
//!   which is adequate for the coarse kernel launches of the simulated
//!   device).
//! * Indexed parallel iterators over slices, mutable slices, chunks and
//!   ranges, with `map` / `zip` / `enumerate` / `filter` adaptors and
//!   `for_each` / `collect` / `reduce` / `count` terminals.
//!
//! Work is split into one contiguous span per worker. Nested parallelism is
//! flattened: a parallel iterator launched from inside a worker thread runs
//! sequentially, so batch-level parallelism (outer) composes with kernel
//! launches (inner) without thread explosion — mirroring how per-query GPU
//! streams serialize kernels within a stream.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

thread_local! {
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

pub(crate) fn current_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    match POOL_THREADS.with(Cell::get) {
        0 => default_threads(),
        n => n,
    }
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

    /// Sets the thread-name callback (accepted for API compatibility; this
    /// shim spawns anonymous scoped threads).
    pub fn thread_name<F>(self, _f: F) -> Self
    where
        F: FnMut(usize) -> String,
    {
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads: n })
    }
}

/// A logical thread pool: a parallelism level applied to parallel iterators
/// executed inside [`ThreadPool::install`].
pub struct ThreadPool {
    threads: usize,
}

struct PoolScope(usize);

impl Drop for PoolScope {
    fn drop(&mut self) {
        POOL_THREADS.with(|c| c.set(self.0));
    }
}

impl ThreadPool {
    /// Runs `op` with this pool's parallelism level active.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let _guard = PoolScope(POOL_THREADS.with(|c| c.replace(self.threads)));
        op()
    }

    /// The pool's configured thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
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

/// Splits `iter` into up to `current_threads()` contiguous parts and runs
/// `f` over each part's sequential iterator, returning the per-part results
/// in order. All parts but the last get a scoped thread each; the last runs
/// on the calling thread, which would otherwise only wait.
fn drive<I, R, F>(iter: I, f: &F) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Seq) -> R + Sync,
{
    let n = iter.pi_len();
    let workers = current_threads().min(n.max(1));
    if workers <= 1 {
        return vec![f(iter.pi_seq())];
    }
    let mut parts = Vec::with_capacity(workers - 1);
    let mut rest = iter;
    let mut remaining = n;
    for i in 0..workers - 1 {
        let share = remaining / (workers - i);
        let (head, tail) = rest.pi_split_at(share);
        parts.push(head);
        rest = tail;
        remaining -= share;
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    IN_WORKER.with(|c| c.set(true));
                    f(part.pi_seq())
                })
            })
            .collect();
        // A panic here unwinds out of the scope, which first joins the
        // spawned parts.
        let last = {
            let _worker = WorkerScope::enter();
            f(rest.pi_seq())
        };
        let mut results: Vec<R> = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect();
        results.push(last);
        results
    })
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

    #[test]
    fn last_part_runs_on_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let ids: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..3usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        let me = std::thread::current().id();
        assert_eq!(ids[2], me);
        assert!(ids[0] != me && ids[1] != me && ids[0] != ids[1]);
    }

    #[test]
    fn panic_in_the_inline_part_unwinds_through_install() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let me = std::thread::current().id();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..2usize).into_par_iter().for_each(|_| {
                    if std::thread::current().id() == me {
                        panic!("inline part");
                    }
                })
            })
        }));
        assert!(outcome.is_err());
        // The unwind restored both thread-locals: this thread is not a
        // worker and carries no pool level, so launches go parallel again.
        assert!(!IN_WORKER.with(Cell::get));
        assert_eq!(POOL_THREADS.with(Cell::get), 0);
        assert_eq!(pool.install(current_threads), 2);
    }

    #[test]
    fn nested_parallelism_flattens() {
        let outer: Vec<usize> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                // Inner launch runs serially inside a worker.
                (0..100usize).into_par_iter().map(move |j| i + j).count()
            })
            .collect();
        assert!(outer.iter().all(|&c| c == 100));
    }
}
