//! CPU parallelism helpers.
//!
//! The paper's speed argument rests on neural-network inference being "one
//! fixed-cost batch of matrix multiplications" that parallel hardware chews
//! through. We stand in for the GPU with the persistent worker pool in
//! [`crate::pool`]: dense and sparse kernels split their output rows into
//! chunks once the problem is large enough to amortize the hand-off, and
//! pool workers (plus the calling thread) claim chunks from a shared
//! counter. No threads are spawned per call — the old crossbeam scoped
//! threads cost a spawn/join per kernel invocation, which the serving
//! daemon's request rate turns into real overhead.

use crate::pool;
use crate::tensor::{matmul_into, Tensor};

/// Work sizes below this many fused multiply-adds stay single-threaded.
const PAR_THRESHOLD: usize = 1 << 18;

/// Worker cap for the dense/sparse kernels. Defaults to the machine's
/// available parallelism; override with the `TEAL_NN_THREADS` environment
/// variable (values < 1 or unparsable fall back to the default).
pub fn max_threads() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match std::env::var("TEAL_NN_THREADS") {
            Ok(v) => v
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or(hw),
            Err(_) => hw,
        }
    })
}

/// Number of worker threads to use for a problem of `work` FLOPs.
fn thread_count(work: usize) -> usize {
    if work < PAR_THRESHOLD {
        return 1;
    }
    max_threads().max(1)
}

/// Disjoint `(start, ptr, len)` sub-slices handed to pool chunks by index.
///
/// SAFETY invariant: the recorded ranges never overlap, and the pool claims
/// each index exactly once, so reconstructing `&mut [T]` per index aliases
/// nothing.
struct RawChunks<T>(Vec<(usize, *mut T, usize)>);

// SAFETY: the table is read-only once built; each `(ptr, len)` range is
// disjoint (asserted at construction in debug builds) and claimed by
// exactly one pool chunk, so sending the table across threads cannot
// create aliasing `&mut`s.
unsafe impl<T: Send> Send for RawChunks<T> {}
// SAFETY: as above — shared access only reads the pointer table; the
// exclusive reconstructions it enables are pairwise disjoint.
unsafe impl<T: Send> Sync for RawChunks<T> {}

impl<T> RawChunks<T> {
    /// Checked-unsafe instrumentation: in debug/`teal_check` builds, verify
    /// the invariant the `Send`/`Sync` impls and `run_chunked`'s pointer
    /// reconstruction lean on — no two recorded ranges overlap. (The ranges
    /// come from `chunks_mut`, so this should be impossible; the assert
    /// keeps a future refactor from silently breaking it.)
    #[cfg(any(debug_assertions, teal_check))]
    fn assert_disjoint(&self) {
        // Pairwise O(n²) rather than sort-based: n is the pool chunk
        // count (a handful), and this must not heap-allocate — debug
        // builds run under the steady-state zero-allocation test.
        for (i, &(_, ptr, len)) in self.0.iter().enumerate() {
            let (lo, bytes) = (ptr as usize, len * std::mem::size_of::<T>());
            for &(_, q, m) in &self.0[i + 1..] {
                let (qlo, qbytes) = (q as usize, m * std::mem::size_of::<T>());
                assert!(
                    lo + bytes <= qlo || qlo + qbytes <= lo,
                    "RawChunks ranges overlap: [{lo:#x}; {bytes}) vs [{qlo:#x}; {qbytes})"
                );
            }
        }
    }
}

/// Run `f(start, chunk)` over the given disjoint mutable chunks on the pool.
fn run_chunked<T, F>(chunks: Vec<(usize, &mut [T])>, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let table = RawChunks(
        chunks
            .into_iter()
            .map(|(start, c)| (start, c.as_mut_ptr(), c.len()))
            .collect(),
    );
    #[cfg(any(debug_assertions, teal_check))]
    table.assert_disjoint();
    // Capture the Sync wrapper, not its inner Vec (precise closure capture
    // would otherwise grab the non-Sync field directly).
    let table = &table;
    pool::run(table.0.len(), &|i| {
        let (start, ptr, len) = table.0[i];
        // SAFETY: see `RawChunks` — disjoint ranges, one claim per index,
        // and the borrow that produced them is held across `pool::run`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
        f(start, chunk);
    });
}

/// Dense matmul that transparently parallelizes across output rows.
pub fn pmatmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows(), "pmatmul shape mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let threads = thread_count(m * n * k);
    let mut out = Tensor::zeros(m, n);
    if threads <= 1 || m < 2 {
        matmul_into(a, b, out.data_mut());
        return out;
    }
    let rows_per = m.div_ceil(threads);
    let chunks: Vec<(usize, &mut [f32])> = out
        .data_mut()
        .chunks_mut(rows_per * n)
        .enumerate()
        .map(|(i, c)| (i * rows_per, c))
        .collect();
    run_chunked(chunks, |lo, chunk| {
        let rows = chunk.len() / n;
        let sub = slice_rows(a, lo, rows);
        matmul_into(&sub, b, chunk);
    });
    out
}

/// Run `f(first_row, chunk)` over row-aligned mutable chunks of a row-major
/// buffer, in parallel when `work` (FLOPs) justifies it. Chunk boundaries
/// never split a row — required by the sparse kernels, whose per-row
/// accumulation must stay on one thread.
pub fn par_row_chunks_mut<F>(data: &mut [f32], row_width: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let width = row_width.max(1);
    let rows = data.len() / width;
    let threads = thread_count(work).min(rows.max(1));
    if threads <= 1 {
        f(0, data);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let chunks: Vec<(usize, &mut [f32])> = data
        .chunks_mut(rows_per * width)
        .enumerate()
        .map(|(i, c)| (i * rows_per, c))
        .collect();
    run_chunked(chunks, f);
}

/// Copy `rows` rows of `t` starting at `lo` into a new tensor.
fn slice_rows(t: &Tensor, lo: usize, rows: usize) -> Tensor {
    let n = t.cols();
    let data = t.data()[lo * n..(lo + rows) * n].to_vec();
    Tensor::from_vec(rows, n, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::tensor::matmul;
    use rand::Rng;

    #[test]
    fn pmatmul_matches_serial_small() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert!(pmatmul(&a, &b).approx_eq(&matmul(&a, &b), 1e-6));
    }

    #[test]
    fn pmatmul_matches_serial_large() {
        let mut rng = seeded(3);
        let a = Tensor::from_vec(
            257,
            64,
            (0..257 * 64).map(|_| rng.gen::<f32>() - 0.5).collect(),
        );
        let b = Tensor::from_vec(
            64,
            96,
            (0..64 * 96).map(|_| rng.gen::<f32>() - 0.5).collect(),
        );
        assert!(pmatmul(&a, &b).approx_eq(&matmul(&a, &b), 1e-4));
    }
}
