//! What `pool::map` promises, the twin of `pool_protocol`'s cases for
//! `run`: results come back in part order at any width, a part's `&mut`
//! slices are written in place, and a part's panic reaches the caller with
//! its own payload.
//!
//! `map`'s width is its caller's (`TEAL_NN_THREADS` does not cap it), so
//! every test here runs real helpers on any machine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread::ThreadId;
use std::time::Duration;
use teal_pool as pool;

#[test]
fn results_come_back_in_part_order() {
    const PARTS: usize = 8;
    let caller = std::thread::current().id();
    for threads in [1, 2, PARTS + 1] {
        let got: Vec<(usize, ThreadId)> = pool::map(threads, (0..PARTS).collect(), &|i| {
            // Early parts finish last, so completion order is not part order.
            std::thread::sleep(Duration::from_micros(50 * (PARTS - i) as u64));
            (i * i, std::thread::current().id())
        });
        let squares: Vec<usize> = got.iter().map(|&(sq, _)| sq).collect();
        assert_eq!(
            squares,
            (0..PARTS).map(|i| i * i).collect::<Vec<_>>(),
            "{threads} threads"
        );
        let mut ran_on: Vec<ThreadId> = got.iter().map(|&(_, id)| id).collect();
        ran_on.sort_by_key(|id| format!("{id:?}"));
        ran_on.dedup();
        assert!(
            ran_on.len() <= threads.min(PARTS),
            "{} threads ran parts under a width of {threads}",
            ran_on.len()
        );
        if threads == 1 {
            assert_eq!(ran_on, [caller], "a width of one left the caller");
        }
    }
    assert!(pool::map(4, Vec::<usize>::new(), &|_| -> usize { unreachable!() }).is_empty());
}

#[test]
fn parts_holding_mut_slices_are_written_in_place() {
    const CHUNK: usize = 7;
    let mut buf = vec![0u64; 100];
    let parts: Vec<(usize, &mut [u64])> = buf.chunks_mut(CHUNK).enumerate().collect();
    let lens = pool::map(3, parts, &|(c, chunk)| {
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = 3 * (c * CHUNK + j) as u64;
        }
        chunk.len()
    });
    assert_eq!(lens.iter().sum::<usize>(), 100);
    assert!(
        buf.iter().enumerate().all(|(i, &x)| x == 3 * i as u64),
        "a slice was not written in place"
    );
}

#[test]
fn a_helpers_panic_reaches_the_caller_with_its_payload() {
    let caller = std::thread::current().id();
    // Four parts held until four distinct threads, the caller and three
    // helpers, have one each; then one helper panics.
    let all_in = Barrier::new(4);
    let panicker_chosen = AtomicBool::new(false);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool::map(4, (0..4).collect(), &|i: usize| {
            all_in.wait();
            let helper = std::thread::current().id() != caller;
            if helper && !panicker_chosen.swap(true, Ordering::SeqCst) {
                panic!("part {i} exploded");
            }
            i
        })
    }));
    let payload = caught.expect_err("the map must re-panic on the caller");
    let text = payload.downcast_ref::<String>().expect("original payload");
    assert!(text.ends_with("exploded"), "payload replaced: {text:?}");
}
