//! Property tests: the lanes of an [`AdmmBatchSolver`] are independent.
//!
//! The batched sweep is a layout/parallelism transformation — no ADMM
//! quantity couples two matrices — so a batch of `B` must reproduce
//! *bitwise* what `B` batch-of-1 runs produce: same splits, same residuals,
//! same iteration counts under early stopping (the convergence mask), on
//! random topologies, heterogeneous demand volumes, both linear objectives,
//! and failure-modified (zero-capacity) capacity vectors. In the spirit of
//! the commutativity-rule line of work, lanes commute by construction and
//! that is machine-checked here.
//!
//! Lane independence compares the solver with itself, so two more checks
//! guard the arithmetic. The solver keeps Appendix C's per-(path, edge)
//! `z`/`λ4` only as per-edge scalars; `common/twin.rs` is the appendix
//! written out literally, per entry, and every generator below is also run
//! against it: same iteration counts, splits and residuals to 1e-9 — and
//! the twin itself asserts the identity the collapse rests on. A pinned
//! golden hash then fails on any change to a sweep that moves one output
//! bit (`pinned_golden_hashes`). The optimum itself is checked against
//! simplex, an independent algorithm, in the `admm.rs` unit tests.

#[path = "common/twin.rs"]
mod twin;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teal_lp::{
    AdmmBatchSolver, AdmmConfig, AdmmReport, AdmmSkeleton, Allocation, BatchArena, Objective,
};
use teal_topology::{gravity_pairs, large_wan, PathSet, Topology};
use teal_traffic::TrafficMatrix;

/// The batch sizes the issue calls out: singleton, tiny, odd, and a full
/// serving window.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 16];

/// Random connected topology: a ring (guarantees strong connectivity) plus
/// random chords, with heterogeneous capacities.
fn random_topology(n: usize, extra_links: usize, rng: &mut StdRng) -> Topology {
    let mut t = Topology::new("rand", n);
    for a in 0..n {
        let b = (a + 1) % n;
        t.add_link(a, b, rng.gen_range(5.0..60.0), rng.gen_range(1.0..3.0));
    }
    for _ in 0..extra_links {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !t.has_link(a, b) {
            t.add_link(a, b, rng.gen_range(5.0..60.0), rng.gen_range(1.0..3.0));
        }
    }
    t
}

/// A random problem: topology, candidate paths for a sampled demand set,
/// and the objective under test.
fn random_problem(seed: u64, obj: Objective) -> (Topology, PathSet, AdmmSkeleton, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..9);
    let topo = random_topology(n, rng.gen_range(0..2 * n), &mut rng);
    let mut pairs = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b && rng.gen_range(0.0..1.0) < 0.35 {
                pairs.push((a, b));
            }
        }
    }
    if pairs.is_empty() {
        pairs.push((0, n / 2 + 1));
    }
    pairs.truncate(10);
    let k = rng.gen_range(2..5);
    let paths = PathSet::compute(&topo, &pairs, k);
    let skel = AdmmSkeleton::new(&topo, &paths, obj);
    let nd = paths.num_demands();
    (topo, paths, skel, nd, k)
}

/// Heterogeneous traffic window: volumes span zero, light, and saturating,
/// so lanes behave differently (and converge at different iterations).
fn random_window(nb: usize, nd: usize, rng: &mut StdRng) -> Vec<TrafficMatrix> {
    (0..nb)
        .map(|_| {
            TrafficMatrix::new(
                (0..nd)
                    .map(|_| {
                        if rng.gen_range(0.0..1.0) < 0.15 {
                            0.0
                        } else {
                            rng.gen_range(0.1..80.0)
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Random (pre-projection) warm starts, like a raw model output.
fn random_inits(nb: usize, nd: usize, k: usize, rng: &mut StdRng) -> Vec<Allocation> {
    (0..nb)
        .map(|_| Allocation::from_splits(k, (0..nd * k).map(|_| rng.gen_range(0.0..1.2)).collect()))
        .collect()
}

/// One batched run on a fresh solver, arena and output buffers.
fn run_fresh(
    skel: &AdmmSkeleton,
    tms: &[TrafficMatrix],
    inits: &[Allocation],
    cfg: AdmmConfig,
) -> (Vec<Allocation>, Vec<AdmmReport>) {
    let (mut outs, mut reps) = (Vec::new(), Vec::new());
    skel.batch_solver(tms)
        .run_batch_into(inits, cfg, &mut BatchArena::new(), &mut outs, &mut reps);
    (outs, reps)
}

/// Core assertion: one batched run ≡ `nb` batch-of-1 runs, bit for bit —
/// splits, iteration counts (exercised by tol > 0 configs) and residuals.
fn assert_lanes_independent(
    skel: &AdmmSkeleton,
    tms: &[TrafficMatrix],
    inits: &[Allocation],
    cfg: AdmmConfig,
) -> Result<(), String> {
    let (outs, reps) = run_fresh(skel, tms, inits, cfg);
    for (b, tm) in tms.iter().enumerate() {
        let (want, wrep) = skel.solve(tm, &inits[b], cfg);
        prop_assert_eq!(
            reps[b].iterations,
            wrep.iterations,
            "lane {} iterations: batched {} vs batch-of-1 {}",
            b,
            reps[b].iterations,
            wrep.iterations
        );
        prop_assert!(
            reps[b].primal_residual.to_bits() == wrep.primal_residual.to_bits()
                && reps[b].dual_residual.to_bits() == wrep.dual_residual.to_bits(),
            "lane {} residuals: batched {:?} vs batch-of-1 {:?}",
            b,
            reps[b],
            wrep
        );
        for (p, (x, y)) in outs[b].splits().iter().zip(want.splits()).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "lane {} split {}: batched {} vs batch-of-1 {}",
                b,
                p,
                x,
                y
            );
        }
    }
    Ok(())
}

/// The production solver against the literal Appendix C twin, lane by
/// lane: equal iteration counts, splits and residuals within 1e-9, and the
/// twin's per-entry `λ4`/`z − F·v` uniform per edge to 1e-12 after every
/// iteration (the identity that lets the solver store them per edge).
fn assert_matches_twin(
    topo: &Topology,
    paths: &PathSet,
    obj: Objective,
    skel: &AdmmSkeleton,
    tms: &[TrafficMatrix],
    inits: &[Allocation],
    cfg: AdmmConfig,
) -> Result<(), String> {
    let (outs, reps) = run_fresh(skel, tms, inits, cfg);
    for (b, tm) in tms.iter().enumerate() {
        let want = twin::solve(topo, paths, obj, tm, &inits[b], cfg);
        prop_assert!(
            want.identity_gap <= 1e-12,
            "lane {}: twin λ4 / z − F·v spread {:e} across one edge's paths",
            b,
            want.identity_gap
        );
        prop_assert_eq!(
            reps[b].iterations,
            want.iterations,
            "lane {} iterations: solver {} vs twin {}",
            b,
            reps[b].iterations,
            want.iterations
        );
        prop_assert!(
            (reps[b].primal_residual - want.primal).abs() <= 1e-9
                && (reps[b].dual_residual - want.dual).abs() <= 1e-9,
            "lane {} residuals: solver {:?} vs twin primal {} dual {}",
            b,
            reps[b],
            want.primal,
            want.dual
        );
        for (p, (x, y)) in outs[b].splits().iter().zip(want.alloc.splits()).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-9,
                "lane {} split {}: solver {} vs twin {}",
                b,
                p,
                x,
                y
            );
        }
    }
    Ok(())
}

/// FNV-1a over the little-endian bytes of `word`.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hash of one seeded 5-lane window's outputs: every lane's iteration count
/// followed by the bits of its splits.
fn golden_hash(seed: u64, cfg: AdmmConfig) -> u64 {
    let (_topo, _paths, skel, nd, k) = random_problem(seed, Objective::TotalFlow);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x601d);
    let tms = random_window(5, nd, &mut rng);
    let inits = random_inits(5, nd, k, &mut rng);
    let (outs, reps) = run_fresh(&skel, &tms, &inits, cfg);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (out, rep) in outs.iter().zip(&reps) {
        fnv(&mut hash, rep.iterations as u64);
        for s in out.splits() {
            fnv(&mut hash, s.to_bits());
        }
    }
    hash
}

/// The batched arithmetic, pinned: three seeded instances (one under the
/// paper's fixed 5-iteration fine-tune, two run to `tol` through the
/// convergence mask) must hash to the values `AdmmBatchSolver` produced at
/// the commit that collapsed the per-(path, edge) `z`/`λ4` families to
/// per-edge scalars — new rounding, hence new pins; the twin suite above
/// is the independent check that the arithmetic behind them is still
/// Appendix C's. Identical in debug and release and for every
/// `TEAL_NN_THREADS`.
#[test]
fn pinned_golden_hashes() {
    let fixed = AdmmConfig::fine_tune(200);
    let masked = AdmmConfig::to_convergence().with_max_iters(300);
    for (seed, cfg, want) in [
        (11u64, fixed, 0xb34e_9d00_5fee_5adcu64),
        (4242, masked, 0x638b_9dcd_5c36_f893),
        (987_654, masked, 0x9e29_7fa8_7089_5255),
    ] {
        let got = golden_hash(seed, cfg);
        assert_eq!(
            got, want,
            "seed {seed}: batched ADMM output hash {got:#018x}, pinned {want:#018x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Paper fine-tuning setting (fixed 2–5 iterations, no early stop),
    /// TotalFlow, all four batch sizes.
    #[test]
    fn fine_tune_total_flow_lanes_independent(seed in 0u64..1_000_000, iters in 2usize..6) {
        let (_topo, _paths, skel, nd, k) = random_problem(seed, Objective::TotalFlow);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c);
        let cfg = AdmmConfig { rho: 1.0, max_iters: iters, tol: 0.0 };
        for &nb in &BATCH_SIZES {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_lanes_independent(&skel, &tms, &inits, cfg)?;
        }
    }

    /// Delay-penalized objective: the demand sweep forms each lane's
    /// objective coefficient as volume × the shared per-path discount; the
    /// batched lanes must see exactly the same discounted coefficients.
    #[test]
    fn fine_tune_delay_penalized_lanes_independent(seed in 0u64..1_000_000, gamma in 0.05f64..0.9) {
        let (_topo, _paths, skel, nd, k) =
            random_problem(seed, Objective::DelayPenalizedFlow(gamma));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xde1a);
        let cfg = AdmmConfig { rho: 1.0, max_iters: 4, tol: 0.0 };
        for &nb in &BATCH_SIZES {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_lanes_independent(&skel, &tms, &inits, cfg)?;
        }
    }

    /// Early stopping: tol > 0 makes lanes drop out of the sweeps at
    /// different iterations — the convergence mask must freeze each lane
    /// exactly where its own batch-of-1 run would stop.
    #[test]
    fn convergence_mask_matches_early_stopping(seed in 0u64..1_000_000) {
        let (_topo, _paths, skel, nd, k) = random_problem(seed, Objective::TotalFlow);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70f1);
        let cfg = AdmmConfig { rho: 1.0, max_iters: 300, tol: 1e-4 };
        for &nb in &[2usize, 7] {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_lanes_independent(&skel, &tms, &inits, cfg)?;
        }
    }

    /// Failure topologies (§5.3): random links zeroed through
    /// `AdmmSkeleton::with_topology` — lanes stay independent on the
    /// degraded capacity vector too.
    #[test]
    fn failed_links_lanes_independent(seed in 0u64..1_000_000, fail_frac in 0.05f64..0.4) {
        let (topo, _paths, skel, nd, k) = random_problem(seed, Objective::TotalFlow);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa11);
        let failed: Vec<usize> = (0..topo.num_edges())
            .filter(|_| rng.gen_range(0.0..1.0) < fail_frac)
            .collect();
        let degraded = topo.with_failed_edges(&failed);
        let skel = skel.with_topology(&degraded);
        let cfg = AdmmConfig { rho: 1.0, max_iters: 5, tol: 0.0 };
        for &nb in &[1usize, 7] {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_lanes_independent(&skel, &tms, &inits, cfg)?;
        }
    }

    /// Fixed 2–5 iterations (the paper's fine-tune) against the literal
    /// twin: both linear objectives, zero-volume demands (`random_window`),
    /// and — every other case — random links failed to zero capacity.
    #[test]
    fn fixed_iterations_match_appendix_c_twin(
        seed in 0u64..1_000_000,
        iters in 2usize..6,
        gamma in 0.05f64..0.9,
        fail_frac in 0.05f64..0.4,
    ) {
        let obj = if seed % 2 == 0 {
            Objective::TotalFlow
        } else {
            Objective::DelayPenalizedFlow(gamma)
        };
        let (mut topo, paths, mut skel, nd, k) = random_problem(seed, obj);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e17);
        if seed % 4 < 2 {
            let failed: Vec<usize> = (0..topo.num_edges())
                .filter(|_| rng.gen_range(0.0..1.0) < fail_frac)
                .collect();
            topo = topo.with_failed_edges(&failed);
            skel = skel.with_topology(&topo);
        }
        let cfg = AdmmConfig { rho: 1.0, max_iters: iters, tol: 0.0 };
        let tms = random_window(5, nd, &mut rng);
        let inits = random_inits(5, nd, k, &mut rng);
        assert_matches_twin(&topo, &paths, obj, &skel, &tms, &inits, cfg)?;
    }

    /// Run to `tol` through the convergence mask (lanes stop anywhere from
    /// tens to thousands of iterations in): each lane must stop at the
    /// iteration the twin stops at, with the twin's answer.
    #[test]
    fn convergence_matches_appendix_c_twin(seed in 0u64..1_000_000, gamma in 0.05f64..0.9) {
        let obj = if seed % 2 == 0 {
            Objective::TotalFlow
        } else {
            Objective::DelayPenalizedFlow(gamma)
        };
        let (topo, paths, skel, nd, k) = random_problem(seed, obj);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0e7);
        let cfg = AdmmConfig::to_convergence();
        let tms = random_window(5, nd, &mut rng);
        let inits = random_inits(5, nd, k, &mut rng);
        assert_matches_twin(&topo, &paths, obj, &skel, &tms, &inits, cfg)?;
    }

    /// Arena reuse across windows: one retained [`BatchArena`] + solver +
    /// output buffers serving a sequence of windows (batch sizes shrink and
    /// grow, and the skeleton's capacity vector is swapped mid-sequence —
    /// the lp-level analog of a serving hot swap) must produce *bitwise*
    /// what a fresh solver and arena produce for each window. Nothing may
    /// leak from one window's state into the next through the arena.
    #[test]
    fn arena_reuse_across_windows_matches_fresh(seed in 0u64..1_000_000) {
        let (topo, _paths, skel, nd, k) = random_problem(seed, Objective::TotalFlow);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa12e);
        // tol > 0 so the convergence mask (and its all-lanes fast path
        // hand-off) is exercised across reused buffers.
        let cfg = AdmmConfig { rho: 1.0, max_iters: 60, tol: 1e-4 };
        let degraded = topo.with_failed_edges(&[0]);
        let swapped = skel.with_topology(&degraded);
        let mut arena = BatchArena::new();
        let mut outs = Vec::new();
        let mut reports = Vec::new();
        let mut solver: Option<AdmmBatchSolver> = None;
        for (w, &nb) in [3usize, 7, 1, 7, 4].iter().enumerate() {
            // Swap to the degraded capacities from window 2 on; the arena
            // and output buffers carry over untouched.
            let skel_w = if w >= 2 { &swapped } else { &skel };
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            match solver.as_mut() {
                Some(s) => skel_w.remint_batch_solver(s, &tms),
                None => solver = Some(skel_w.batch_solver(&tms)),
            }
            solver.as_ref().expect("minted").run_batch_into(
                &inits, cfg, &mut arena, &mut outs, &mut reports,
            );
            let (fresh_outs, fresh_reps) = run_fresh(skel_w, &tms, &inits, cfg);
            prop_assert_eq!(outs.len(), nb);
            for b in 0..nb {
                prop_assert_eq!(
                    reports[b].iterations, fresh_reps[b].iterations,
                    "window {} lane {}: reused-arena iterations diverged", w, b
                );
                for (p, (x, y)) in outs[b].splits().iter().zip(fresh_outs[b].splits()).enumerate() {
                    prop_assert!(
                        x == y,
                        "window {} lane {} split {}: reused {} vs fresh {}",
                        w, b, p, x, y
                    );
                }
            }
        }
    }

    /// Generated large-WAN instances: the flat path/edge index arena built
    /// from scale-free topologies (hub edges carry hundreds of paths, so
    /// per-edge entry runs are long and uneven) must preserve lane
    /// independence just like the small ring instances.
    #[test]
    fn large_wan_lanes_independent(seed in 0u64..1_000_000, n in 64usize..128) {
        let topo = large_wan(n, seed);
        let pairs = gravity_pairs(&topo, 2 * n, seed ^ 0x1a2);
        let paths = PathSet::compute(&topo, &pairs, 3);
        let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
        let (nd, k) = (paths.num_demands(), paths.k());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a3);
        let cfg = AdmmConfig { rho: 1.0, max_iters: 3, tol: 0.0 };
        for &nb in &[1usize, 4] {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_lanes_independent(&skel, &tms, &inits, cfg)?;
        }
    }
}
