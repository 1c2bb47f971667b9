//! Property test: the fused dense layer kernel ≡ a naive scalar reference,
//! bitwise.
//!
//! [`linear2_act_into`] runs a compile-time-width row kernel for the output
//! widths the default model produces (1–6, 8, 12, 16, 20, 24) and the same
//! row arithmetic at runtime width for every other. The two must be the
//! same function: every width in the table and several outside it, with and
//! without the second operand, with the activation on (`slope == 0.1`) and
//! off (`1.0`), and with exact `0.0` and `-0.0` inputs (which the kernel
//! skips), must reproduce the reference bit for bit. The unrolling exists
//! only in optimized builds, so CI also runs this suite with `--release`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teal_nn::tensor::{linear2_act_into, linear_act_into, Tensor};

/// Widths with a compile-time kernel, then widths that take the fallback.
const WIDTHS: [usize; 15] = [1, 2, 3, 4, 5, 6, 8, 12, 16, 20, 24, 7, 9, 28, 32];

/// `leaky(x * w + bias)` one output element at a time: the bias first, then
/// the rows of `w` in order, skipping inputs that compare equal to zero —
/// the accumulation order and zero-skip the kernel promises.
fn reference(x: &Tensor, w: &Tensor, bias: &[f32], slope: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.rows() * w.cols());
    for i in 0..x.rows() {
        for (j, &bj) in bias.iter().enumerate() {
            let mut acc = bj;
            for kk in 0..x.cols() {
                let v = x.get(i, kk);
                if v != 0.0 {
                    acc += v * w.get(kk, j);
                }
            }
            if slope != 1.0 && acc < 0.0 {
                acc *= slope;
            }
            out.push(acc);
        }
    }
    out
}

/// Random values in (-1, 1), about a quarter of them an exact signed zero.
fn random_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f64..1.0) as f32,
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn assert_bitwise(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "{}: element {} is {} ({:#x}), reference {} ({:#x})",
            what,
            i,
            g,
            g.to_bits(),
            w,
            w.to_bits()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dense_kernel_matches_scalar_reference_bitwise(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for &n in &WIDTHS {
            let m = rng.gen_range(1..40);
            let k = rng.gen_range(1..30);
            let x = random_tensor(&mut rng, m, k);
            let w = random_tensor(&mut rng, k, n);
            let bias = random_tensor(&mut rng, 1, n);
            for slope in [1.0f32, 0.1] {
                let want = reference(&x, &w, bias.data(), slope);

                let mut out = vec![f32::NAN; m * n];
                linear_act_into(x.data(), k, &w, bias.data(), slope, &mut out);
                assert_bitwise(&out, &want, &format!("n={n} k={k} slope={slope} one operand"))?;

                // The same input split into [a | b], with and without an
                // empty first operand (an empty second one is the
                // `linear_act_into` call above).
                for a_cols in [0, k / 2] {
                    let b_cols = k - a_cols;
                    let mut a = Vec::with_capacity(m * a_cols);
                    let mut b = Vec::with_capacity(m * b_cols);
                    for i in 0..m {
                        a.extend_from_slice(&x.row(i)[..a_cols]);
                        b.extend_from_slice(&x.row(i)[a_cols..]);
                    }
                    let mut out = vec![f32::NAN; m * n];
                    linear2_act_into(&a, a_cols, &b, b_cols, &w, bias.data(), slope, &mut out);
                    assert_bitwise(
                        &out,
                        &want,
                        &format!("n={n} k={k} slope={slope} split at {a_cols}"),
                    )?;
                }
            }
        }
    }
}
