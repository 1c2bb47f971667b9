//! t-SNE projection of FlowGNN's learned flow embeddings (Figure 16).
//!
//! §5.8 visualizes the PathNode embeddings in 2-D and color-codes each point
//! by whether its path is "busy" — assigned the largest split ratio within
//! its demand by the optimal LP-all allocation. A visible busy cluster means
//! FlowGNN has "roughly captured path congestion within the network".
//!
//! This module implements standard t-SNE (Gaussian input affinities with a
//! per-point perplexity search, Student-t output kernel, momentum gradient
//! descent with early exaggeration) plus the busy-path labeling and a
//! scalar cluster-separation score so the figure's qualitative claim becomes
//! a testable number.

use teal_lp::Allocation;
use teal_nn::{rng, Tensor};

/// Target perplexity of the input Gaussian affinities.
const PERPLEXITY: f64 = 20.0;
/// Gradient-descent iterations.
const ITERS: usize = 250;
/// Learning rate.
const LR: f64 = 100.0;
/// RNG seed for the initial layout.
const SEED: u64 = 0x75e_e001;

/// Project `[n, d]` embeddings to 2-D with t-SNE. Returns `n` (x, y) points.
pub fn tsne(embeddings: &Tensor) -> Vec<(f64, f64)> {
    let n = embeddings.rows();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![(0.0, 0.0)];
    }
    let p = joint_affinities(embeddings);

    // Initial layout: small Gaussian noise.
    let mut rng = rng::seeded(SEED);
    let mut y = vec![(0.0f64, 0.0f64); n];
    for pt in &mut y {
        pt.0 = rng::normal(&mut rng) * 1e-2;
        pt.1 = rng::normal(&mut rng) * 1e-2;
    }
    let mut vel = vec![(0.0f64, 0.0f64); n];

    for it in 0..ITERS {
        let exaggeration = if it < ITERS / 4 { 4.0 } else { 1.0 };
        let momentum = if it < ITERS / 4 { 0.5 } else { 0.8 };
        // Student-t output affinities.
        let mut qnum = vec![0.0f64; n * n];
        let mut qsum = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = y[i].0 - y[j].0;
                let dy = y[i].1 - y[j].1;
                let q = 1.0 / (1.0 + dx * dx + dy * dy);
                qnum[i * n + j] = q;
                qnum[j * n + i] = q;
                qsum += 2.0 * q;
            }
        }
        qsum = qsum.max(1e-12);
        // Gradient.
        for i in 0..n {
            let mut gx = 0.0f64;
            let mut gy = 0.0f64;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let qn = qnum[i * n + j];
                let pij = exaggeration * p[i * n + j];
                let qij = qn / qsum;
                let coef = 4.0 * (pij - qij) * qn;
                gx += coef * (y[i].0 - y[j].0);
                gy += coef * (y[i].1 - y[j].1);
            }
            vel[i].0 = momentum * vel[i].0 - LR * gx;
            vel[i].1 = momentum * vel[i].1 - LR * gy;
        }
        for i in 0..n {
            y[i].0 += vel[i].0;
            y[i].1 += vel[i].1;
        }
        // Re-center.
        let (mx, my) = y.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
        let (mx, my) = (mx / n as f64, my / n as f64);
        for pt in &mut y {
            pt.0 -= mx;
            pt.1 -= my;
        }
    }
    y
}

/// Symmetrized input affinities `P` with per-point bandwidth matched to the
/// target perplexity via binary search.
fn joint_affinities(x: &Tensor) -> Vec<f64> {
    let n = x.rows();
    let d = x.cols();
    let mut dist2 = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let mut s = 0.0f64;
            for c in 0..d {
                let diff = (x.get(i, c) - x.get(j, c)) as f64;
                s += diff * diff;
            }
            dist2[i * n + j] = s;
            dist2[j * n + i] = s;
        }
    }
    let target_entropy = PERPLEXITY.min((n - 1) as f64).max(2.0).ln();
    let mut p = vec![0.0f64; n * n];
    for i in 0..n {
        let row = &dist2[i * n..(i + 1) * n];
        let (mut lo, mut hi) = (1e-20f64, 1e20f64);
        let mut beta = 1.0f64;
        for _ in 0..60 {
            let mut sum = 0.0f64;
            let mut entsum = 0.0f64;
            for (j, &d2) in row.iter().enumerate() {
                if j == i {
                    continue;
                }
                let e = (-beta * d2).exp();
                sum += e;
                entsum += beta * d2 * e;
            }
            let entropy = if sum > 0.0 {
                sum.ln() + entsum / sum
            } else {
                0.0
            };
            if (entropy - target_entropy).abs() < 1e-5 {
                break;
            }
            if entropy > target_entropy {
                lo = beta;
                beta = if hi >= 1e20 {
                    beta * 2.0
                } else {
                    (beta + hi) / 2.0
                };
            } else {
                hi = beta;
                beta = (beta + lo) / 2.0;
            }
        }
        let mut sum = 0.0f64;
        for (j, &d2) in row.iter().enumerate() {
            if j != i {
                let e = (-beta * d2).exp();
                p[i * n + j] = e;
                sum += e;
            }
        }
        if sum > 0.0 {
            for j in 0..n {
                p[i * n + j] /= sum;
            }
        }
    }
    // Symmetrize: P = (P + P^T) / 2n.
    let mut sym = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            sym[i * n + j] = ((p[i * n + j] + p[j * n + i]) / (2.0 * n as f64)).max(1e-12);
        }
    }
    sym
}

/// Figure 16's labels: for each demand, the candidate path that receives the
/// largest split ratio in the reference (LP-all) allocation is "busy".
/// Returns one bool per path slot.
pub fn busy_path_labels(reference: &Allocation) -> Vec<bool> {
    let k = reference.k();
    let mut labels = vec![false; reference.num_demands() * k];
    for d in 0..reference.num_demands() {
        let row = reference.demand_splits(d);
        let mut best = 0usize;
        for j in 1..k {
            if row[j] > row[best] {
                best = j;
            }
        }
        if row[best] > 0.0 {
            labels[d * k + best] = true;
        }
    }
    labels
}

/// Cluster-separation score of a labeled 2-D layout: distance between class
/// centroids divided by the mean intra-class spread. Values well above 0
/// indicate the busy cluster Figure 16 shows.
pub fn separation_score(points: &[(f64, f64)], labels: &[bool]) -> f64 {
    assert_eq!(points.len(), labels.len());
    let centroid = |class: bool| -> Option<((f64, f64), f64)> {
        let members: Vec<&(f64, f64)> = points
            .iter()
            .zip(labels)
            .filter(|(_, &l)| l == class)
            .map(|(p, _)| p)
            .collect();
        if members.is_empty() {
            return None;
        }
        let n = members.len() as f64;
        let cx = members.iter().map(|p| p.0).sum::<f64>() / n;
        let cy = members.iter().map(|p| p.1).sum::<f64>() / n;
        let spread = members
            .iter()
            .map(|p| ((p.0 - cx).powi(2) + (p.1 - cy).powi(2)).sqrt())
            .sum::<f64>()
            / n;
        Some(((cx, cy), spread))
    };
    match (centroid(true), centroid(false)) {
        (Some(((ax, ay), sa)), Some(((bx, by), sb))) => {
            let d = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
            d / ((sa + sb) / 2.0).max(1e-12)
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian blobs in 5-D.
    fn blobs(n_per: usize) -> (Tensor, Vec<bool>) {
        let mut rng = rng::seeded(3);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2 {
            let offset = if c == 0 { -4.0 } else { 4.0 };
            for _ in 0..n_per {
                for _ in 0..5 {
                    data.push((offset + rng::normal(&mut rng) * 0.3) as f32);
                }
                labels.push(c == 0);
            }
        }
        (Tensor::from_vec(2 * n_per, 5, data), labels)
    }

    #[test]
    fn tsne_separates_blobs() {
        let (x, labels) = blobs(30);
        let pts = tsne(&x);
        let score = separation_score(&pts, &labels);
        assert!(
            score > 2.0,
            "separation score {score} too low for clean blobs"
        );
    }

    #[test]
    fn tsne_trivial_sizes() {
        assert!(tsne(&Tensor::zeros(0, 3)).is_empty());
        assert_eq!(tsne(&Tensor::zeros(1, 3)), vec![(0.0, 0.0)]);
    }

    #[test]
    fn busy_labels_one_per_demand() {
        let alloc = Allocation::from_splits(
            4,
            vec![
                0.1, 0.6, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.25,
            ],
        );
        let labels = busy_path_labels(&alloc);
        assert_eq!(labels.iter().filter(|&&b| b).count(), 2); // all-zero demand has none
        assert!(labels[1]); // index of the 0.6 split
    }

    #[test]
    fn separation_score_degenerate() {
        let pts = vec![(0.0, 0.0), (1.0, 1.0)];
        assert_eq!(separation_score(&pts, &[true, true]), 0.0);
    }
}
