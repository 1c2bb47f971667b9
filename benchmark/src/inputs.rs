//! Everything the run seed decides: which matrices share a window, which
//! links fail, the request order, the open-loop mix and arrival schedule.
//! The benchmark owns its generator, so inputs depend on nothing but the
//! seed and this file.

use crate::spec;

/// SplitMix64: small, fast, and fixed here for good.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per use by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponential with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// `count` distinct values drawn from `0..n`.
    pub fn distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut p = self.permutation(n);
        p.truncate(count);
        p
    }
}

/// Which input a socket request carries: topology, matrix of that
/// topology's pool, and failed-link signature (`None` = plain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key {
    pub topo: usize,
    pub tm: usize,
    pub sig: Option<usize>,
}

/// Failed-link signatures drawn per topology for the socket workloads.
pub const SIGNATURES: usize = 2;

impl Key {
    /// Dense index over `(topo, tm, sig)` for a pool of `pool` matrices.
    pub fn index(self, pool: usize) -> usize {
        (self.topo * pool + self.tm) * (SIGNATURES + 1) + self.sig.map_or(0, |s| s + 1)
    }
}

/// Tenant tags of the open-loop mix.
pub const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    Request {
        key: Key,
        /// Carries the 20 ms deadline.
        deadlined: bool,
        tenant: usize,
    },
    /// One `STATS` scrape per second of schedule.
    Scrape,
}

/// One open-loop send: when it is due (ns from schedule start), on which
/// connection, and what.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scheduled {
    pub due_ns: u64,
    pub conn: usize,
    pub what: Arrival,
}

/// Requests per topology and signature in the burst that opens the open
/// loop: `ServeConfig::default().max_batch`.
pub const BURST: usize = 16;

/// The open-loop schedule: exactly `rate x seconds` arrivals of a Poisson
/// process at the constant [`spec::OPEN_LOOP_RATE_PER_S`] (exponential gaps
/// scaled to fill the horizon, so every seed offers the same load), 70%
/// plain / 20% deadline'd / 10% failed-link over `topos` topologies with
/// `pool` matrices each, three tenants, connections alternating, and a
/// scrape at every whole second. Before them, due at once, [`BURST`]
/// requests for every topology, plain and per failed-link signature: full
/// windows, so the daemon's arenas reach their full size in the warm-up and
/// peak memory does not follow the largest window a run happens to
/// coalesce later.
pub fn open_schedule(
    seed: u64,
    seconds: f64,
    topos: usize,
    pool: usize,
    conns: usize,
) -> Vec<Scheduled> {
    let mut rng = Rng::new(seed, 0x0be4);
    let arrivals = (spec::OPEN_LOOP_RATE_PER_S * seconds) as usize;
    // n + 1 exponential gaps, normalised: n uniform order statistics.
    let gaps: Vec<f64> = (0..=arrivals).map(|_| rng.exponential(1.0)).collect();
    let total: f64 = gaps.iter().sum();
    let mut out = Vec::with_capacity(arrivals + seconds as usize);
    for topo in 0..topos {
        for sig in [None].into_iter().chain((0..SIGNATURES).map(Some)) {
            out.extend((0..BURST).map(|i| Scheduled {
                due_ns: 0,
                conn: i % conns,
                what: Arrival::Request {
                    key: Key {
                        topo,
                        tm: i % pool,
                        sig,
                    },
                    deadlined: false,
                    tenant: 0,
                },
            }));
        }
    }
    let mut t = 0.0f64;
    let mut next_scrape_ns = 1_000_000_000u64;
    for (i, gap) in gaps[..arrivals].iter().enumerate() {
        t += gap;
        let due_ns = (t / total * seconds * 1e9) as u64;
        while next_scrape_ns <= due_ns {
            out.push(Scheduled {
                due_ns: next_scrape_ns,
                conn: 0,
                what: Arrival::Scrape,
            });
            next_scrape_ns += 1_000_000_000;
        }
        let mix = rng.unit();
        let key = Key {
            topo: rng.below(topos),
            tm: rng.below(pool),
            sig: (mix >= 0.9).then(|| rng.below(SIGNATURES)),
        };
        out.push(Scheduled {
            due_ns,
            conn: i % conns,
            what: Arrival::Request {
                key,
                deadlined: (0.7..0.9).contains(&mix),
                tenant: rng.below(TENANTS.len()),
            },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_schedule_is_a_function_of_the_seed() {
        let a = open_schedule(7, 5.0, 2, 32, 2);
        assert_eq!(a, open_schedule(7, 5.0, 2, 32, 2));
        assert_ne!(a, open_schedule(11, 5.0, 2, 32, 2));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn open_schedule_has_the_stated_rate_and_mix() {
        let s = open_schedule(3, 100.0, 2, 32, 2);
        let scrapes = s.iter().filter(|x| x.what == Arrival::Scrape).count();
        assert!((98..=99).contains(&scrapes), "scrapes {scrapes}");
        let reqs: Vec<_> = s
            .iter()
            .filter_map(|x| match x.what {
                Arrival::Request { key, deadlined, .. } => Some((key, deadlined)),
                Arrival::Scrape => None,
            })
            .collect();
        let burst = 2 * (SIGNATURES + 1) * BURST;
        assert!(s[..burst].iter().all(|x| x.due_ns == 0));
        let reqs = &reqs[burst..];
        let n = reqs.len() as f64;
        assert_eq!(n, 100.0 * spec::OPEN_LOOP_RATE_PER_S);
        let deadlined = reqs.iter().filter(|r| r.1).count() as f64 / n;
        let failed = reqs.iter().filter(|r| r.0.sig.is_some()).count() as f64 / n;
        assert!((deadlined - 0.2).abs() < 0.02, "deadlined {deadlined}");
        assert!((failed - 0.1).abs() < 0.02, "failed {failed}");
        assert!(reqs.iter().all(|r| !(r.1 && r.0.sig.is_some())));
    }

    #[test]
    fn permutation_and_distinct_cover_their_range() {
        let mut rng = Rng::new(5, 1);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
        let d = rng.distinct(10, 4);
        assert_eq!(d.len(), 4);
        assert!(d.iter().all(|&x| x < 10));
        let mut u = d.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 4);
    }
}
