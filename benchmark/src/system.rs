//! Set-up: from nothing to "first operation possible". Every stage calls
//! one layer's public constructor under a span, so the untraced run times
//! the whole (`setup_s`) and the traced run splits it by layer.

use crate::inputs::{Rng, SIGNATURES};
use crate::span::{SpanId, Tracer};
use crate::spec;
use std::sync::Arc;
use std::time::{Duration, Instant};
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{ModelRegistry, ServeConfig, ServeDaemon, TealClient, TealServer};
use teal_topology::{b4, generate, gravity_pairs, large_wan, PathSet, TopoKind, Topology};
use teal_traffic::{TrafficConfig, TrafficMatrix, TrafficModel};

/// Candidate paths per demand (the paper's and the repository's default).
const K_PATHS: usize = 4;

/// Matrices in each socket topology's pool.
pub const SOCKET_POOL: usize = 32;

/// Connections every socket workload uses.
pub const CONNECTIONS: usize = 2;

/// One topology ready to serve: environment, context, and its traffic.
pub struct Context {
    pub env: Arc<Env>,
    pub ctx: ServingContext<TealModel>,
    pub pool: Vec<TrafficMatrix>,
}

/// Paths, traffic pool, `Env`, the seeded untrained model with
/// `TealConfig::default()`, and the context (which builds the ADMM
/// skeleton) for `topo`.
fn build_context(
    topo: Topology,
    pairs: &[(usize, usize)],
    pool: usize,
    traffic_salt: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Context {
    let paths = tracer.time("topology.paths.ksp", 0, parent, || {
        PathSet::compute(&topo, pairs, K_PATHS)
    });
    let nodes = topo.num_nodes();
    let env = tracer.time("core.env.build", 0, parent, || {
        Arc::new(Env::new(topo, paths))
    });
    let pool = tracer.time("traffic.gen.series", 0, parent, || {
        let mut traffic = TrafficModel::new(
            pairs,
            TrafficConfig::default(),
            spec::TRAFFIC_SEED ^ traffic_salt,
        );
        traffic.calibrate(env.topo(), env.paths());
        traffic.series(0, pool)
    });
    let model = tracer.time("core.model.init", 0, parent, || {
        TealModel::new(Arc::clone(&env), TealConfig::default())
    });
    let ctx = tracer.time("lp.admm.skeleton_build", 0, parent, || {
        ServingContext::new(model, EngineConfig::paper_default(nodes))
    });
    Context { env, ctx, pool }
}

/// `large_wan(nodes)` with `2 * nodes` gravity pairs and `pool` matrices.
pub fn build_wan(nodes: usize, pool: usize, tracer: &mut Tracer, parent: SpanId) -> Context {
    let (topo, pairs) = tracer.time("topology.gen.build", 0, parent, || {
        let topo = large_wan(nodes, spec::TOPOLOGY_SEED);
        let pairs = gravity_pairs(&topo, 2 * nodes, spec::TOPOLOGY_SEED ^ 1);
        (topo, pairs)
    });
    build_context(topo, &pairs, pool, nodes as u64, tracer, parent)
}

/// `count` distinct seeded links of `topo` to fail, as node pairs.
pub fn draw_failed_links(topo: &Topology, rng: &mut Rng, count: usize) -> Vec<(usize, usize)> {
    // Each bidirectional link is two directed edges; draw among the links.
    let links: Vec<(usize, usize)> = topo
        .edges()
        .iter()
        .filter(|e| e.src < e.dst)
        .map(|e| (e.src, e.dst))
        .collect();
    rng.distinct(links.len(), count)
        .into_iter()
        .map(|i| links[i])
        .collect()
}

/// Candidate paths crossing a zero-capacity link of `topo`: what the
/// engine zeroes after fine-tuning on a failed-link call.
pub fn dead_path_ids(env: &Env, topo: &Topology) -> Vec<u32> {
    let dead_edge: Vec<bool> = topo.edges().iter().map(|e| e.capacity <= 0.0).collect();
    env.paths()
        .paths()
        .iter()
        .enumerate()
        .filter(|(_, path)| path.edges.iter().any(|&e| dead_edge[e]))
        .map(|(p, _)| p as u32)
        .collect()
}

/// One registered topology of the serving system, with what the load
/// generator and the checks need to know about it.
pub struct ServedTopology {
    pub id: &'static str,
    pub ctx: Arc<ServingContext<TealModel>>,
    pub pool: Vec<TrafficMatrix>,
    /// Failed-link signatures the run seed drew, with the degraded
    /// topology and dead candidate paths of each.
    pub signatures: Vec<(usize, usize)>,
    pub failed: Vec<Topology>,
    pub dead_paths: Vec<Vec<u32>>,
}

impl ServedTopology {
    pub fn env(&self) -> &Arc<Env> {
        self.ctx.env()
    }
}

/// Daemon, server and connected clients over loopback, all in this
/// process. Field order is drop order: clients hang up before the server
/// shuts down.
pub struct ServeSystem {
    pub clients: Vec<TealClient>,
    pub server: TealServer<TealModel>,
    pub daemon: Arc<ServeDaemon<TealModel>>,
    pub topos: Vec<ServedTopology>,
}

/// Register `contexts` behind a `ServeDaemon` (`ServeConfig::default()`,
/// epoll front end), bind a loopback server and connect the clients.
pub fn serve(
    contexts: Vec<(&'static str, Context)>,
    seed: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> ServeSystem {
    let mut rng = Rng::new(seed, 0x5e2e);
    let (daemon, server, pools) = tracer.time("serve.daemon.start", 0, parent, || {
        let registry = ModelRegistry::new();
        let mut pools = Vec::new();
        for (id, mut c) in contexts {
            registry.insert(id, c.ctx);
            c.pool.truncate(SOCKET_POOL);
            pools.push((id, c.pool));
        }
        let daemon = Arc::new(ServeDaemon::start(registry, ServeConfig::default()));
        let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0")
            .expect("bind a loopback port for the benchmark server");
        (daemon, server, pools)
    });
    let clients = tracer.time("serve.client.connect", 0, parent, || {
        (0..CONNECTIONS)
            .map(|_| {
                TealClient::connect(server.local_addr()).expect("connect to the benchmark server")
            })
            .collect()
    });
    let topos = pools
        .into_iter()
        .map(|(id, pool)| {
            let ctx = daemon.registry().get(id).expect("registered above");
            let signatures = draw_failed_links(ctx.env().topo(), &mut rng, SIGNATURES);
            let failed: Vec<Topology> = signatures
                .iter()
                .map(|&(a, b)| ctx.env().topo().with_failed_link(a, b))
                .collect();
            let dead_paths = failed.iter().map(|t| dead_path_ids(ctx.env(), t)).collect();
            ServedTopology {
                id,
                ctx,
                pool,
                signatures,
                failed,
                dead_paths,
            }
        })
        .collect();
    ServeSystem {
        clients,
        server,
        daemon,
        topos,
    }
}

/// The socket workloads' system: B4 and Swan (scale 0.3), all-pairs
/// demands, [`SOCKET_POOL`] matrices each.
pub fn build_b4_swan(seed: u64, tracer: &mut Tracer, parent: SpanId) -> ServeSystem {
    let mut contexts = Vec::new();
    for (salt, id) in ["b4", "swan"].into_iter().enumerate() {
        let topo = tracer.time("topology.gen.build", 0, parent, || match id {
            "b4" => b4(),
            _ => generate(TopoKind::Swan, 0.3, spec::TOPOLOGY_SEED),
        });
        let pairs = topo.all_pairs();
        contexts.push((
            id,
            build_context(topo, &pairs, SOCKET_POOL, salt as u64, tracer, parent),
        ));
    }
    serve(contexts, seed, tracer, parent)
}

/// Set up at least 5 times and until about 2 s are spent (64 times at
/// most), keeping the last system; returns the set-up times in seconds.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 64 || (times.len() >= 5 && begun.elapsed() >= Duration::from_secs(2)) {
            return (built, times);
        }
        // Dropped before the next build so peak memory holds one system.
        drop(built);
    }
}

/// `(steal, total)` CPU jiffies of the machine so far (`/proc/stat`): time
/// the hypervisor gave to someone else while this guest wanted to run. A
/// run reports the share as a fact, to tell a noisy box from a slow change.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Threads of this process right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
