//! `teal-topology`: WAN graphs, candidate paths, and topology generators.
//!
//! This substrate replaces the paper's external topology data (Topology Zoo,
//! CAIDA, proprietary SWAN) with seeded generators matching the published
//! structural profiles, and implements the path machinery of the TE path
//! formulation: Yen's k-shortest simple paths with goal-directed spur
//! searches (each bounded by a per-destination reverse shortest-path tree,
//! bit-identical to plain Yen's over Dijkstra — see [`paths`]), run per
//! demand pair on scoped worker threads, and the path-edge incidence
//! structure FlowGNN message-passes over.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]

pub mod gen;
pub mod graph;
pub mod paths;
pub mod stats;

pub use gen::{b4, generate, gravity_pairs, large_wan, TopoKind};
pub use graph::{Edge, EdgeId, NodeId, Topology};
pub use paths::{dijkstra, k_shortest_paths, k_shortest_paths_with, KspScratch, Path, PathSet};
