//! Streaming dynamic graph applications built on the diffusive model.

pub mod algo;
pub mod bfs;
pub mod concomp;
pub mod sssp;
pub mod wedge;

pub use algo::{
    delete_operon, insert_operon, query_operon, retract_operon, update_weight_operon, GraphApp,
    VertexAlgo, ACT_ALGO_BASE, ACT_DELETE, ACT_INSERT, ACT_QUERY, ACT_RELAX, ACT_RESEED,
    ACT_RETRACT, ACT_UPDATE,
};
pub use bfs::{BfsAlgo, MAX_LEVEL};
pub use concomp::CcAlgo;
pub use sssp::{SsspAlgo, INF};
pub use wedge::{JaccardAlgo, TriangleAlgo, ACT_JC_GEN, ACT_TRI_GEN};
