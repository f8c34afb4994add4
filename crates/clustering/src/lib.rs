//! # semcluster-clustering
//!
//! The paper's run-time clustering engine:
//!
//! * an arc-weight model turning type-inherited traversal frequencies and
//!   user hints into placement affinities ([`WeightModel`],
//!   [`weighted_neighbors_in`], [`candidate_pages_in`],
//!   [`placement_cost`]) over a caller-owned [`ScoreScratch`],
//! * the candidate-page search with buffer-only / k-I/O-limited /
//!   unbounded pools ([`plan_placement_in`]: [`score_placement_in`],
//!   then [`choose_placement_in`]),
//! * page splitting when the preferred candidate overflows — greedy
//!   single-pass [`linear_split`] vs the exact [`optimal_split`] — gated
//!   by a cost comparison ([`consider_split`]), and
//! * run-time reclustering of existing objects when their structure
//!   changes ([`plan_recluster_in`]).
//!
//! Searches produce *plans*; the simulation engine executes them so every
//! candidate-page read is charged through the buffer manager to the
//! writing transaction — exactly the accounting the paper's Figures
//! 5.1–5.10 rest on.

#![warn(missing_docs)]

pub mod arena;
mod config;
mod cost;
mod locality;
mod offline;
mod placement;
mod recluster;
mod split;

pub use arena::ScoreScratch;
pub use config::{ClusteringPolicy, HintPolicy, SplitPolicy};
pub use cost::{
    candidate_pages_in, extended_neighbors_in, extended_neighbors_where, placement_cost,
    weighted_neighbors_in, WeightModel, HINT_MULTIPLIER, TWO_HOP_DECAY,
};
pub use locality::page_locality;
pub use offline::{broken_arc_weight, static_recluster, ReorgReport};
pub use placement::{
    choose_placement_in, execute_placement, plan_placement_in, score_placement_in, AllResident,
    ExaminedCandidate, PlacementPlan, PlacementTarget, ResidencyView, MAX_EXAMINED,
};
pub use recluster::{
    consider_split, execute_split, plan_recluster_in, ReclusterPlan, SplitOutcome, SplitPlan,
    SPLIT_OVERHEAD_WEIGHT,
};
pub use split::{
    build_dependency_graph_in, linear_split, optimal_split, DependencyGraph, Partition, SplitError,
    MAX_EXACT_NODES,
};
