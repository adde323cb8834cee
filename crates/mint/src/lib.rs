//! Mint — the distributed key-value layer of DirectLoad (§2.3).
//!
//! Mint arranges a data center's storage nodes into **groups** and maps a
//! key to a group by hash: `H(k) → group`. The indirection is the point —
//! nodes can join or leave a group without redistributing stored pairs,
//! which a direct `H(k) → node` mapping would force. Inside the group,
//! each pair is written to **three replicas** chosen by rendezvous
//! hashing among the currently-alive members. A read asks one replica
//! when that replica provably holds everything its group has logged, and
//! fans out to every alive member of the group — in parallel, reconciling
//! their answers — when no member does or the one asked cannot be read,
//! so a failed or recovering node never costs a reader the answer ("The
//! parallel requests to the replicas will hide the node recovery from
//! front-end users").
//!
//! Every storage node runs its own [`qindb::QinDb`] engine on its own
//! simulated SSD with its own virtual clock; cluster-level wall time for
//! a batch is the maximum per-node busy time, which is how a fleet of
//! independent nodes actually behaves.
//!
//! # Map of the crate
//!
//! * `hash` — `H(k) → group` and the rendezvous ranking inside a group.
//! * `cluster` — `Mint`, its types, routing / membership accessors and
//!   observability hooks; one file per job beneath it:
//! * `cluster/write` — `apply` / `retire` / `delete`, one `execute`:
//!   route, log, apply node by node.
//! * `cluster/read` — `get` / `get_costed`, one `read` (a whole replica,
//!   else a reconciled fan-out); `scan_prefix`.
//! * `cluster/catchup` — the group-log codec; `install`, the one place
//!   an item reaches a replica; `catch_up`, the one place a node catches
//!   up (log suffix, else full state).
//! * `cluster/lifecycle` — fail / recover, join, drain, checkpoint:
//!   state transitions that call `catchup` to move data.
//!
//! # Example
//!
//! ```
//! use mint::{Mint, MintConfig, WriteOp};
//! use bytes::Bytes;
//!
//! let mut cluster = Mint::new(MintConfig::tiny());
//! cluster.apply(&[WriteOp {
//!     key: Bytes::from_static(b"url-1"),
//!     version: 1,
//!     value: Some(Bytes::from_static(b"abstract")),
//! }]).unwrap();
//! let (value, _latency) = cluster.get(b"url-1", 1).unwrap();
//! assert_eq!(value.unwrap().as_ref(), b"abstract");
//!
//! // A node crash is invisible to readers; recovery rebuilds from the
//! // node's own flash and catches up from its peers before serving.
//! cluster.fail_node(mint::NodeId(0)).unwrap();
//! assert!(cluster.get(b"url-1", 1).unwrap().0.is_some());
//! cluster.recover_node(mint::NodeId(0)).unwrap();
//! ```

mod cluster;
mod hash;

pub use cluster::{
    ApplyReport, Mint, MintConfig, NodeId, NodeRole, ScanRow, SyncStep, WalRecovery, WalTamper,
    WriteOp, READ_RETRIES, SYNC_BYTES_PER_SEC,
};
pub use hash::{group_of, rendezvous_rank};

use qindb::QinDbError;
use std::fmt;

/// Cluster-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MintError {
    /// An engine operation failed on a node.
    Node { node: u32, error: QinDbError },
    /// No alive replica could serve the request.
    NoReplicaAvailable,
    /// The addressed node does not exist.
    NoSuchNode(u32),
    /// The node is not in the state the operation requires (e.g. failing
    /// an already-failed node).
    BadNodeState(u32),
    /// The addressed replication group does not exist.
    NoSuchGroup(usize),
    /// Decommissioning this group member would leave fewer members than
    /// the replication factor.
    GroupAtFloor(usize),
    /// An unbounded sync pass against this node ended without covering
    /// everything it was missing — the node must not enter (or re-enter)
    /// service, and the caller should retry the whole catch-up.
    SyncIncomplete(u32),
}

impl fmt::Display for MintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MintError::Node { node, error } => write!(f, "node {node}: {error}"),
            MintError::NoReplicaAvailable => write!(f, "no alive replica"),
            MintError::NoSuchNode(n) => write!(f, "no such node {n}"),
            MintError::BadNodeState(n) => write!(f, "node {n} in wrong state"),
            MintError::NoSuchGroup(g) => write!(f, "no such group {g}"),
            MintError::GroupAtFloor(g) => {
                write!(f, "group {g} is at the replication floor")
            }
            MintError::SyncIncomplete(n) => {
                write!(f, "sync of node {n} ended before it caught up")
            }
        }
    }
}

impl std::error::Error for MintError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, MintError>;
