//! Error types shared across the sketch constructions.

use netgraph::NodeId;

/// Errors surfaced by sketch construction and querying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// A query was asked about a node the sketch set does not cover.
    UnknownNode(NodeId),
    /// Two sketches share no common pivot or bunch member, so no estimate can
    /// be produced.  For Thorup–Zwick sketches on a connected graph this
    /// cannot happen (level `k − 1` pivots are always shared); it can happen
    /// for slack sketches when the graph is disconnected.
    NoCommonLandmark {
        /// First queried node.
        u: NodeId,
        /// Second queried node.
        v: NodeId,
    },
    /// Construction parameters were invalid (e.g. `k = 0` or `ε ∉ (0, 1)`).
    InvalidParameters(String),
    /// The distributed construction hit its round limit before terminating.
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// Answering this query's batch panicked in the serving layer.  The
    /// panic was caught at the batch boundary and cost the caller nothing
    /// but its result cache; whether a retry succeeds depends on what
    /// panicked.  (The name predates the inline serve path: it is the wire
    /// protocol's `shard-panicked` code.)
    ShardPanicked,
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::UnknownNode(u) => write!(f, "unknown node {u}"),
            SketchError::NoCommonLandmark { u, v } => {
                write!(f, "no common landmark between {u} and {v}")
            }
            SketchError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            SketchError::RoundLimitExceeded { limit } => {
                write!(f, "round limit of {limit} exceeded before termination")
            }
            SketchError::ShardPanicked => {
                write!(
                    f,
                    "answering this batch panicked; the server is still up — retry"
                )
            }
        }
    }
}

impl std::error::Error for SketchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SketchError::UnknownNode(NodeId(3))
            .to_string()
            .contains("v3"));
        assert!(SketchError::NoCommonLandmark {
            u: NodeId(1),
            v: NodeId(2)
        }
        .to_string()
        .contains("landmark"));
        assert!(SketchError::InvalidParameters("k must be >= 1".into())
            .to_string()
            .contains("k must be"));
        assert!(SketchError::RoundLimitExceeded { limit: 10 }
            .to_string()
            .contains("10"));
        assert!(SketchError::ShardPanicked.to_string().contains("retry"));
    }
}
