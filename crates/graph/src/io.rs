//! Plain-text edge-list persistence for generated networks.
//!
//! Format (one record per line, `#`-prefixed comment lines ignored; the
//! `nodes <n>` header once — a second is refused at its line):
//!
//! ```text
//! # distance-sketches edge list
//! nodes <n>
//! <u> <v> <weight>
//! ...
//! ```
//!
//! The format is intentionally trivial so that generated workloads can be
//! inspected, diffed, and re-used across experiment runs without adding a
//! serialization dependency.

use crate::csr::{Graph, NodeId};
use crate::GraphBuilder;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors produced when parsing an edge-list file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content with a human-readable description and line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of what was wrong.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Write `graph` to `writer` in edge-list format.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# distance-sketches edge list")?;
    writeln!(w, "nodes {}", graph.num_nodes())?;
    for (u, v, weight) in graph.undirected_edges() {
        writeln!(w, "{} {} {}", u.0, v.0, weight)?;
    }
    w.flush()?;
    Ok(())
}

/// Write `graph` to the file at `path`.
pub fn save_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

/// Read a graph from edge-list text.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, IoError> {
    let buf = BufReader::new(reader);
    let mut num_nodes: Option<usize> = None;
    // Each edge keeps the 1-based file line it came from, so range errors
    // (which can only be checked once the node count is known) point at the
    // offending line instead of the edge's position in the list.
    let mut edges: Vec<(usize, usize, usize, u64)> = Vec::new();

    for (idx, line) in buf.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("nodes ") {
            let n: usize = rest.trim().parse().map_err(|_| IoError::Parse {
                line: line_no,
                message: format!("invalid node count '{rest}'"),
            })?;
            // Ids are `u32`s: past that, nothing may be sized by `n`.
            if u32::try_from(n).is_err() {
                return Err(IoError::Parse {
                    line: line_no,
                    message: format!("node count {n} exceeds the u32 id space"),
                });
            }
            // The last of two headers must not silently win.
            if let Some(first) = num_nodes.replace(n) {
                return Err(IoError::Parse {
                    line: line_no,
                    message: format!("second 'nodes' header ({n}) after 'nodes {first}'"),
                });
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_field = |s: Option<&str>, what: &str| -> Result<u64, IoError> {
            s.ok_or_else(|| IoError::Parse {
                line: line_no,
                message: format!("missing {what}"),
            })?
            .parse()
            .map_err(|_| IoError::Parse {
                line: line_no,
                message: format!("invalid {what}"),
            })
        };
        let u = parse_field(parts.next(), "source node")? as usize;
        let v = parse_field(parts.next(), "target node")? as usize;
        let w = parse_field(parts.next(), "weight")?;
        if parts.next().is_some() {
            return Err(IoError::Parse {
                line: line_no,
                message: "trailing fields after weight".to_string(),
            });
        }
        edges.push((line_no, u, v, w));
    }

    let n = num_nodes.ok_or(IoError::Parse {
        line: 0,
        message: "missing 'nodes <n>' header".to_string(),
    })?;
    let mut builder = GraphBuilder::with_capacity(n, edges.len());
    for &(line_no, u, v, w) in &edges {
        if u >= n || v >= n {
            return Err(IoError::Parse {
                line: line_no,
                message: format!("edge ({u}, {v}) out of range for {n} nodes"),
            });
        }
        builder.add_edge(NodeId::from_index(u), NodeId::from_index(v), w);
    }
    Ok(builder.build())
}

/// Read a graph from the file at `path`.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, GeneratorConfig};

    #[test]
    fn round_trip_preserves_graph() {
        let g = erdos_renyi(60, 0.1, GeneratorConfig::uniform(3, 1, 20));
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(
            g.undirected_edges().collect::<Vec<_>>(),
            g2.undirected_edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# comment\n\nnodes 3\n# another\n0 1 5\n1 2 7\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(7));
    }

    #[test]
    fn missing_header_is_an_error() {
        let text = "0 1 5\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("nodes"));
    }

    #[test]
    fn malformed_edge_line_is_an_error() {
        let text = "nodes 3\n0 1\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("weight"));
    }

    #[test]
    fn trailing_fields_are_an_error() {
        let text = "nodes 3\n0 1 5 9\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn out_of_range_edge_is_an_error() {
        let text = "nodes 2\n0 5 1\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn out_of_range_error_reports_the_file_line() {
        // The range check runs after parsing (it needs the node count), but
        // the error must still point at the offending *file* line — here
        // line 4, not "the second edge".
        let text = "# header\nnodes 2\n0 1 1\n0 9 1\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 4, "{message}");
                assert!(message.contains("out of range"));
            }
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn a_node_count_past_the_u32_id_space_is_refused_at_its_line() {
        let err = read_edge_list("nodes 4294967296\n0 1 1\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 1, "{message}");
                assert!(message.contains("u32 id space"), "{message}");
            }
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn a_second_nodes_header_is_refused_at_its_line() {
        let err = read_edge_list("nodes 3\n0 1 1\n# more\nnodes 5\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 4, "{message}");
                assert!(message.contains("second 'nodes' header"), "{message}");
            }
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn isolated_vertices_survive_the_round_trip() {
        // Nodes 2 and 4 have no incident edges; the `nodes <n>` header must
        // preserve them so that sketches built from a re-loaded graph cover
        // the same node-id space (the persistence layer fingerprints n).
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 3);
        b.add_edge(NodeId(1), NodeId(3), 2);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.num_nodes(), 5);
        assert_eq!(g2.degree(NodeId(2)), 0);
        assert_eq!(g2.degree(NodeId(4)), 0);
        assert_eq!(g.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn duplicate_edges_canonicalize_to_the_minimum_weight() {
        // An edge list may repeat an edge (both orientations, different
        // weights); loading must collapse duplicates exactly like
        // GraphBuilder does, so that load(save(g)) == g structurally and
        // re-loading an externally produced list with duplicates yields the
        // same fingerprint as building it directly.
        let text = "nodes 3\n0 1 9\n1 0 4\n0 1 7\n1 2 5\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(4));

        let mut direct = GraphBuilder::new(3);
        direct.add_edge(NodeId(0), NodeId(1), 4);
        direct.add_edge(NodeId(1), NodeId(2), 5);
        assert_eq!(g.fingerprint(), direct.build().fingerprint());

        // And the canonical form round-trips losslessly.
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn file_round_trip() {
        let g = erdos_renyi(20, 0.2, GeneratorConfig::unit(7));
        let dir = std::env::temp_dir().join("netgraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_file(&path).ok();
    }
}
