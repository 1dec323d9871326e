//! Loader for GraphChallenge-format edge lists.
//!
//! The MIT GraphChallenge streaming partition datasets ship as TSV files,
//! one edge per line (`src<TAB>dst<TAB>weight`), **1-indexed** vertices, and
//! one file per streaming part. If you have the real files, this loader
//! feeds them to the same harness the synthetic datasets use; otherwise the
//! `gc` module's SBM presets stand in (see DESIGN.md §3).

use std::path::Path;

use crate::stream::{Sampling, StreamEdge, StreamingDataset};

/// A malformed input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse TSV edge lines (`src dst [weight]`, tab- or space-separated).
/// `one_indexed` shifts vertex ids down by one (GraphChallenge convention).
/// Empty lines and `#` / `%` comments are skipped.
pub fn parse_edges(text: &str, one_indexed: bool) -> Result<Vec<StreamEdge>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut field = |name: &str| -> Result<u64, ParseError> {
            it.next()
                .ok_or_else(|| ParseError { line: i + 1, msg: format!("missing {name}") })?
                .parse::<u64>()
                .map_err(|e| ParseError { line: i + 1, msg: format!("bad {name}: {e}") })
        };
        let mut u = field("src")?;
        let mut v = field("dst")?;
        let w = match it.next() {
            Some(s) => s
                .parse::<u32>()
                .map_err(|e| ParseError { line: i + 1, msg: format!("bad weight: {e}") })?,
            None => 1,
        };
        if one_indexed {
            if u == 0 || v == 0 {
                return Err(ParseError {
                    line: i + 1,
                    msg: "vertex id 0 in a 1-indexed file".to_string(),
                });
            }
            u -= 1;
            v -= 1;
        }
        // The vertex count is the largest id + 1, which must fit a `u32`.
        if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
            return Err(ParseError {
                line: i + 1,
                msg: format!("vertex id must be below {}", u32::MAX),
            });
        }
        out.push((u as u32, v as u32, w));
    }
    Ok(out)
}

/// Load one edge file.
pub fn load_edge_file(path: &Path, one_indexed: bool) -> std::io::Result<Vec<StreamEdge>> {
    let text = std::fs::read_to_string(path)?;
    parse_edges(&text, one_indexed)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Load a streaming dataset from one file per increment (GraphChallenge's
/// `..._part{1..10}.tsv` layout). Vertex count is inferred as max id + 1
/// unless `n_vertices` is given.
pub fn load_streaming_parts(
    paths: &[std::path::PathBuf],
    sampling: Sampling,
    one_indexed: bool,
    n_vertices: Option<u32>,
) -> std::io::Result<StreamingDataset> {
    let mut edges: Vec<StreamEdge> = Vec::new();
    let mut offsets = vec![0usize];
    for p in paths {
        edges.extend(load_edge_file(p, one_indexed)?);
        offsets.push(edges.len());
    }
    let max_id = edges.iter().map(|&(u, v, _)| u.max(v)).max().unwrap_or(0);
    let n = n_vertices.unwrap_or(max_id + 1).max(max_id + 1);
    Ok(StreamingDataset::new(n, sampling, edges, offsets))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tabs_spaces_comments_weights() {
        let text = "# comment\n1\t2\t5\n3 4\n\n% another\n2\t1\t7\n";
        let edges = parse_edges(text, true).unwrap();
        assert_eq!(edges, vec![(0, 1, 5), (2, 3, 1), (1, 0, 7)]);
    }

    #[test]
    fn zero_based_passthrough() {
        let edges = parse_edges("0 5 2\n", false).unwrap();
        assert_eq!(edges, vec![(0, 5, 2)]);
    }

    #[test]
    fn rejects_zero_id_in_one_indexed_file() {
        let err = parse_edges("0\t2\n", true).unwrap_err();
        assert!(err.msg.contains("1-indexed"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_garbage_with_line_numbers() {
        let err = parse_edges("1 2\nfoo bar\n", true).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        let err = parse_edges("1\n", true).unwrap_err();
        assert!(err.msg.contains("missing dst"));
    }

    #[test]
    fn rejects_ids_whose_vertex_count_overflows_u32() {
        // u32::MAX itself would need u32::MAX + 1 vertices.
        let err = parse_edges("0 1\n4294967295 1\n", false).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("below 4294967295"), "{err}");
        let err = parse_edges("4294967296\t1\n", true).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("below 4294967295"), "{err}");
        // The largest id that still fits, in both indexings.
        assert_eq!(parse_edges("4294967294 0\n", false).unwrap(), vec![(u32::MAX - 1, 0, 1)]);
        assert_eq!(parse_edges("4294967295 1\n", true).unwrap(), vec![(u32::MAX - 1, 0, 1)]);
    }

    #[test]
    fn loads_streaming_parts_from_disk() {
        let dir = std::env::temp_dir().join(format!("gcparts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("part1.tsv");
        let p2 = dir.join("part2.tsv");
        std::fs::write(&p1, "1\t2\t1\n2\t3\t1\n").unwrap();
        std::fs::write(&p2, "3\t4\t1\n").unwrap();
        let d = load_streaming_parts(&[p1, p2], Sampling::Edge, true, None).unwrap();
        assert_eq!(d.increments(), 2);
        assert_eq!(d.increment(0), &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(d.increment(1), &[(2, 3, 1)]);
        assert_eq!(d.n_vertices, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = load_edge_file(Path::new("/nonexistent/nope.tsv"), true);
        assert!(r.is_err());
    }
}
