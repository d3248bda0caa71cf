//! Graph file I/O: whitespace edge lists and a minimal Pajek `.net` subset.
//!
//! The paper generated inputs with Pajek; the `.net` support here covers the
//! `*Vertices` / `*Edges` sections that tool emits for undirected weighted
//! graphs, so exported datasets can round-trip.

use crate::{AdjGraph, Dist, GraphBuilder, GraphError, VertexId, Weight, INF};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads a whitespace-separated edge list: one `u v [w]` triple per line,
/// `#`-prefixed comment lines skipped, weight defaults to 1. An id past
/// [`VertexId`] or a weight of `INF` is a parse error.
pub fn read_edge_list<R: Read>(reader: R) -> Result<AdjGraph, GraphError> {
    let mut builder = GraphBuilder::default();
    let buf = BufReader::new(reader);
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |s: Option<&str>, what: &str| -> Result<VertexId, GraphError> {
            s.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: format!("missing {what}"),
            })?
            .parse::<VertexId>()
            .map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let u = parse(it.next(), "source")?;
        let v = parse(it.next(), "target")?;
        let w = match it.next() {
            Some(s) => {
                let w = s.parse::<Weight>().map_err(|e| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("bad weight: {e}"),
                })?;
                // Distance arithmetic saturates at `INF`: an edge of that
                // weight would be invisible to every relaxation but not to
                // a hop walk.
                if w as Dist == INF {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        message: format!("weight {s} is the INF distance"),
                    });
                }
                w
            }
            None => 1,
        };
        builder.edge(u, v, w);
    }
    builder.build()
}

/// Writes a graph as a `u v w` edge list.
pub fn write_edge_list<W: Write>(g: &AdjGraph, writer: W) -> Result<(), GraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# vertices: {}  edges: {}", g.num_vertices(), g.num_edges())?;
    for (u, v, w) in g.edges() {
        writeln!(out, "{u} {v} {w}")?;
    }
    out.flush()?;
    Ok(())
}

/// Reads the Pajek `.net` subset: a `*Vertices n` header followed by an
/// `*Edges` (or `*Arcs`, treated as undirected) section of
/// `u v [w]` lines with **1-based** vertex ids. An id past [`VertexId`], or
/// a weight that does not round to a finite value below `INF` (`inf`,
/// `nan`, `1e20`), is a parse error.
pub fn read_pajek<R: Read>(reader: R) -> Result<AdjGraph, GraphError> {
    let buf = BufReader::new(reader);
    let mut builder = GraphBuilder::default();
    let mut in_edges = false;
    let mut declared_n: Option<usize> = None;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("*vertices") {
            let n: usize = lower
                .split_whitespace()
                .nth(1)
                .ok_or_else(|| GraphError::Parse {
                    line: lineno + 1,
                    message: "missing vertex count".into(),
                })?
                .parse()
                .map_err(|e| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("bad vertex count: {e}"),
                })?;
            declared_n = Some(n);
            builder.grow_to(n);
            in_edges = false;
            continue;
        }
        if lower.starts_with("*edges") || lower.starts_with("*arcs") {
            in_edges = true;
            continue;
        }
        if lower.starts_with('*') {
            in_edges = false; // unsupported section (e.g. *Partition): skip
            continue;
        }
        if !in_edges {
            continue; // vertex label lines — ids are positional, skip
        }
        let mut it = line.split_whitespace();
        let parse_id = |s: Option<&str>| -> Result<VertexId, GraphError> {
            let raw: VertexId = s
                .ok_or_else(|| GraphError::Parse {
                    line: lineno + 1,
                    message: "missing endpoint".into(),
                })?
                .parse()
                .map_err(|e| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("bad endpoint: {e}"),
                })?;
            if raw == 0 {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: "Pajek ids are 1-based".into(),
                });
            }
            Ok(raw - 1)
        };
        let u = parse_id(it.next())?;
        let v = parse_id(it.next())?;
        let w = match it.next() {
            // Pajek weights may be floats; round to the nearest positive int.
            Some(s) => {
                let f: f64 = s.parse().map_err(|e| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("bad weight: {e}"),
                })?;
                let f = f.round();
                if f.is_nan() || f >= INF as f64 {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        message: format!("weight {s} does not round below INF"),
                    });
                }
                f.max(1.0) as Weight
            }
            None => 1,
        };
        builder.edge(u, v, w);
    }
    if let Some(n) = declared_n {
        if builder.num_vertices() > n {
            return Err(GraphError::Parse {
                line: 0,
                message: format!("edge references vertex beyond declared count {n}"),
            });
        }
    }
    builder.build()
}

/// Writes a graph in the Pajek `.net` subset (1-based ids).
pub fn write_pajek<W: Write>(g: &AdjGraph, writer: W) -> Result<(), GraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "*Vertices {}", g.num_vertices())?;
    writeln!(out, "*Edges")?;
    for (u, v, w) in g.edges() {
        writeln!(out, "{} {} {}", u + 1, v + 1, w)?;
    }
    out.flush()?;
    Ok(())
}

/// Convenience: reads an edge-list file from disk.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<AdjGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Convenience: writes an edge-list file to disk.
pub fn write_edge_list_file<P: AsRef<Path>>(g: &AdjGraph, path: P) -> Result<(), GraphError> {
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip() {
        let mut g = AdjGraph::with_vertices(4);
        g.add_edge(0, 1, 2).unwrap();
        g.add_edge(2, 3, 5).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back.num_edges(), 2);
        assert_eq!(back.edge_weight(0, 1), Some(2));
        assert_eq!(back.edge_weight(2, 3), Some(5));
    }

    #[test]
    fn edge_list_defaults_weight_and_skips_comments() {
        let text = "# comment\n0 1\n\n1 2 7\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(1, 2), Some(7));
    }

    #[test]
    fn edge_list_reports_parse_errors_with_line() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pajek_roundtrip() {
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 2, 4).unwrap();
        let mut buf = Vec::new();
        write_pajek(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("*Vertices 3"));
        assert!(text.contains("1 3 4"));
        let back = read_pajek(&buf[..]).unwrap();
        assert_eq!(back.num_vertices(), 3);
        assert_eq!(back.edge_weight(0, 2), Some(4));
    }

    #[test]
    fn pajek_rejects_zero_based_and_overflow_ids() {
        let err = read_pajek("*Vertices 2\n*Edges\n0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
        let err = read_pajek("*Vertices 2\n*Edges\n1 5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn pajek_parses_float_weights_and_isolated_vertices() {
        let g = read_pajek("*Vertices 4\n*Edges\n1 2 2.6\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    /// `result` is a parse error reported at 1-based line `line`.
    fn assert_parse_error_at(result: Result<AdjGraph, GraphError>, line: usize) {
        match result {
            Err(GraphError::Parse { line: at, .. }) => assert_eq!(at, line),
            other => panic!("expected a parse error at line {line}, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_rejects_an_id_past_vertex_id() {
        assert_parse_error_at(read_edge_list("0 1\n4294967297 0\n".as_bytes()), 2);
    }

    #[test]
    fn edge_list_rejects_an_inf_weight() {
        assert_parse_error_at(read_edge_list("0 1 4294967295\n".as_bytes()), 1);
        assert_eq!(
            read_edge_list("0 1 4294967294\n".as_bytes()).unwrap().edge_weight(0, 1),
            Some(INF - 1)
        );
    }

    #[test]
    fn pajek_rejects_an_id_past_vertex_id() {
        assert_parse_error_at(read_pajek("*Vertices 2\n*Edges\n4294967298 1\n".as_bytes()), 3);
    }

    #[test]
    fn pajek_rejects_an_infinite_weight() {
        assert_parse_error_at(read_pajek("*Vertices 2\n*Edges\n1 2 inf\n".as_bytes()), 3);
    }

    #[test]
    fn pajek_rejects_a_weight_that_saturates() {
        assert_parse_error_at(read_pajek("*Vertices 2\n*Edges\n1 2 1e20\n".as_bytes()), 3);
    }

    #[test]
    fn pajek_rejects_a_nan_weight() {
        assert_parse_error_at(read_pajek("*Vertices 2\n*Edges\n1 2 nan\n".as_bytes()), 3);
    }

    #[test]
    fn pajek_ignores_unsupported_sections() {
        let text = "*Vertices 2\n1 \"a\"\n2 \"b\"\n*Partition x\n1\n2\n*Edges\n1 2\n";
        let g = read_pajek(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }
}
