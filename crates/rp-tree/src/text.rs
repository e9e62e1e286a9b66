//! Plain-text serialisation of tree topologies.
//!
//! The format is line-oriented and diff-friendly, so generated workloads
//! can be checked into a repository or attached to experiment reports:
//!
//! ```text
//! # anything after '#' is a comment
//! tree v1
//! node 0 root
//! node 1 parent 0
//! node 2 parent 0 label "left hub"
//! client 0 parent 1
//! client 1 parent 2 label "VOD customer"
//! ```
//!
//! Node and client indices must be dense and in increasing order, which
//! matches how [`TreeBuilder`] assigns them; the
//! writer always produces such files, and the parser enforces it.

use crate::error::TreeError;
use crate::ids::NodeId;
use crate::tree::{TreeBuilder, TreeNetwork};

/// Serialises the topology (and labels) of `tree` into the text format.
pub fn write_tree(tree: &TreeNetwork) -> String {
    let mut out = String::from("tree v1\n");
    for node in tree.node_ids() {
        match tree.parent_of_node(node) {
            None => out.push_str(&format!("node {} root", node.index())),
            Some(parent) => {
                out.push_str(&format!("node {} parent {}", node.index(), parent.index()))
            }
        }
        if let Some(label) = tree.node_label(node) {
            out.push_str(&format!(" label \"{}\"", escape(label)));
        }
        out.push('\n');
    }
    for client in tree.client_ids() {
        out.push_str(&format!(
            "client {} parent {}",
            client.index(),
            tree.parent_of_client(client).index()
        ));
        if let Some(label) = tree.client_label(client) {
            out.push_str(&format!(" label \"{}\"", escape(label)));
        }
        out.push('\n');
    }
    out
}

/// Parses a tree from the text format produced by [`write_tree`].
pub fn parse_tree(input: &str) -> Result<TreeNetwork, TreeError> {
    let mut builder = TreeBuilder::new();
    let mut saw_header = false;
    let mut expected_node = 0usize;
    let mut expected_client = 0usize;

    for (line_no, raw_line) in input.lines().enumerate() {
        let line_no = line_no + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if !saw_header {
            if line != "tree v1" {
                return Err(parse_err(line_no, "expected header `tree v1`"));
            }
            saw_header = true;
            continue;
        }
        let (kind, rest) = split_first_token(line);
        match kind {
            "node" => {
                let (idx_str, rest) = split_first_token(rest);
                let idx: usize = idx_str
                    .parse()
                    .map_err(|_| parse_err(line_no, "invalid node index"))?;
                if idx != expected_node {
                    return Err(parse_err(
                        line_no,
                        &format!("node indices must be dense; expected {expected_node}, got {idx}"),
                    ));
                }
                expected_node += 1;
                let (rest, label) = split_label(rest, line_no)?;
                let rest = rest.trim();
                let handle = if rest == "root" {
                    builder.add_root()
                } else if let Some(parent_str) = rest.strip_prefix("parent ") {
                    let parent: usize = parent_str
                        .trim()
                        .parse()
                        .map_err(|_| parse_err(line_no, "invalid parent index"))?;
                    if parent >= idx {
                        return Err(parse_err(
                            line_no,
                            "parent index must refer to an earlier node",
                        ));
                    }
                    builder.add_node(NodeId::from_index(parent))
                } else {
                    return Err(parse_err(line_no, "expected `root` or `parent <idx>`"));
                };
                if let Some(label) = label {
                    builder.set_node_label(handle, label);
                }
            }
            "client" => {
                let (idx_str, rest) = split_first_token(rest);
                let idx: usize = idx_str
                    .parse()
                    .map_err(|_| parse_err(line_no, "invalid client index"))?;
                if idx != expected_client {
                    return Err(parse_err(
                        line_no,
                        &format!(
                            "client indices must be dense; expected {expected_client}, got {idx}"
                        ),
                    ));
                }
                expected_client += 1;
                let (rest, label) = split_label(rest, line_no)?;
                let rest = rest.trim();
                let parent_str = rest
                    .strip_prefix("parent ")
                    .ok_or_else(|| parse_err(line_no, "expected `parent <idx>`"))?;
                let parent: usize = parent_str
                    .trim()
                    .parse()
                    .map_err(|_| parse_err(line_no, "invalid parent index"))?;
                if parent >= expected_node {
                    return Err(parse_err(line_no, "client parent must be a declared node"));
                }
                let handle = builder.add_client(NodeId::from_index(parent));
                if let Some(label) = label {
                    builder.set_client_label(handle, label);
                }
            }
            other => {
                return Err(parse_err(
                    line_no,
                    &format!("unknown record type `{other}` (expected `node` or `client`)"),
                ));
            }
        }
    }

    if !saw_header {
        return Err(parse_err(0, "missing header `tree v1`"));
    }
    builder.build()
}

fn escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"")
}

fn unescape(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut chars = label.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(next) = chars.next() {
                out.push(next);
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn strip_comment(line: &str) -> &str {
    // A '#' starts a comment only outside of a quoted label.
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn split_first_token(line: &str) -> (&str, &str) {
    let line = line.trim_start();
    match line.find(char::is_whitespace) {
        Some(pos) => (&line[..pos], line[pos..].trim_start()),
        None => (line, ""),
    }
}

/// Splits an optional trailing ` label "..."` clause off `rest`.
fn split_label(rest: &str, line_no: usize) -> Result<(&str, Option<String>), TreeError> {
    match rest.find(" label \"") {
        None => Ok((rest, None)),
        Some(pos) => {
            let before = &rest[..pos];
            let quoted = &rest[pos + " label \"".len()..];
            // Find the closing unescaped quote.
            let mut escaped = false;
            for (i, c) in quoted.char_indices() {
                match c {
                    '\\' => escaped = !escaped,
                    '"' if !escaped => {
                        let label = unescape(&quoted[..i]);
                        let after = quoted[i + 1..].trim();
                        if !after.is_empty() {
                            return Err(parse_err(line_no, "unexpected text after label"));
                        }
                        return Ok((before, Some(label)));
                    }
                    _ => escaped = false,
                }
            }
            Err(parse_err(line_no, "unterminated label string"))
        }
    }
}

fn parse_err(line: usize, message: &str) -> TreeError {
    TreeError::Parse {
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    fn sample() -> TreeNetwork {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let a = b.add_node(root);
        let bb = b.add_node(a);
        b.add_client(bb);
        b.add_client(root);
        b.set_node_label(a, "hub \"east\"");
        b.set_client_label(crate::ids::ClientId::from_index(1), "direct");
        b.build().unwrap()
    }

    #[test]
    fn write_then_parse_round_trips() {
        let t = sample();
        let text = write_tree(&t);
        let parsed = parse_tree(&text).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn writer_output_is_stable() {
        let t = sample();
        let text = write_tree(&t);
        assert!(text.starts_with("tree v1\n"));
        assert!(text.contains("node 0 root"));
        assert!(text.contains("node 1 parent 0 label \"hub \\\"east\\\"\""));
        assert!(text.contains("node 2 parent 1"));
        assert!(text.contains("client 0 parent 2"));
        assert!(text.contains("client 1 parent 0 label \"direct\""));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# a comment\ntree v1\nnode 0 root   # the root\n\nclient 0 parent 0\n";
        let t = parse_tree(text).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_clients(), 1);
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = parse_tree("node 0 root\n").unwrap_err();
        assert!(matches!(err, TreeError::Parse { .. }));
    }

    #[test]
    fn non_dense_indices_are_rejected() {
        let err = parse_tree("tree v1\nnode 1 root\n").unwrap_err();
        assert!(err.to_string().contains("dense"));
    }

    #[test]
    fn forward_parent_references_are_rejected() {
        let err = parse_tree("tree v1\nnode 0 root\nnode 1 parent 2\n").unwrap_err();
        assert!(err.to_string().contains("earlier node"));
    }

    #[test]
    fn client_with_unknown_parent_is_rejected() {
        let err = parse_tree("tree v1\nnode 0 root\nclient 0 parent 5\n").unwrap_err();
        assert!(err.to_string().contains("declared node"));
    }

    #[test]
    fn unterminated_label_is_rejected() {
        let err = parse_tree("tree v1\nnode 0 root label \"oops\n").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn unknown_record_type_is_rejected() {
        let err = parse_tree("tree v1\nedge 0 1\n").unwrap_err();
        assert!(err.to_string().contains("unknown record type"));
    }

    #[test]
    fn hash_inside_label_is_not_a_comment() {
        let text = "tree v1\nnode 0 root label \"color #3\"\nclient 0 parent 0\n";
        let t = parse_tree(text).unwrap();
        assert_eq!(t.node_label(NodeId::from_index(0)), Some("color #3"));
    }
}
