//! A plain-text trace format so workloads can be saved, replayed, and
//! exchanged with external tools.
//!
//! One request per line:
//!
//! ```text
//! # comment / blank lines ignored
//! I <id> <size>    # insert
//! D <id>           # delete
//! ```

use realloc_common::ObjectId;

use crate::{Request, Workload};

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for whole-trace semantic errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes a workload to the text format.
pub fn to_text(workload: &Workload) -> String {
    let mut out = String::with_capacity(workload.len() * 12);
    out.push_str(&format!("# {}\n", workload.name));
    for req in &workload.requests {
        match *req {
            Request::Insert { id, size } => out.push_str(&format!("I {} {}\n", id.0, size)),
            Request::Delete { id } => out.push_str(&format!("D {}\n", id.0)),
        }
    }
    out
}

/// Parses the text format. The first comment line, if any, becomes the
/// workload name.
pub fn from_text(text: &str) -> Result<Workload, ParseError> {
    let mut name = String::from("trace");
    let mut requests = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if requests.is_empty() && name == "trace" {
                name = comment.trim().to_string();
            }
            continue;
        }
        let err = |message: String| ParseError {
            line: i + 1,
            message,
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("I") => {
                let id = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("insert needs a numeric id".into()))?;
                let size = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("insert needs a numeric size".into()))?;
                if size == 0 {
                    return Err(err("size must be positive".into()));
                }
                requests.push(Request::Insert {
                    id: ObjectId(id),
                    size,
                });
            }
            Some("D") => {
                let id = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("delete needs a numeric id".into()))?;
                requests.push(Request::Delete { id: ObjectId(id) });
            }
            Some(other) => return Err(err(format!("unknown op {other:?}"))),
            None => unreachable!("blank lines filtered"),
        }
        if parts.next().is_some() {
            return Err(err("trailing tokens".into()));
        }
    }
    let workload = Workload::new(name, requests);
    if let Err(idx) = workload.validate() {
        return Err(ParseError {
            line: 0,
            message: format!(
                "semantically invalid at request index {idx} (duplicate insert, unknown delete, \
                 zero size, or live volume past 2^60 cells)"
            ),
        });
    }
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{churn, ChurnConfig};
    use crate::dist::SizeDist;

    #[test]
    fn roundtrip_preserves_requests() {
        let w = churn(&ChurnConfig {
            dist: SizeDist::Uniform { lo: 1, hi: 50 },
            target_volume: 1_000,
            churn_ops: 300,
            seed: 5,
        });
        let text = to_text(&w);
        let back = from_text(&text).unwrap();
        assert_eq!(back.requests, w.requests);
        assert_eq!(back.name, w.name);
    }

    #[test]
    fn parses_comments_and_blanks() {
        let w = from_text("# my trace\n\nI 1 10\n# middle comment\nD 1\n").unwrap();
        assert_eq!(w.name, "my trace");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(from_text("I 1").unwrap_err().line, 1);
        assert_eq!(from_text("I 1 0").unwrap_err().line, 1);
        assert_eq!(from_text("X 1 2").unwrap_err().line, 1);
        assert_eq!(from_text("I 1 2 3").unwrap_err().line, 1);
        assert_eq!(from_text("I one 2").unwrap_err().line, 1);
    }

    #[test]
    fn rejects_semantically_invalid_traces() {
        // Delete of an id that was never inserted.
        let err = from_text("D 7\n").unwrap_err();
        assert!(err.message.contains("semantically invalid"));
        // Duplicate insert.
        assert!(from_text("I 1 5\nI 1 5\n").is_err());
    }
}
