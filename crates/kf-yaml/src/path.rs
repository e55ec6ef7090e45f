//! Dotted-path addressing into documents (`spec.containers[0].image`).

use std::fmt;

use crate::Error;

/// One segment of a [`Path`]: a mapping key or a sequence index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathSegment {
    /// A mapping key, e.g. `spec`.
    Key(String),
    /// A sequence index, e.g. `[0]`.
    Index(usize),
}

impl fmt::Display for PathSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathSegment::Key(k) => write!(f, "{k}"),
            PathSegment::Index(i) => write!(f, "[{i}]"),
        }
    }
}

/// A path into a document tree, written in dotted notation with optional
/// bracketed sequence indices: `spec.containers[0].securityContext.privileged`.
///
/// Paths are how the KubeFence catalog (Table II of the paper) names the
/// targeted API fields, how validators report violations, and how the
/// attack-surface analysis counts fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Path {
    segments: Vec<PathSegment>,
}

impl Path {
    /// The empty path, addressing the document root.
    pub fn root() -> Self {
        Path {
            segments: Vec::new(),
        }
    }

    /// Build a path from pre-constructed segments.
    pub fn from_segments(segments: Vec<PathSegment>) -> Self {
        Path { segments }
    }

    /// Parse dotted notation. Keys may contain any character except `.`,
    /// `[` and `]`; indices are decimal integers in brackets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPath`] for empty segments, unterminated
    /// brackets or non-numeric indices.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let mut segments = Vec::new();
        if text.trim().is_empty() {
            return Ok(Path::root());
        }
        for part in text.split('.') {
            if part.is_empty() {
                return Err(Error::InvalidPath {
                    path: text.to_owned(),
                    message: "empty path segment".into(),
                });
            }
            let mut rest = part;
            // leading key portion (may be empty when a segment is just "[0]")
            let key_end = rest.find('[').unwrap_or(rest.len());
            let key = &rest[..key_end];
            if !key.is_empty() {
                segments.push(PathSegment::Key(key.to_owned()));
            }
            rest = &rest[key_end..];
            while !rest.is_empty() {
                if !rest.starts_with('[') {
                    return Err(Error::InvalidPath {
                        path: text.to_owned(),
                        message: format!("unexpected text `{rest}` after index"),
                    });
                }
                let close = rest.find(']').ok_or_else(|| Error::InvalidPath {
                    path: text.to_owned(),
                    message: "unterminated `[`".into(),
                })?;
                let idx_text = &rest[1..close];
                let idx: usize = idx_text.parse().map_err(|_| Error::InvalidPath {
                    path: text.to_owned(),
                    message: format!("invalid sequence index `{idx_text}`"),
                })?;
                segments.push(PathSegment::Index(idx));
                rest = &rest[close + 1..];
            }
        }
        Ok(Path { segments })
    }

    /// The segments of the path, in order.
    pub fn segments(&self) -> &[PathSegment] {
        &self.segments
    }

    /// Whether this is the root (empty) path.
    pub fn is_root(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the path has no segments (same as [`Path::is_root`]).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Return a new path with `key` appended.
    pub fn child_key(&self, key: &str) -> Path {
        let mut segments = self.segments.clone();
        segments.push(PathSegment::Key(key.to_owned()));
        Path { segments }
    }

    /// Return a new path with index `i` appended.
    pub fn child_index(&self, i: usize) -> Path {
        let mut segments = self.segments.clone();
        segments.push(PathSegment::Index(i));
        Path { segments }
    }

    /// The parent path (`None` for the root).
    pub fn parent(&self) -> Option<Path> {
        if self.segments.is_empty() {
            None
        } else {
            Some(Path {
                segments: self.segments[..self.segments.len() - 1].to_vec(),
            })
        }
    }

    /// The last segment (`None` for the root).
    pub fn last(&self) -> Option<&PathSegment> {
        self.segments.last()
    }

    /// Whether `self` starts with all segments of `prefix`.
    pub fn starts_with(&self, prefix: &Path) -> bool {
        self.segments.len() >= prefix.segments.len()
            && self.segments[..prefix.segments.len()] == prefix.segments[..]
    }

    /// Render the path with sequence indices collapsed to `[]`, the notation
    /// used for field identity in the attack-surface accounting.
    pub fn to_field_notation(&self) -> String {
        let mut out = String::new();
        for seg in &self.segments {
            match seg {
                PathSegment::Key(k) => {
                    if !out.is_empty() {
                        out.push('.');
                    }
                    out.push_str(k);
                }
                PathSegment::Index(_) => out.push_str("[]"),
            }
        }
        out
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            match seg {
                PathSegment::Key(k) => {
                    if !first {
                        write!(f, ".")?;
                    }
                    write!(f, "{k}")?;
                }
                PathSegment::Index(i) => write!(f, "[{i}]")?,
            }
            first = false;
        }
        Ok(())
    }
}

impl std::str::FromStr for Path {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Path::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_dotted_path() {
        let p = Path::parse("spec.replicas").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.to_string(), "spec.replicas");
    }

    #[test]
    fn parse_path_with_indices() {
        let p = Path::parse("spec.containers[0].image").unwrap();
        assert_eq!(
            p.segments(),
            &[
                PathSegment::Key("spec".into()),
                PathSegment::Key("containers".into()),
                PathSegment::Index(0),
                PathSegment::Key("image".into()),
            ]
        );
        assert_eq!(p.to_string(), "spec.containers[0].image");
    }

    #[test]
    fn parse_rejects_bad_indices() {
        assert!(Path::parse("a[b]").is_err());
        assert!(Path::parse("a[0").is_err());
        assert!(Path::parse("a..b").is_err());
    }

    #[test]
    fn empty_string_is_root() {
        let p = Path::parse("").unwrap();
        assert!(p.is_root());
    }

    #[test]
    fn parent_and_child_navigation() {
        let p = Path::parse("spec.containers[0]").unwrap();
        let parent = p.parent().unwrap();
        assert_eq!(parent.to_string(), "spec.containers");
        assert_eq!(parent.child_index(0), p);
        assert_eq!(
            parent.child_key("x").to_string(),
            "spec.containers.x".to_string()
        );
        assert!(Path::root().parent().is_none());
    }

    #[test]
    fn starts_with_checks_prefixes() {
        let p = Path::parse("spec.containers[0].image").unwrap();
        assert!(p.starts_with(&Path::parse("spec.containers").unwrap()));
        assert!(!p.starts_with(&Path::parse("spec.template").unwrap()));
    }

    #[test]
    fn field_notation_collapses_indices() {
        let p = Path::parse("spec.containers[3].ports[1].containerPort").unwrap();
        assert_eq!(
            p.to_field_notation(),
            "spec.containers[].ports[].containerPort"
        );
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for text in ["a.b.c", "a[0].b", "spec.containers[2].env[1].name"] {
            let p = Path::parse(text).unwrap();
            assert_eq!(Path::parse(&p.to_string()).unwrap(), p);
        }
    }
}
