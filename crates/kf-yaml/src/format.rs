//! Wire-format identification for raw request bodies.

/// The serialization format of a raw (wire-bytes) request body.
///
/// Kubernetes clients overwhelmingly submit JSON (`kubectl` converts
/// manifests before `POST`ing them), while configuration files and Helm
/// output are YAML. The admission plane accepts both through the same
/// event model: [`crate::events::Tokenizer`] for YAML,
/// [`crate::json::JsonTokenizer`] for JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BodyFormat {
    /// The body is YAML.
    #[default]
    Yaml,
    /// The body is JSON.
    Json,
    /// Detect the format from the first non-whitespace byte: `{` or `[`
    /// opens a JSON document, anything else is treated as YAML. (A YAML
    /// document rooted in a flow collection is indistinguishable from JSON
    /// at that point; senders of such bodies should declare the format
    /// explicitly.)
    Auto,
}

impl BodyFormat {
    /// Detect the format of a body, per the [`BodyFormat::Auto`] rule.
    /// Always returns [`BodyFormat::Yaml`] or [`BodyFormat::Json`].
    pub fn detect(text: &str) -> BodyFormat {
        match text.trim_start().as_bytes().first() {
            Some(b'{') | Some(b'[') => BodyFormat::Json,
            _ => BodyFormat::Yaml,
        }
    }

    /// Resolve `Auto` against a concrete body; `Yaml` and `Json` are
    /// returned unchanged.
    pub fn resolve(self, text: &str) -> BodyFormat {
        match self {
            BodyFormat::Auto => BodyFormat::detect(text),
            fixed => fixed,
        }
    }

    /// Derive the wire format from an HTTP `Content-Type` header value, the
    /// way the real API server negotiates request encodings. Media-type
    /// parameters (`; charset=utf-8`, the watch-stream variants
    /// `application/json;stream=watch` / `application/yaml;stream=watch`)
    /// are ignored for format selection, as are case and surrounding
    /// whitespace. Returns `None` for media types that name neither
    /// encoding — callers fall back to [`BodyFormat::Auto`] detection.
    pub fn from_content_type(content_type: &str) -> Option<BodyFormat> {
        // Runs per admitted write, so it compares in place: no lowercased
        // copy of the header.
        let media_type = content_type.split(';').next().unwrap_or("").trim();
        let named = |names: &[&str]| names.iter().any(|n| media_type.eq_ignore_ascii_case(n));
        // Structured-syntax suffixes (`application/apply-patch+yaml`,
        // `application/merge-patch+json`, …) name the encoding too.
        let suffix = media_type.rsplit('+').next().unwrap_or("");
        if named(&["application/json", "text/json"]) || suffix.eq_ignore_ascii_case("json") {
            Some(BodyFormat::Json)
        } else if named(&[
            "application/yaml",
            "application/x-yaml",
            "text/yaml",
            "text/x-yaml",
        ]) || suffix.eq_ignore_ascii_case("yaml")
        {
            Some(BodyFormat::Yaml)
        } else {
            None
        }
    }

    /// Short lowercase name of the format (for messages and bench labels).
    pub fn name(&self) -> &'static str {
        match self {
            BodyFormat::Yaml => "yaml",
            BodyFormat::Json => "json",
            BodyFormat::Auto => "auto",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_keys_on_the_first_significant_byte() {
        assert_eq!(BodyFormat::detect("{\"kind\": \"Pod\"}"), BodyFormat::Json);
        assert_eq!(BodyFormat::detect("  \n\t[1, 2]"), BodyFormat::Json);
        assert_eq!(BodyFormat::detect("kind: Pod\n"), BodyFormat::Yaml);
        assert_eq!(BodyFormat::detect(""), BodyFormat::Yaml);
        assert_eq!(
            BodyFormat::detect("# comment\nkind: Pod\n"),
            BodyFormat::Yaml
        );
    }

    #[test]
    fn content_types_negotiate_the_wire_format() {
        assert_eq!(
            BodyFormat::from_content_type("application/json"),
            Some(BodyFormat::Json)
        );
        assert_eq!(
            BodyFormat::from_content_type("application/yaml"),
            Some(BodyFormat::Yaml)
        );
        // Parameters — including the watch-stream variants — do not change
        // the encoding.
        assert_eq!(
            BodyFormat::from_content_type("application/json;stream=watch"),
            Some(BodyFormat::Json)
        );
        assert_eq!(
            BodyFormat::from_content_type("application/yaml; stream=watch"),
            Some(BodyFormat::Yaml)
        );
        assert_eq!(
            BodyFormat::from_content_type("Application/JSON; charset=utf-8"),
            Some(BodyFormat::Json)
        );
        assert_eq!(
            BodyFormat::from_content_type("  text/x-yaml "),
            Some(BodyFormat::Yaml)
        );
        // Suffix-named encodings.
        assert_eq!(
            BodyFormat::from_content_type("application/apply-patch+yaml"),
            Some(BodyFormat::Yaml)
        );
        assert_eq!(
            BodyFormat::from_content_type("application/merge-patch+json"),
            Some(BodyFormat::Json)
        );
        assert_eq!(
            BodyFormat::from_content_type("Application/Apply-Patch+YAML;force=true"),
            Some(BodyFormat::Yaml)
        );
        // Unknown media types defer to Auto detection.
        assert_eq!(
            BodyFormat::from_content_type("application/vnd.kubernetes.protobuf"),
            None
        );
        assert_eq!(BodyFormat::from_content_type(""), None);
    }

    #[test]
    fn resolve_only_rewrites_auto() {
        assert_eq!(BodyFormat::Yaml.resolve("{}"), BodyFormat::Yaml);
        assert_eq!(BodyFormat::Json.resolve("a: 1"), BodyFormat::Json);
        assert_eq!(BodyFormat::Auto.resolve("{}"), BodyFormat::Json);
        assert_eq!(BodyFormat::Auto.resolve("a: 1"), BodyFormat::Yaml);
    }
}
