//! The chart model: metadata, templates and default values.

use crate::values::ValuesFile;

/// Chart metadata (the relevant subset of `Chart.yaml`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChartMetadata {
    /// Chart name (e.g. `nginx`).
    pub name: String,
    /// Chart version.
    pub version: String,
    /// Application version packaged by the chart.
    pub app_version: String,
    /// One-line description.
    pub description: String,
}

impl ChartMetadata {
    /// Metadata with a name and version; description and app version default
    /// to the name and version respectively.
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Self {
        let name = name.into();
        let version = version.into();
        ChartMetadata {
            description: format!("{name} chart"),
            app_version: version.clone(),
            name,
            version,
        }
    }

    /// Set the application version, builder style.
    pub fn with_app_version(mut self, app_version: impl Into<String>) -> Self {
        self.app_version = app_version.into();
        self
    }

    /// Set the description, builder style.
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }
}

/// One template file of a chart (`templates/*.yaml` or `templates/_helpers.tpl`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateFile {
    /// File name relative to the chart's `templates/` directory.
    pub name: String,
    /// Template source text.
    pub source: String,
}

impl TemplateFile {
    /// Build a template file from its name and source.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        TemplateFile {
            name: name.into(),
            source: source.into(),
        }
    }

    /// Whether the file is a helper file (only `define` blocks, no rendered
    /// output), following the Helm convention of a leading underscore.
    pub fn is_helper(&self) -> bool {
        self.name.starts_with('_')
    }
}

/// A Helm chart: metadata, default values and templates.
#[derive(Debug, Clone, PartialEq)]
pub struct Chart {
    metadata: ChartMetadata,
    values: ValuesFile,
    templates: Vec<TemplateFile>,
}

impl Chart {
    /// Assemble a chart from its parts.
    pub fn new(metadata: ChartMetadata, values: ValuesFile, templates: Vec<TemplateFile>) -> Self {
        Chart {
            metadata,
            values,
            templates,
        }
    }

    /// Chart metadata.
    pub fn metadata(&self) -> &ChartMetadata {
        &self.metadata
    }

    /// The default values file.
    pub fn values(&self) -> &ValuesFile {
        &self.values
    }

    /// All template files (helpers included).
    pub fn templates(&self) -> &[TemplateFile] {
        &self.templates
    }

    /// The template files that produce manifests (helpers excluded).
    pub fn manifest_templates(&self) -> impl Iterator<Item = &TemplateFile> {
        self.templates.iter().filter(|t| !t.is_helper())
    }

    /// The helper template files.
    pub fn helper_templates(&self) -> impl Iterator<Item = &TemplateFile> {
        self.templates.iter().filter(|t| t.is_helper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_builder_fills_defaults() {
        let meta = ChartMetadata::new("nginx", "15.0.1")
            .with_app_version("1.25.3")
            .with_description("web server");
        assert_eq!(meta.name, "nginx");
        assert_eq!(meta.app_version, "1.25.3");
        assert_eq!(meta.description, "web server");
    }

    #[test]
    fn helper_templates_are_separated_from_manifests() {
        let chart = Chart::new(
            ChartMetadata::new("demo", "1.0.0"),
            ValuesFile::from_value(kf_yaml::Value::empty_map()),
            vec![
                TemplateFile::new(
                    "_helpers.tpl",
                    "{{- define \"demo.name\" -}}demo{{- end -}}",
                ),
                TemplateFile::new("service.yaml", "kind: Service"),
                TemplateFile::new("deployment.yaml", "kind: Deployment"),
            ],
        );
        assert_eq!(chart.manifest_templates().count(), 2);
        assert_eq!(chart.helper_templates().count(), 1);
        assert!(chart.templates()[0].is_helper());
    }
}
