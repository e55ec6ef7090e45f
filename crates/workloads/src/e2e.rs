//! The Kubernetes end-to-end test corpus model (Figure 5, Section III-C).
//!
//! The paper runs the upstream e2e suites (6,580 tests over 12 categories,
//! Windows and disruptive tests excluded) under coverage instrumentation and
//! cross-references the covered lines with the files patched by each of the
//! 49 CVEs. The finding: only 29 tests (<0.5%) reach vulnerable code at all,
//! and 46 of the 49 CVEs are reached by none.
//!
//! We cannot run the upstream Go test suite here, so this module models the
//! corpus: the same category sizes, one feature profile per test, and a
//! CVE → trigger-feature mapping calibrated so the published relationship
//! holds. The *shape* of Figure 5 — which categories reach which CVEs, and
//! how rare that is — is what the `attack_surface` example prints.

use std::collections::BTreeMap;

use k8s_model::cve::CveDatabase;
use k8s_model::Component;

/// The e2e test categories of the paper (12 categories; Windows and
/// disruptive tests are excluded as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum E2eCategory {
    Apps,
    Auth,
    Autoscaling,
    Apimachinery,
    Instrumentation,
    Kubectl,
    Lifecycle,
    Network,
    Node,
    Scheduling,
    ServiceAccounts,
    Storage,
}

impl E2eCategory {
    /// All categories, in display order.
    pub const ALL: [E2eCategory; 12] = [
        E2eCategory::Apps,
        E2eCategory::Auth,
        E2eCategory::Autoscaling,
        E2eCategory::Apimachinery,
        E2eCategory::Instrumentation,
        E2eCategory::Kubectl,
        E2eCategory::Lifecycle,
        E2eCategory::Network,
        E2eCategory::Node,
        E2eCategory::Scheduling,
        E2eCategory::ServiceAccounts,
        E2eCategory::Storage,
    ];

    /// Display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            E2eCategory::Apps => "apps",
            E2eCategory::Auth => "auth",
            E2eCategory::Autoscaling => "autoscaling",
            E2eCategory::Apimachinery => "apimachinery",
            E2eCategory::Instrumentation => "instrumentation",
            E2eCategory::Kubectl => "kubectl",
            E2eCategory::Lifecycle => "lifecycle",
            E2eCategory::Network => "network",
            E2eCategory::Node => "node",
            E2eCategory::Scheduling => "scheduling",
            E2eCategory::ServiceAccounts => "serviceaccounts",
            E2eCategory::Storage => "storage",
        }
    }

    /// Number of tests in the category. The distribution is heavily skewed
    /// towards storage, as in the paper (6,580 tests in total, 960 outside
    /// storage).
    pub fn test_count(&self) -> usize {
        match self {
            E2eCategory::Apps => 180,
            E2eCategory::Auth => 40,
            E2eCategory::Autoscaling => 60,
            E2eCategory::Apimachinery => 150,
            E2eCategory::Instrumentation => 30,
            E2eCategory::Kubectl => 90,
            E2eCategory::Lifecycle => 50,
            E2eCategory::Network => 170,
            E2eCategory::Node => 110,
            E2eCategory::Scheduling => 60,
            E2eCategory::ServiceAccounts => 20,
            E2eCategory::Storage => 5620,
        }
    }

    /// The components a test of this category predominantly exercises.
    pub fn exercised_components(&self) -> &'static [Component] {
        match self {
            E2eCategory::Apps => &[Component::ApiServer, Component::Scheduler],
            E2eCategory::Auth => &[Component::ApiServer, Component::SecurityFeatures],
            E2eCategory::Autoscaling => &[Component::ApiServer, Component::Scheduler],
            E2eCategory::Apimachinery => &[Component::ApiServer, Component::Etcd],
            E2eCategory::Instrumentation => &[Component::ApiServer],
            E2eCategory::Kubectl => &[Component::Kubectl, Component::ApiServer],
            E2eCategory::Lifecycle => &[Component::Kubelet, Component::ApiServer],
            E2eCategory::Network => &[Component::Networking],
            E2eCategory::Node => &[Component::Kubelet, Component::SecurityFeatures],
            E2eCategory::Scheduling => &[Component::Scheduler],
            E2eCategory::ServiceAccounts => &[Component::AdmissionControllers],
            E2eCategory::Storage => &[Component::Storage, Component::Kubelet],
        }
    }
}

/// One e2e test of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2eTest {
    /// Test identifier (`<category>-<index>`).
    pub id: String,
    /// Category the test belongs to.
    pub category: E2eCategory,
    /// CVEs whose vulnerable files the test covers (empty for almost every
    /// test).
    pub covered_cves: Vec<String>,
}

/// The calibrated CVE coverage of the corpus: (CVE id, category, number of
/// tests in that category that reach the vulnerable code). These are the
/// non-zero cells of Figure 5; they sum to 29 tests, 8 of which are in the
/// storage category.
pub const CVE_COVERAGE: [(&str, E2eCategory, usize); 3] = [
    ("CVE-2023-2431", E2eCategory::Storage, 2),
    ("CVE-2017-1002101", E2eCategory::Storage, 6),
    ("CVE-2020-8554", E2eCategory::Network, 21),
];

/// The e2e corpus: all tests with their coverage annotations.
#[derive(Debug, Clone)]
pub struct E2eCorpus {
    tests: Vec<E2eTest>,
}

impl Default for E2eCorpus {
    fn default() -> Self {
        E2eCorpus::generate()
    }
}

impl E2eCorpus {
    /// Build the corpus deterministically from the category sizes and the
    /// calibrated coverage table.
    pub fn generate() -> Self {
        // Assign each CVE a disjoint range of test indices within its
        // category, so the 29 covering tests are 29 distinct tests.
        let mut ranges: BTreeMap<E2eCategory, Vec<(String, usize, usize)>> = BTreeMap::new();
        for (cve, category, count) in CVE_COVERAGE {
            let slots = ranges.entry(category).or_default();
            let start = slots.last().map(|(_, _, end)| *end).unwrap_or(0);
            slots.push(((*cve).to_owned(), start, start + count));
        }
        let mut tests = Vec::new();
        for category in E2eCategory::ALL {
            let slots = ranges.get(&category);
            for index in 0..category.test_count() {
                let covered_cves: Vec<String> = slots
                    .map(|slots| {
                        slots
                            .iter()
                            .filter(|(_, start, end)| index >= *start && index < *end)
                            .map(|(cve, _, _)| cve.clone())
                            .collect()
                    })
                    .unwrap_or_default();
                tests.push(E2eTest {
                    id: format!("{}-{index:04}", category.as_str()),
                    category,
                    covered_cves,
                });
            }
        }
        E2eCorpus { tests }
    }

    /// All tests.
    pub fn tests(&self) -> &[E2eTest] {
        &self.tests
    }

    /// Total number of tests (6,580 in the paper).
    pub fn total_tests(&self) -> usize {
        self.tests.len()
    }

    /// The tests that reach CVE-affected code.
    pub fn tests_covering_vulnerable_code(&self) -> Vec<&E2eTest> {
        self.tests
            .iter()
            .filter(|t| !t.covered_cves.is_empty())
            .collect()
    }

    /// The Figure 5 matrix: per CVE (rows, only CVEs reached by at least one
    /// test), the number of covering tests per category (columns).
    pub fn coverage_matrix(&self) -> BTreeMap<String, BTreeMap<E2eCategory, usize>> {
        let mut matrix: BTreeMap<String, BTreeMap<E2eCategory, usize>> = BTreeMap::new();
        for test in &self.tests {
            for cve in &test.covered_cves {
                *matrix
                    .entry(cve.clone())
                    .or_default()
                    .entry(test.category)
                    .or_insert(0) += 1;
            }
        }
        matrix
    }

    /// The number of CVEs in the database that no e2e test reaches (46 of 49
    /// in the paper).
    pub fn uncovered_cve_count(&self, database: &CveDatabase) -> usize {
        let covered = self.coverage_matrix();
        database
            .records()
            .iter()
            .filter(|r| !covered.contains_key(&r.id))
            .count()
    }

    /// Render the Figure 5 matrix as fixed-width text.
    pub fn to_matrix_text(&self) -> String {
        let matrix = self.coverage_matrix();
        let mut out = String::new();
        out.push_str(&format!("{:<20}", "CVE"));
        for category in E2eCategory::ALL {
            out.push_str(&format!(" {:>15}", category.as_str()));
        }
        out.push('\n');
        for (cve, row) in &matrix {
            out.push_str(&format!("{cve:<20}"));
            for category in E2eCategory::ALL {
                out.push_str(&format!(
                    " {:>15}",
                    row.get(&category).copied().unwrap_or(0)
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_size_matches_the_paper() {
        let corpus = E2eCorpus::generate();
        assert_eq!(corpus.total_tests(), 6580);
        let outside_storage: usize = E2eCategory::ALL
            .iter()
            .filter(|c| **c != E2eCategory::Storage)
            .map(|c| c.test_count())
            .sum();
        assert_eq!(outside_storage, 960);
    }

    #[test]
    fn only_a_tiny_fraction_of_tests_reach_vulnerable_code() {
        let corpus = E2eCorpus::generate();
        let covering = corpus.tests_covering_vulnerable_code();
        assert_eq!(covering.len(), 29);
        let fraction = covering.len() as f64 / corpus.total_tests() as f64;
        assert!(fraction < 0.005, "fraction = {fraction}");
        // Outside storage: 21 of 960 (~2%).
        let outside_storage = covering
            .iter()
            .filter(|t| t.category != E2eCategory::Storage)
            .count();
        assert_eq!(outside_storage, 21);
    }

    #[test]
    fn coverage_matrix_has_three_reached_cves() {
        let corpus = E2eCorpus::generate();
        let matrix = corpus.coverage_matrix();
        assert_eq!(matrix.len(), 3);
        assert_eq!(matrix["CVE-2023-2431"][&E2eCategory::Storage], 2);
        assert_eq!(matrix["CVE-2020-8554"][&E2eCategory::Network], 21);
    }

    #[test]
    fn the_remaining_cves_are_never_reached() {
        let corpus = E2eCorpus::generate();
        let db = CveDatabase::new();
        assert_eq!(corpus.uncovered_cve_count(&db), db.len() - 3);
    }

    #[test]
    fn matrix_text_lists_all_categories() {
        let text = E2eCorpus::generate().to_matrix_text();
        for category in E2eCategory::ALL {
            assert!(text.contains(category.as_str()));
        }
    }
}
