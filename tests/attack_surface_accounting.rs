//! Attack-surface accounting across the five operators (Figure 9 / Table I):
//! KubeFence restricts strictly more of the configurable-field surface than
//! RBAC for every workload, with the gap largest for workloads that touch
//! many endpoints (SonarQube).

use k8s_model::ResourceKind;
use kf_workloads::Operator;
use kubefence::{AttackSurfaceAnalyzer, GeneratorConfig, PolicyGenerator, Validator};

/// Configurable fields in our schema catalog (the paper's has 4,882).
const TOTAL_FIELDS: usize = 5869;

/// Table I as `examples/attack_surface` prints it: of [`TOTAL_FIELDS`], the
/// fields restrictable by RBAC and by KubeFence, in `Operator::ALL` order.
const TABLE_I: [(Operator, usize, usize); 5] = [
    (Operator::Nginx, 4557, 5763),
    (Operator::Mlflow, 4664, 5774),
    (Operator::Postgresql, 3486, 5709),
    (Operator::Rabbitmq, 4514, 5731),
    (Operator::Sonarqube, 1203, 5598),
];

fn validators() -> Vec<(Operator, Validator)> {
    Operator::ALL
        .iter()
        .map(|operator| {
            let validator =
                PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
                    .generate(&operator.chart())
                    .unwrap();
            (*operator, validator)
        })
        .collect()
}

#[test]
fn kubefence_restricts_strictly_more_than_rbac_for_every_workload() {
    let analyzer = AttackSurfaceAnalyzer::new();
    for ((operator, validator), (row, rbac, kubefence)) in validators().into_iter().zip(TABLE_I) {
        assert_eq!(operator, row);
        let surface = analyzer.analyze(&validator);
        assert_eq!(
            (
                surface.rbac_restrictable,
                surface.kubefence_restrictable,
                surface.total_fields
            ),
            (rbac, kubefence, TOTAL_FIELDS),
            "{operator}: Table I row moved"
        );
        assert!(kubefence > rbac, "{operator}");
    }
}

#[test]
fn sonarqube_has_the_lowest_rbac_reduction() {
    // SonarQube touches the most endpoints, so RBAC can blacklist the least
    // (20.73% in the paper, by far the lowest row of Table I).
    let analyzer = AttackSurfaceAnalyzer::new();
    let mut reductions: Vec<(Operator, f64)> = validators()
        .iter()
        .map(|(operator, validator)| {
            (
                *operator,
                analyzer.analyze(validator).rbac_reduction_percent(),
            )
        })
        .collect();
    reductions.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    assert_eq!(reductions[0].0, Operator::Sonarqube, "{reductions:?}");
    // and the gap to the next workload is substantial.
    assert!(reductions[1].1 - reductions[0].1 > 10.0, "{reductions:?}");
}

#[test]
fn average_improvement_is_in_the_tens_of_percentage_points() {
    let analyzer = AttackSurfaceAnalyzer::new();
    let all: Vec<Validator> = validators().into_iter().map(|(_, v)| v).collect();
    let report = analyzer.analyze_all(&all);
    let improvement = report.average_improvement_percent();
    // Exactly Σ(KubeFence − RBAC) / 5 / TOTAL_FIELDS over TABLE_I.
    assert_eq!(format!("{improvement:.2}"), "34.59");
}

#[test]
fn figure9_usage_structure_holds() {
    let analyzer = AttackSurfaceAnalyzer::new();
    let surfaces: std::collections::BTreeMap<Operator, _> = validators()
        .into_iter()
        .map(|(operator, validator)| (operator, analyzer.analyze(&validator)))
        .collect();

    // Service and ServiceAccount are used by every workload; Pod and Job only
    // by SonarQube; every usage percentage is partial (< 60%).
    for (operator, surface) in &surfaces {
        for kind in [ResourceKind::Service, ResourceKind::ServiceAccount] {
            assert!(
                surface.usage_for(kind).unwrap().used_fields > 0,
                "{operator} must use {kind}"
            );
        }
        for endpoint in &surface.endpoints {
            assert!(
                endpoint.usage_percent() < 60.0,
                "{operator} uses {:.1}% of {}, expected partial usage",
                endpoint.usage_percent(),
                endpoint.kind
            );
        }
    }
    for operator in [
        Operator::Nginx,
        Operator::Mlflow,
        Operator::Postgresql,
        Operator::Rabbitmq,
    ] {
        assert_eq!(
            surfaces[&operator]
                .usage_for(ResourceKind::Pod)
                .unwrap()
                .used_fields,
            0,
            "{operator} should not use the Pod endpoint"
        );
    }
    assert!(
        surfaces[&Operator::Sonarqube]
            .usage_for(ResourceKind::Pod)
            .unwrap()
            .used_fields
            > 0
    );
}

#[test]
fn total_field_catalog_is_in_the_papers_order_of_magnitude() {
    let analyzer = AttackSurfaceAnalyzer::new();
    // Thousands, as in the paper (4,882) — and pinned, since it is the
    // denominator of every Table I percentage.
    assert_eq!(analyzer.total_fields(), TOTAL_FIELDS);
}
