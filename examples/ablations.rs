//! Ablation studies for the design choices called out in
//! `docs/architecture.md`:
//!
//! * coverage-based variant exploration vs the exhaustive cartesian product;
//! * tree-based validation vs a flat (field-name-only) check;
//! * the effect of disabling the security best-practice locks.
//!
//! ```bash
//! cargo run --example ablations
//! ```

use k8s_apiserver::ApiServer;
use kf_attacks::AttackExecutor;
use kf_workloads::Operator;
use kubefence::schema_gen::ValuesSchemaGenerator;
use kubefence::{
    ConfigurationExplorer, EnforcementProxy, GeneratorConfig, PolicyGenerator, SecurityLocks,
    Validator,
};

/// Generate a validator for the operator's chart under `security_locks`.
fn validator_with(operator: Operator, security_locks: SecurityLocks) -> Validator {
    PolicyGenerator::new(GeneratorConfig {
        security_locks,
        ..GeneratorConfig::for_release(operator.release_name())
    })
    .generate(&operator.chart())
    .expect("built-in charts generate valid policies")
}

/// Ablation 1 — variant strategy: paper's per-option coverage vs exhaustive
/// cross product.
fn ablation_variant_strategy() {
    println!("\n=== Ablation: configuration-space exploration strategy ===\n");
    println!(
        "{:<12} {:>18} {:>22}",
        "Operator", "coverage variants", "exhaustive variants"
    );
    for operator in Operator::ALL {
        let schema = ValuesSchemaGenerator::default().generate(operator.chart().values());
        let explorer = ConfigurationExplorer::new();
        println!(
            "{:<12} {:>18} {:>22}",
            operator.name(),
            explorer.variants(&schema).len(),
            explorer.exhaustive_variants(&schema).len()
        );
    }
    println!("\ncoverage exploration keeps rendering linear in the longest enumeration, while");
    println!("the cross product grows exponentially with the number of boolean/enum fields.");
}

/// Ablation 2 — flat vs tree validation: a flat check only looks at field
/// *names*, so nested injections that reuse legitimate names slip through.
fn ablation_flat_vs_tree() {
    println!("\n=== Ablation: tree-based vs flat validation ===\n");
    let operator = Operator::Nginx;
    let validator = validator_with(operator, SecurityLocks::default());
    let objects = operator.workload().default_objects();
    let allowed_names: std::collections::BTreeSet<String> = validator
        .kinds()
        .into_iter()
        .flat_map(|kind| validator.field_paths(kind))
        .filter_map(|path| path.rsplit('.').next().map(str::to_owned))
        .collect();

    let mut flat_missed = 0usize;
    let mut tree_caught = 0usize;
    let catalog = kf_attacks::catalog();
    for spec in &catalog {
        let Some(base) = objects.iter().find(|o| spec.applies_to(o.kind())) else {
            continue;
        };
        let Some(malicious) = spec.inject(base) else {
            continue;
        };
        let tree_blocks = !validator.allows(&malicious);
        // Flat check: every *leaf field name* in the request must be a known
        // field name somewhere in the policy (no structure, no values).
        let flat_blocks = malicious.field_paths().iter().any(|path| {
            let leaf = path
                .rsplit('.')
                .next()
                .unwrap_or(path)
                .trim_end_matches("[]");
            !leaf.is_empty() && !allowed_names.contains(leaf)
        });
        if tree_blocks {
            tree_caught += 1;
        }
        if tree_blocks && !flat_blocks {
            flat_missed += 1;
            println!(
                "  {}: blocked by tree validation, missed by the flat field-name check",
                spec.id
            );
        }
    }
    println!(
        "\ntree validation blocks {tree_caught}/{} catalog entries; the flat check misses {flat_missed} of them.",
        catalog.len()
    );
}

/// Ablation 3 — security locks: without them, misconfigurations that reuse
/// chart-declared fields (e.g. `runAsNonRoot: false`) are no longer caught.
fn ablation_security_locks() {
    println!("\n=== Ablation: security best-practice locks on/off ===\n");
    println!(
        "{:<12} {:>22} {:>22}",
        "Operator", "misconf blocked (locks)", "misconf blocked (none)"
    );
    for operator in Operator::ALL {
        let executor = AttackExecutor::new(
            &operator.user(),
            operator.namespace(),
            operator.workload().default_objects(),
        );
        let with_locks = validator_with(operator, SecurityLocks::default());
        let without_locks = validator_with(operator, SecurityLocks::none());

        let locked = AttackExecutor::summarize(
            &executor.execute(&EnforcementProxy::new(ApiServer::new(), with_locks)),
        );
        let unlocked = AttackExecutor::summarize(
            &executor.execute(&EnforcementProxy::new(ApiServer::new(), without_locks)),
        );
        println!(
            "{:<12} {:>22} {:>22}",
            operator.name(),
            format!(
                "{}/{}",
                locked.misconfig_mitigated, locked.misconfig_attempted
            ),
            format!(
                "{}/{}",
                unlocked.misconfig_mitigated, unlocked.misconfig_attempted
            ),
        );
    }
}

fn main() {
    ablation_variant_strategy();
    ablation_flat_vs_tree();
    ablation_security_locks();
}
