//! Fuzz test: the streaming admission plane must reach exactly the same
//! verdicts — and report exactly the same violations — as the reference,
//! the routed walk of the policy trees (`ValidatorSet::validate_raw_tree_format`),
//! on randomly mutated manifests.
//!
//! The build environment has no crates-registry access, so instead of
//! `proptest` this uses a hand-rolled, seeded mutator: starting from every
//! operator's legitimate objects, each case applies a random sequence of
//! field overwrites, insertions and deletions (the shapes real attacks take:
//! unknown fields, wrong types, out-of-enumeration values, structural
//! damage), then checks stream/tree parity. Failures print the case seed
//! and the mutated document.

use k8s_apiserver::{ApiRequest, RequestBody};
use k8s_model::K8sObject;
use kf_yaml::{BodyFormat, Mapping, Path, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use kf_workloads::Operator;
use kubefence::{GeneratorConfig, PolicyGenerator, RawVerdict, Validator, ValidatorSet};

const MUTATIONS_PER_CASE: usize = 4;

/// Mutated cases generated per operator and per suite. The default keeps
/// local runs fast; CI's `parity` job raises it via `KF_FUZZ_CASES` (see
/// `docs/ci.md`).
fn cases_per_operator() -> usize {
    match std::env::var("KF_FUZZ_CASES") {
        // A set-but-unparsable value must fail the suite, not silently
        // fall back while also disabling the volume guards below.
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("KF_FUZZ_CASES must be an integer, got `{v}`")),
        Err(_) => 400,
    }
}

fn validator_for(operator: Operator) -> Validator {
    PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
        .generate(&operator.chart())
        .expect("built-in charts generate valid policies")
}

/// A scalar drawn from the kinds of values attackers substitute.
fn random_scalar(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0usize..6) {
        0 => Value::Bool(true),
        1 => Value::Bool(false),
        2 => Value::Int(rng.gen_range(-4096i64..4096)),
        3 => Value::Str("attacker-controlled".to_owned()),
        4 => Value::Str(format!("evil.example/pwn:{}", rng.gen_range(0u64..100))),
        _ => Value::Null,
    }
}

/// A field name that is plausibly hostile (hostNetwork, privileged, …) or
/// plain noise.
fn random_key(rng: &mut SmallRng) -> String {
    const KEYS: [&str; 8] = [
        "hostNetwork",
        "hostPID",
        "privileged",
        "runAsUser",
        "extraEnv",
        "sidecar",
        "x-injected",
        "debug",
    ];
    KEYS[rng.gen_range(0usize..KEYS.len())].to_owned()
}

/// The mutation classes [`mutate`] draws from, by index.
const MUTATION_CLASSES: [&str; 5] = [
    "overwrite a leaf",
    "graft an unknown field",
    "delete a leaf",
    "leaf to container",
    "container before kind",
];

/// Apply one random mutation to the document, using its own leaves as
/// anchor points. Returns the index of the class drawn
/// ([`MUTATION_CLASSES`]).
fn mutate(rng: &mut SmallRng, body: &mut Value) -> usize {
    let leaves: Vec<Path> = body.leaves().into_iter().map(|(path, _)| path).collect();
    let class = rng.gen_range(0..MUTATION_CLASSES.len());
    if leaves.is_empty() {
        return class;
    }
    let anchor = &leaves[rng.gen_range(0usize..leaves.len())];
    match class {
        // Overwrite a leaf with a random scalar (wrong type / wrong value).
        0 => {
            let scalar = random_scalar(rng);
            let _ = body.set_path(anchor, scalar);
        }
        // Graft an unknown field next to an existing leaf.
        1 => {
            let mut dotted = anchor.to_string();
            if let Some(cut) = dotted.rfind('.') {
                dotted.truncate(cut);
                let grafted = format!("{dotted}.{}", random_key(rng));
                if let Ok(path) = Path::parse(&grafted) {
                    let scalar = random_scalar(rng);
                    let _ = body.set_path(&path, scalar);
                }
            }
        }
        // Delete a leaf (shrinking is as important as growing).
        2 => {
            let _ = body.remove_path(anchor);
        }
        // Structural damage: replace a leaf with a container.
        3 => {
            let replacement = if rng.gen_range(0usize..2) == 0 {
                Value::Seq(vec![random_scalar(rng)])
            } else {
                Value::empty_map()
            };
            let _ = body.set_path(anchor, replacement);
        }
        // Move a container-valued root entry to the front, ahead of `kind`:
        // the stream meets it before it knows the policy root.
        _ => {
            let key = ["metadata", "spec"][rng.gen_range(0usize..2)];
            if let Value::Map(root) = body {
                if let Some(container) = root.get(key).filter(|value| !value.is_scalar()) {
                    let mut moved = Mapping::new();
                    moved.insert(key, container.clone());
                    for (other, value) in root.iter().filter(|(other, _)| *other != key) {
                        moved.insert(other, value.clone());
                    }
                    *root = moved;
                }
            }
        }
    }
    class
}

/// Round-trip every mutated manifest through the emitter and validate the
/// wire bytes on the streaming path: the streaming verdict and the raw tree
/// path (parse, then walk the policy trees) must agree — including
/// early-deny cases, where the stream stops at the first fatal violation but
/// must still report the tree path's exact violation list.
#[test]
fn streaming_verdicts_match_tree_verdicts_on_mutated_manifests() {
    let mut checked = 0usize;
    let mut stream_denied = 0usize;
    // Per mutation class: cases that drew it, then their YAML stream
    // verdicts — admitted, denied, unparsable.
    let mut by_class = [[0usize; 4]; MUTATION_CLASSES.len()];
    for operator in Operator::ALL {
        let set = ValidatorSet::single(validator_for(operator));
        let bases = operator.workload().default_objects();
        let mut rng = SmallRng::seed_from_u64(0x5EED_57E4 ^ operator.name().len() as u64);
        for case in 0..cases_per_operator() {
            let base = &bases[rng.gen_range(0usize..bases.len())];
            let mut body = base.body().clone();
            let mut drawn = [false; MUTATION_CLASSES.len()];
            for _ in 0..rng.gen_range(1usize..MUTATIONS_PER_CASE + 1) {
                drawn[mutate(&mut rng, &mut body)] = true;
            }
            // The raw path sees wire bytes: emit the mutated document.
            let text = kf_yaml::to_yaml(&body);
            let stream = set.validate_raw(&text);
            let raw_tree = set.validate_raw_tree(&text);
            checked += 1;
            let outcome = match stream {
                RawVerdict::Admitted => 1,
                RawVerdict::Denied { .. } => 2,
                RawVerdict::Unparsable { .. } => 3,
            };
            for (row, _) in by_class.iter_mut().zip(drawn).filter(|(_, drawn)| *drawn) {
                row[0] += 1;
                row[outcome] += 1;
            }
            // What an admission hands the server is the tree of the bytes,
            // in both formats.
            let json = kf_yaml::to_json(&body);
            for (wire, format) in [(&text, BodyFormat::Yaml), (&json, BodyFormat::Json)] {
                let (verdict, document) = set.admit_raw_format(wire, format);
                assert_eq!(
                    verdict,
                    set.validate_raw_format(wire, format),
                    "{} case {case} ({}): admission and validation verdicts diverged\n{wire}",
                    operator.name(),
                    format.name()
                );
                assert_located(&verdict, operator.name(), case, format.name(), wire);
                let reference = verdict.is_admitted().then(|| match format {
                    BodyFormat::Json => kf_yaml::parse_json(wire).expect("admitted JSON parses"),
                    _ => kf_yaml::parse(wire).expect("admitted YAML parses"),
                });
                assert_eq!(
                    document,
                    reference,
                    "{} case {case} ({}): the admitted document is not the tree of the bytes\n{wire}",
                    operator.name(),
                    format.name()
                );
            }
            match K8sObject::from_value(body.clone()) {
                Ok(_envelope_intact) => match (&stream, &raw_tree) {
                    // Envelope-intact documents: full verdict + violation
                    // parity.
                    (RawVerdict::Admitted, RawVerdict::Admitted) => {}
                    (
                        RawVerdict::Denied {
                            violations: stream_violations,
                            location,
                        },
                        RawVerdict::Denied {
                            violations: tree_violations,
                            ..
                        },
                    ) => {
                        stream_denied += 1;
                        assert_eq!(
                            stream_violations,
                            tree_violations,
                            "{} case {case}: streaming and tree reports diverged\n{text}",
                            operator.name()
                        );
                        // The deciding position points into the payload.
                        let location = location.expect("every stream denial is located");
                        assert!(location.line >= 1);
                        assert!(location.offset.expect("an offset") < text.len());
                    }
                    (s, t) => panic!(
                        "{} case {case}: verdicts diverged (stream {s:?} vs tree {t:?})\n{text}",
                        operator.name()
                    ),
                },
                Err(_) => {
                    // Envelope-broken documents never reach a validator on
                    // either path; both must refuse to admit, with the
                    // streaming outcome byte-identical to the reference.
                    assert!(
                        !stream.is_admitted(),
                        "{} case {case}: stream admitted an envelope-broken body\n{text}",
                        operator.name()
                    );
                    assert_eq!(
                        stream,
                        raw_tree,
                        "{} case {case}: envelope-broken outcomes diverged\n{text}",
                        operator.name()
                    );
                }
            }
        }
    }
    // The volume guard protects the default configuration; an explicit
    // KF_FUZZ_CASES override (however small, e.g. while iterating on a
    // repro) sets its own volume.
    assert!(
        std::env::var("KF_FUZZ_CASES").is_ok() || checked >= 1000,
        "parity must be pinned over at least 1k mutated manifests, got {checked}"
    );
    assert!(
        stream_denied > 0,
        "the mutator must exercise the streaming deny path"
    );
    // A case counts in every class it drew; the verdict is the YAML
    // stream's.
    println!(
        "{:<24} {:>8} {:>8} {:>8} {:>10}",
        "mutation class", "cases", "admitted", "denied", "unparsable"
    );
    for (class, [cases, admitted, denied, unparsable]) in MUTATION_CLASSES.iter().zip(by_class) {
        println!("{class:<24} {cases:>8} {admitted:>8} {denied:>8} {unparsable:>10}");
        assert!(cases > 0, "no case drew the mutation class `{class}`");
    }
}

/// Every denial the stream serves names the event that decided it.
fn assert_located(verdict: &RawVerdict, operator: &str, case: usize, format: &str, text: &str) {
    if let RawVerdict::Denied { location, .. } = verdict {
        assert!(
            location.is_some(),
            "{operator} case {case} ({format}): an unlocated denial\n{text}"
        );
    }
}

/// The document an admission builds is the one the server would have
/// parsed from the same request — `ApiRequest::materialize_body`, under the
/// negotiated format — whatever the body's shape: a container before
/// `kind:` (the stream's log then starts with it), bodies whose format is
/// detected, and a `Content-Type` that overrides the body's tag.
#[test]
fn admitted_documents_are_the_tree_the_server_would_parse() {
    for operator in Operator::ALL {
        let set = ValidatorSet::single(validator_for(operator));
        let object = &operator.workload().default_objects()[0];
        let body = object.body().as_map().expect("manifests are mappings");
        let mut pre_kind = Mapping::new();
        pre_kind.insert("metadata", body.get("metadata").expect("named").clone());
        for (key, value) in body.iter().filter(|(key, _)| *key != "metadata") {
            pre_kind.insert(key, value.clone());
        }
        let pre_kind = Value::Map(pre_kind);
        let (yaml, json) = (
            kf_yaml::to_yaml(object.body()),
            kf_yaml::to_json(object.body()),
        );
        let (pre_kind_yaml, pre_kind_json) =
            (kf_yaml::to_yaml(&pre_kind), kf_yaml::to_json(&pre_kind));
        assert!(pre_kind_yaml.starts_with("metadata:"), "{pre_kind_yaml}");
        let raw = |text: &str, format| ApiRequest {
            content_type: None,
            body: RequestBody::Raw(text.to_owned().into(), format),
            ..ApiRequest::create("operator", object)
        };
        let table = [
            ("yaml", raw(&yaml, BodyFormat::Yaml)),
            ("json", raw(&json, BodyFormat::Json)),
            (
                "pre-kind container, yaml",
                raw(&pre_kind_yaml, BodyFormat::Yaml),
            ),
            (
                "pre-kind container, json",
                raw(&pre_kind_json, BodyFormat::Json),
            ),
            ("auto-tagged yaml", raw(&yaml, BodyFormat::Auto)),
            ("auto-tagged json", raw(&json, BodyFormat::Auto)),
            (
                "json tagged yaml, sent as application/json",
                raw(&json, BodyFormat::Yaml).with_content_type("application/json"),
            ),
            (
                "yaml tagged json, sent as application/yaml",
                raw(&yaml, BodyFormat::Json).with_content_type("application/yaml"),
            ),
        ];
        for (label, request) in table {
            let payload = request.payload();
            let text = std::str::from_utf8(&payload).expect("utf-8");
            let format = request.wire_format().expect("a body");
            let (verdict, document) = set.admit_raw_format(text, format);
            assert!(
                verdict.is_admitted(),
                "{} {label}: {verdict:?}",
                operator.name()
            );
            let server_side = request
                .materialize_body()
                .expect("an admitted body parses")
                .map(|tree| Value::clone(&tree));
            assert_eq!(
                document,
                server_side,
                "{} {label}: the admitted document is not the server's parse",
                operator.name()
            );
        }
    }
}

/// Multi-document raw bodies are never admitted: a request carries exactly
/// one object. The streaming path may deny on the first document's policy
/// violations before ever tokenizing the second — either way, denied.
#[test]
fn multi_document_raw_bodies_never_admit() {
    for operator in Operator::ALL {
        let validator = validator_for(operator);
        let set = ValidatorSet::single(validator);
        let bases = operator.workload().default_objects();
        let first = kf_yaml::to_yaml(bases[0].body());
        let second = kf_yaml::to_yaml(bases[bases.len() - 1].body());
        let text = format!("{first}---\n{second}");
        let stream = set.validate_raw(&text);
        assert!(
            !stream.is_admitted(),
            "{}: streaming admitted a multi-document body",
            operator.name()
        );
        assert_eq!(
            stream,
            set.validate_raw_tree(&text),
            "{}: multi-document outcomes diverged",
            operator.name()
        );
        // A single legitimate document, by contrast, is admitted on both.
        assert!(set.validate_raw(&first).is_admitted());
        assert!(set.validate_raw_tree(&first).is_admitted());
    }
}

/// Cross-format parity: every mutated manifest is serialized as **both**
/// YAML and JSON wire bytes, and the streaming-JSON, streaming-YAML and
/// tree-reference verdicts must agree — with byte-identical violation lists
/// on denials. Locations and unparsable reasons are format-specific (line
/// numbers differ between serializations) and are excluded from the
/// byte-identity claim.
#[test]
fn cross_format_streaming_verdicts_agree() {
    let mut checked = 0usize;
    let mut denied_both = 0usize;
    for operator in Operator::ALL {
        let validator = validator_for(operator);
        let set = ValidatorSet::single(validator);
        let bases = operator.workload().default_objects();
        let mut rng = SmallRng::seed_from_u64(0xC0_F0_12_34 ^ operator.name().len() as u64);
        // Seed corpus: one over-deep body per format (a legitimate manifest
        // with a 1,000-level nest appended). Depth is a tokenizer limit, so
        // the stream and its tree reference must refuse identically.
        let nest = format!("{}{}", "[".repeat(1_000), "]".repeat(1_000));
        let deep_yaml = format!("{}overDeep: {nest}\n", kf_yaml::to_yaml(bases[0].body()));
        let base_json = kf_yaml::to_json(bases[0].body());
        let deep_json = format!(
            "{},\"overDeep\":{nest}}}",
            base_json.strip_suffix('}').expect("manifests are objects")
        );
        assert!(matches!(
            set.validate_raw_format(&deep_yaml, BodyFormat::Yaml),
            RawVerdict::Unparsable { .. }
        ));
        cross_format_case(&set, &deep_yaml, &deep_json, operator.name(), usize::MAX);
        for case in 0..cases_per_operator() {
            let base = &bases[rng.gen_range(0usize..bases.len())];
            let mut body = base.body().clone();
            for _ in 0..rng.gen_range(1usize..MUTATIONS_PER_CASE + 1) {
                mutate(&mut rng, &mut body);
            }
            let yaml = kf_yaml::to_yaml(&body);
            let json = kf_yaml::to_json(&body);
            checked += 1;
            if cross_format_case(&set, &yaml, &json, operator.name(), case) {
                denied_both += 1;
            }
        }
    }
    assert_eq!(
        checked,
        Operator::ALL.len() * cases_per_operator(),
        "every generated case must be checked"
    );
    // The volume guard protects the default configuration (400 × 5 operators
    // = 2000); an explicit KF_FUZZ_CASES override sets its own volume.
    assert!(
        std::env::var("KF_FUZZ_CASES").is_ok() || checked >= 2000,
        "cross-format parity must be pinned over at least 2k mutated manifests, got {checked}"
    );
    assert!(
        denied_both > 0,
        "the mutator must exercise the cross-format deny path"
    );
}

/// The serving configuration: one set over all five charts, where a kind
/// two charts deploy has a matcher per chart and a denial serves the closest
/// match — fewest violations, first in validator order on a tie. Mutated
/// manifests of every chart, in both formats, must get the reference's
/// violations from the stream, with a location.
#[test]
fn the_five_chart_set_serves_the_references_closest_match() {
    let mut set = ValidatorSet::new();
    for operator in Operator::ALL {
        set.push(validator_for(operator));
    }
    let mut checked = 0usize;
    let mut contested = 0usize;
    for operator in Operator::ALL {
        let bases = operator.workload().default_objects();
        let mut rng = SmallRng::seed_from_u64(0x0005_E70F_F1FE ^ operator.name().len() as u64);
        for case in 0..cases_per_operator() {
            let base = &bases[rng.gen_range(0usize..bases.len())];
            let mut body = base.body().clone();
            for _ in 0..rng.gen_range(1usize..MUTATIONS_PER_CASE + 1) {
                mutate(&mut rng, &mut body);
            }
            let matchers =
                K8sObject::peek_kind(&body).map_or(0, |kind| set.validators_for(kind).len());
            for (text, format) in [
                (kf_yaml::to_yaml(&body), BodyFormat::Yaml),
                (kf_yaml::to_json(&body), BodyFormat::Json),
            ] {
                let stream = set.validate_raw_format(&text, format);
                let tree = set.validate_raw_tree_format(&text, format);
                assert_same_outcome(&stream, &tree, operator.name(), case, format.name(), &text);
                checked += 1;
                if matchers > 1 && matches!(stream, RawVerdict::Denied { .. }) {
                    contested += 1;
                }
            }
        }
    }
    println!("{checked} bodies, {contested} denials among several matchers");
    assert!(
        contested > 0,
        "the mutator must reach denials that choose among matchers"
    );
}

/// One cross-format parity case: each format's streaming verdict equals its
/// own tree reference, the verdict class is identical across formats, and
/// denial violation lists are byte-identical. Returns whether both formats
/// denied.
fn cross_format_case(
    set: &ValidatorSet,
    yaml: &str,
    json: &str,
    operator: &str,
    case: usize,
) -> bool {
    let stream_yaml = set.validate_raw_format(yaml, BodyFormat::Yaml);
    let stream_json = set.validate_raw_format(json, BodyFormat::Json);
    let tree_yaml = set.validate_raw_tree_format(yaml, BodyFormat::Yaml);
    let tree_json = set.validate_raw_tree_format(json, BodyFormat::Json);
    // Each format's streaming verdict matches its own reference
    // exactly, modulo the added source location.
    assert_same_outcome(&stream_yaml, &tree_yaml, operator, case, "yaml", yaml);
    assert_same_outcome(&stream_json, &tree_json, operator, case, "json", json);
    // And across formats: the verdict class is identical, and
    // denial violation lists are byte-identical.
    match (&stream_yaml, &stream_json) {
        (RawVerdict::Admitted, RawVerdict::Admitted) => false,
        (
            RawVerdict::Denied {
                violations: yaml_violations,
                ..
            },
            RawVerdict::Denied {
                violations: json_violations,
                ..
            },
        ) => {
            assert_eq!(
                yaml_violations,
                json_violations,
                "{} case {case}: YAML and JSON violation lists diverged\n--- yaml ---\n{yaml}\n--- json ---\n{json}",
                operator
            );
            true
        }
        (RawVerdict::Unparsable { .. }, RawVerdict::Unparsable { .. }) => false,
        (y, j) => panic!(
            "{} case {case}: verdict class diverged across formats\nyaml: {y:?}\njson: {j:?}\n--- yaml ---\n{yaml}\n--- json ---\n{json}",
            operator
        ),
    }
}

/// Assert a streaming verdict equals its reference verdict, apart from the
/// source location the stream adds to every denial.
fn assert_same_outcome(
    stream: &RawVerdict,
    tree: &RawVerdict,
    operator: &str,
    case: usize,
    format: &str,
    text: &str,
) {
    assert_located(stream, operator, case, format, text);
    match (stream, tree) {
        (RawVerdict::Admitted, RawVerdict::Admitted) => {}
        (
            RawVerdict::Denied {
                violations: aentries,
                ..
            },
            RawVerdict::Denied {
                violations: bentries,
                ..
            },
        ) => assert_eq!(
            aentries, bentries,
            "{operator} case {case} ({format}): streaming and reference reports diverged\n{text}"
        ),
        (RawVerdict::Unparsable { .. }, RawVerdict::Unparsable { .. }) => {
            assert_eq!(
                stream, tree,
                "{operator} case {case} ({format}): unparsable outcomes diverged\n{text}"
            );
        }
        (s, t) => panic!(
            "{operator} case {case} ({format}): verdicts diverged (stream {s:?} vs tree {t:?})\n{text}"
        ),
    }
}

/// Multi-document YAML has no JSON analogue: a concatenated JSON payload is
/// a parse error (trailing content), a multi-document YAML payload is a
/// document-count defect. Both deny; the single-document forms of the same
/// manifests admit in both formats, and early-deny ordering agrees with the
/// tree on a document whose violations span the kind discovery point.
#[test]
fn multi_document_yaml_vs_single_document_json() {
    for operator in Operator::ALL {
        let validator = validator_for(operator);
        let set = ValidatorSet::single(validator);
        let bases = operator.workload().default_objects();
        let first_yaml = kf_yaml::to_yaml(bases[0].body());
        let first_json = kf_yaml::to_json(bases[0].body());
        let second_yaml = kf_yaml::to_yaml(bases[bases.len() - 1].body());
        let second_json = kf_yaml::to_json(bases[bases.len() - 1].body());
        // Single documents admit in both formats.
        assert!(set.validate_raw(&first_yaml).is_admitted());
        assert!(set
            .validate_raw_format(&first_json, BodyFormat::Json)
            .is_admitted());
        // Multi-document YAML and concatenated JSON both refuse admission,
        // each matching its own reference outcome exactly.
        let multi_yaml = format!("{first_yaml}---\n{second_yaml}");
        let multi_json = format!("{first_json}\n{second_json}");
        let stream = set.validate_raw(&multi_yaml);
        assert!(!stream.is_admitted());
        assert_eq!(stream, set.validate_raw_tree(&multi_yaml));
        let stream = set.validate_raw_format(&multi_json, BodyFormat::Json);
        assert!(matches!(stream, RawVerdict::Unparsable { .. }));
        assert_eq!(
            stream,
            set.validate_raw_tree_format(&multi_json, BodyFormat::Json)
        );
    }
}

/// Early-deny ordering: when multiple violations exist, the streaming
/// report must list them in document order for both formats — the order the
/// tree walk produces.
#[test]
fn early_deny_ordering_matches_across_formats() {
    let operator = Operator::ALL[0];
    let validator = validator_for(operator);
    let set = ValidatorSet::single(validator);
    let bases = operator.workload().default_objects();
    let pod_spec = Path::parse("spec.template.spec").unwrap();
    let mut body = bases
        .iter()
        .find(|object| object.body().get_path(&pod_spec).is_some())
        .expect("every operator deploys a pod-template workload")
        .body()
        .clone();
    // Two hostile fields inside the pod template.
    body.set_path(
        &Path::parse("spec.template.spec.hostNetwork").unwrap(),
        Value::Bool(true),
    )
    .unwrap();
    body.set_path(
        &Path::parse("spec.template.spec.hostPID").unwrap(),
        Value::Bool(true),
    )
    .unwrap();
    let yaml = kf_yaml::to_yaml(&body);
    let json = kf_yaml::to_json(&body);
    let RawVerdict::Denied {
        violations: yaml_violations,
        ..
    } = set.validate_raw(&yaml)
    else {
        panic!("expected YAML denial");
    };
    let RawVerdict::Denied {
        violations: json_violations,
        ..
    } = set.validate_raw_format(&json, BodyFormat::Json)
    else {
        panic!("expected JSON denial");
    };
    let RawVerdict::Denied {
        violations: tree_violations,
        ..
    } = set.validate_raw_tree(&yaml)
    else {
        panic!("expected tree denial");
    };
    assert!(tree_violations.len() >= 2, "expected multiple violations");
    assert_eq!(yaml_violations, tree_violations);
    assert_eq!(json_violations, tree_violations);
}

#[test]
fn unmutated_manifests_are_admitted_by_both_planes() {
    for operator in Operator::ALL {
        let set = ValidatorSet::single(validator_for(operator));
        for object in operator.workload().default_objects() {
            for (text, format) in [
                (kf_yaml::to_yaml(object.body()), BodyFormat::Yaml),
                (kf_yaml::to_json(object.body()), BodyFormat::Json),
            ] {
                assert!(
                    set.validate_raw_format(&text, format).is_admitted(),
                    "{}: the stream refuses the legitimate {} ({})",
                    operator.name(),
                    object.name(),
                    format.name()
                );
                assert!(
                    set.validate_raw_tree_format(&text, format).is_admitted(),
                    "{}: the tree reference refuses the legitimate {} ({})",
                    operator.name(),
                    object.name(),
                    format.name()
                );
            }
        }
    }
}
