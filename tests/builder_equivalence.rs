//! The compact tree builder on the traffic the paper's operators send: every
//! manifest of the five charts parses — from YAML and from JSON — to a tree
//! `==` to the insert-based reference, and YAML ↔ JSON ↔ binary round trips
//! hand the same tree back.

use kf_workloads::{DeploymentDriver, Operator};
use kf_yaml::{parse, parse_json, to_json, to_yaml};

#[path = "../crates/kf-yaml/tests/common/mod.rs"]
mod common;
use common::assert_matches_reference;

#[test]
fn compact_builder_matches_the_reference_on_the_five_charts() {
    let mut manifests = 0;
    for operator in Operator::ALL {
        for object in DeploymentDriver::new(operator).objects() {
            let context = format!("{operator} {} {}", object.kind(), object.name());
            let (yaml, json) = (to_yaml(object.body()), to_json(object.body()));
            assert_matches_reference(&yaml, false, &context);
            assert_matches_reference(&json, true, &context);
            // Either wire format denotes the tree it was rendered from.
            assert_eq!(&parse(&yaml).unwrap(), object.body(), "{context}: yaml");
            assert_eq!(
                &parse_json(&json).unwrap(),
                object.body(),
                "{context}: json"
            );
            manifests += 1;
        }
    }
    assert_eq!(manifests, 50);
}
