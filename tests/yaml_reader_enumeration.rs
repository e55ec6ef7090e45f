//! Bounded-exhaustive pins on the YAML reader and the serving verdict.
//!
//! The bodies are the 50 chart manifests and the 75 catalog attacks. For
//! the YAML rendering of each, every prefix and every one-character
//! deletion is read, and release builds also insert each of
//! [`INSERTED`] at every character boundary. A case's transcript is the
//! `Debug` of each event the tokenizer yields (positions included), then
//! the error's line and message. Per body, `yaml_reader_golden.txt` pins
//! the number of cases and an FNV-1a 64 hash of their transcripts, so a
//! change to the reader that moves one event or one error on any of these
//! inputs fails here. The hashes were recorded before the one-pass line
//! scanner replaced the multi-pass reader, which then passed them unedited.
//!
//! The same prefixes and deletions, in both wire formats, check the serving
//! verdict against the reference under the parity suite's rule: the stream
//! (`validate_raw_format`) and the tree walk (`validate_raw_tree_format`)
//! of the five-chart serving set reach the same verdict class, equal
//! violations and equal unparsable outcomes, and every stream denial
//! carries a location.
//!
//! Debug builds take every 8th body and no insertions. The CI parity job
//! runs the whole set with `--release`. A mismatch prints the golden file
//! as the reader reads it now, for a deliberate change to paste.

use std::fmt::Write as _;

use kf_attacks::AttackExecutor;
use kf_workloads::{DeploymentDriver, Operator};
use kf_yaml::events::Tokenizer;
use kf_yaml::{BodyFormat, Error, Value};
use kubefence::{GeneratorConfig, PolicyGenerator, RawVerdict, ValidatorSet};

/// The characters release builds insert at every boundary: white space,
/// and each byte the line scanner treats as structure.
const INSERTED: [char; 9] = [' ', '\t', '#', ':', '"', '\'', '-', '[', '{'];

/// Debug builds check one body in this many.
const DEBUG_STRIDE: usize = 8;

/// One enumerated body: a label unique in the golden file, and the object.
struct Body {
    label: String,
    value: Value,
}

/// The 50 chart manifests, then the 75 catalog attacks.
fn bodies() -> Vec<Body> {
    let mut bodies = Vec::new();
    for operator in Operator::ALL {
        for object in DeploymentDriver::new(operator).objects() {
            bodies.push(Body {
                label: format!("chart {operator} {}/{}", object.kind(), object.name()),
                value: object.body().clone(),
            });
        }
    }
    for operator in Operator::ALL {
        let executor = AttackExecutor::new(
            &operator.user(),
            operator.namespace(),
            DeploymentDriver::new(operator).objects().to_vec(),
        );
        for (spec, object) in executor.malicious_objects() {
            bodies.push(Body {
                label: format!(
                    "attack {operator} {} {}/{}",
                    spec.id,
                    object.kind(),
                    object.name()
                ),
                value: object.body().clone(),
            });
        }
    }
    assert_eq!(bodies.len(), 125, "50 manifests and 75 catalog attacks");
    bodies
}

/// The bodies this build checks, with their index among all bodies.
fn checked_bodies() -> impl Iterator<Item = (usize, Body)> {
    let stride = if cfg!(debug_assertions) {
        DEBUG_STRIDE
    } else {
        1
    };
    bodies().into_iter().enumerate().step_by(stride)
}

/// Every prefix of `text`, then every one-character deletion.
fn prefixes_and_deletions(text: &str) -> impl Iterator<Item = String> + '_ {
    let boundaries = text.char_indices().map(|(at, _)| at).chain([text.len()]);
    let prefixes = boundaries.map(|at| text[..at].to_owned());
    let deletions = text
        .char_indices()
        .map(|(at, c)| format!("{}{}", &text[..at], &text[at + c.len_utf8()..]));
    prefixes.chain(deletions)
}

/// Each of [`INSERTED`] at every character boundary of `text`.
fn insertions(text: &str) -> impl Iterator<Item = String> + '_ {
    let boundaries = text.char_indices().map(|(at, _)| at).chain([text.len()]);
    boundaries.flat_map(move |at| {
        INSERTED
            .iter()
            .map(move |c| format!("{}{c}{}", &text[..at], &text[at..]))
    })
}

/// FNV-1a 64 over a sequence of transcripts.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Write into `out` what the tokenizer makes of `yaml`: one line per event,
/// then the error's line and message if it refuses.
fn transcript(yaml: &str, out: &mut String) {
    out.clear();
    let mut tokenizer = Tokenizer::new(yaml).expect("construction never fails");
    loop {
        match tokenizer.next_event() {
            Ok(Some(event)) => writeln!(out, "{event:?}").unwrap(),
            Ok(None) => break,
            Err(Error::Parse { line, message }) => {
                writeln!(out, "! {line}: {message}").unwrap();
                break;
            }
            Err(other) => panic!("the tokenizer returned a non-parse error: {other}"),
        }
    }
}

/// The case count and transcript hash of `cases`.
fn pin(cases: impl Iterator<Item = String>) -> (usize, u64) {
    let (mut count, mut hash, mut out) = (0, Fnv::new(), String::new());
    for case in cases {
        transcript(&case, &mut out);
        hash.write(out.as_bytes());
        hash.write(b"\0");
        count += 1;
    }
    (count, hash.0)
}

/// One golden row: the prefix-and-deletion pin, and in release builds the
/// insertion pin.
fn golden_row(label: &str, yaml: &str) -> String {
    let (cases, hash) = pin(prefixes_and_deletions(yaml));
    let mut row = format!("{label} | {cases} {hash:016x}");
    if !cfg!(debug_assertions) {
        let (cases, hash) = pin(insertions(yaml));
        write!(row, " | {cases} {hash:016x}").unwrap();
    }
    row
}

#[test]
fn the_yaml_reader_reads_every_enumerated_case_as_recorded() {
    let golden = include_str!("yaml_reader_golden.txt");
    let recorded: Vec<&str> = golden
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect();
    assert_eq!(recorded.len(), 125, "one golden row per body");
    let mut mismatches = Vec::new();
    let mut actual = String::new();
    for (index, body) in checked_bodies() {
        let row = golden_row(&body.label, &kf_yaml::to_yaml(&body.value));
        // Debug rows carry the first pin only: compare that prefix.
        let expected = recorded[index];
        let matches = if cfg!(debug_assertions) {
            expected.starts_with(&format!("{row} | ")) || expected == row
        } else {
            expected == row
        };
        if !matches {
            mismatches.push(format!("  expected: {expected}\n  actual:   {row}"));
        }
        writeln!(actual, "{row}").unwrap();
    }
    assert!(
        mismatches.is_empty(),
        "{} of the checked bodies read differently:\n{}\n\nthe rows as read now:\n{actual}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The five charts' serving set, as the benchmark's stack serves it.
fn five_chart_set() -> ValidatorSet {
    let mut set = ValidatorSet::new();
    for operator in Operator::ALL {
        let config = GeneratorConfig::for_release(operator.release_name());
        set.push(
            PolicyGenerator::new(config)
                .generate(&operator.chart())
                .expect("built-in charts generate valid policies"),
        );
    }
    set
}

/// The parity suite's rule: the stream's verdict equals the reference's
/// apart from the location it adds, and every stream denial is located.
fn assert_same_outcome(stream: &RawVerdict, tree: &RawVerdict, case: &str) {
    match (stream, tree) {
        (RawVerdict::Admitted, RawVerdict::Admitted) => {}
        (
            RawVerdict::Denied {
                violations: served,
                location,
            },
            RawVerdict::Denied {
                violations: reference,
                ..
            },
        ) => {
            assert!(location.is_some(), "an unlocated denial\n{case}");
            assert_eq!(served, reference, "the reports diverged\n{case}");
        }
        (RawVerdict::Unparsable { .. }, RawVerdict::Unparsable { .. }) => {
            assert_eq!(stream, tree, "the unparsable outcomes diverged\n{case}");
        }
        (served, reference) => {
            panic!("the verdicts diverged (stream {served:?}, tree {reference:?})\n{case}")
        }
    }
}

#[test]
fn every_prefix_and_deletion_is_served_the_references_verdict() {
    let set = five_chart_set();
    let mut checked = 0usize;
    for (_, body) in checked_bodies() {
        for format in [BodyFormat::Yaml, BodyFormat::Json] {
            let text = match format {
                BodyFormat::Json => kf_yaml::to_json(&body.value),
                _ => kf_yaml::to_yaml(&body.value),
            };
            for case in prefixes_and_deletions(&text) {
                let stream = set.validate_raw_format(&case, format);
                let tree = set.validate_raw_tree_format(&case, format);
                assert_same_outcome(
                    &stream,
                    &tree,
                    &format!("{} ({format:?}):\n{case}", body.label),
                );
                checked += 1;
            }
        }
    }
    println!("{checked} cases agree");
}
