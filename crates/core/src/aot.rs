//! Ahead-of-time policy cache: persist each validator's policy trees so a
//! cold start loads enforcement state from disk instead of re-running the
//! chart-to-validator pipeline.
//!
//! The cache file holds one record per [`ValidatorSet`] member — the
//! workload name plus its per-kind [`PolicyNode`] trees in a tagged codec —
//! sealed with the storage plane's `magic | crc32 | payload` framing
//! ([`persist::seal`]) and published through [`RealIo`]'s temp-file, rename
//! and directory-sync sequence. Loading rebuilds each member from its trees
//! with the constructor generated validators use, so a loaded validator
//! equals the one saved, takes security locks and has a reference verdict;
//! it compiles its arena lazily on first use, as a generated one does.
//!
//! Tree layout, on [`kf_yaml::binary`]'s primitives: a member count, then
//! per member the workload name, a kind count and, per kind in increasing
//! order, the kind name and its tree. A node is a one-byte tag and its
//! payload: `Any`; `Type` and its placeholder; `Const` and its value;
//! `Enum` and its values; `Pattern` and its text; `Map` and its
//! `key, node` entries in strictly increasing key order; `Seq` and its
//! element.
//!
//! A stale or corrupt cache is never trusted: a foreign magic (the arena
//! format's `KFAOT1` and the fixed-width value layout's `KFAOT2`
//! included), a CRC mismatch, an unknown node tag, kind or type
//! placeholder, keys out of order, nesting past
//! [`binary::MAX_DECODE_DEPTH`] and trailing bytes all fail closed with
//! [`io::ErrorKind::InvalidData`], and the caller falls back to
//! regenerating policies. See `docs/persistence.md` for where this file
//! sits in the recovery sequence.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use k8s_apiserver::persist::{self, seal, unseal};
use k8s_apiserver::{RealIo, StorageIo};
use k8s_model::ResourceKind;
use kf_yaml::binary::{self, BinaryError, Cursor, MAX_DECODE_DEPTH};

use crate::validator::{PolicyNode, TypeTag, Validator, ValidatorSet};

/// Magic header of the AOT policy cache file. Its digit follows
/// `kf_yaml::binary`'s value layout, one ahead of it because `KFAOT1` was
/// the arena format before the value layout: `KFAOT3` strings and values
/// are in the varint layout, layout 2.
pub const AOT_MAGIC: &[u8; 8] = &binary::magic(b"KFAOT", binary::LAYOUT + 1);

/// The cache file's conventional location inside a persistence directory
/// (the same directory the store snapshot and WAL live in).
pub fn aot_path(dir: &Path) -> PathBuf {
    dir.join(persist::AOT_POLICY_FILE)
}

/// Atomically write the policy trees of `set` to `path`: a sealed temp
/// file, fsync'd, renamed into place, then the directory synced — the
/// store checkpoint's discipline.
///
/// # Errors
///
/// Filesystem errors from writing or renaming.
pub fn save_validator_set(path: &Path, set: &ValidatorSet) -> io::Result<()> {
    let mut payload = Vec::new();
    binary::put_u32(&mut payload, set.validators().len() as u32);
    for validator in set.validators() {
        binary::put_str(&mut payload, validator.workload());
        let policies = validator.policies();
        binary::put_u32(&mut payload, policies.len() as u32);
        for (kind, tree) in policies {
            binary::put_str(&mut payload, kind.as_str());
            put_node(&mut payload, tree);
        }
    }
    let tmp = path.with_extension("tmp");
    RealIo.write_file(&tmp, &seal(AOT_MAGIC, &payload))?;
    RealIo.rename(&tmp, path)?;
    RealIo.sync_parent_dir(path);
    Ok(())
}

/// Load a validator set from an AOT cache written by
/// [`save_validator_set`]. Returns `Ok(None)` when no cache exists.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for any corruption — bad magic, CRC
/// mismatch, or a payload the strict decoder refuses — and plain I/O
/// errors from reading the file.
pub fn load_validator_set(path: &Path) -> io::Result<Option<ValidatorSet>> {
    match RealIo.read(path) {
        Ok(bytes) => decode(&bytes).map(Some),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The validator set a sealed cache file holds.
fn decode(file: &[u8]) -> io::Result<ValidatorSet> {
    let mut cursor = Cursor::new(unseal(AOT_MAGIC, "AOT cache", file)?);
    let mut set = ValidatorSet::new();
    for _ in 0..bin(cursor.get_u32())? {
        let workload = bin(cursor.get_str())?;
        let mut kinds = BTreeMap::new();
        let mut previous = None;
        for _ in 0..bin(cursor.get_u32())? {
            let name = bin(cursor.get_str())?;
            let kind = ResourceKind::parse(&name)
                .ok_or_else(|| invalid(format!("unknown kind {name:?}")))?;
            if previous >= Some(kind) {
                return Err(invalid(format!("kind {name} out of order in {workload:?}")));
            }
            previous = Some(kind);
            kinds.insert(kind, get_node(&mut cursor, MAX_DECODE_DEPTH)?);
        }
        set.push(Validator::from_policies(&workload, kinds));
    }
    if !cursor.is_empty() {
        return Err(invalid(format!(
            "{} trailing bytes after the last validator",
            cursor.remaining()
        )));
    }
    Ok(set)
}

const NODE_ANY: u8 = 0;
const NODE_TYPE: u8 = 1;
const NODE_CONST: u8 = 2;
const NODE_ENUM: u8 = 3;
const NODE_PATTERN: u8 = 4;
const NODE_MAP: u8 = 5;
const NODE_SEQ: u8 = 6;

fn put_node(out: &mut Vec<u8>, node: &PolicyNode) {
    match node {
        PolicyNode::Any => binary::put_u8(out, NODE_ANY),
        PolicyNode::Type(tag) => {
            binary::put_u8(out, NODE_TYPE);
            binary::put_str(out, tag.placeholder());
        }
        PolicyNode::Const(value) => {
            binary::put_u8(out, NODE_CONST);
            binary::put_value(out, value);
        }
        PolicyNode::Enum(options) => {
            binary::put_u8(out, NODE_ENUM);
            binary::put_u32(out, options.len() as u32);
            for option in options {
                binary::put_value(out, option);
            }
        }
        PolicyNode::Pattern(pattern) => {
            binary::put_u8(out, NODE_PATTERN);
            binary::put_str(out, pattern);
        }
        PolicyNode::Map(children) => {
            binary::put_u8(out, NODE_MAP);
            binary::put_u32(out, children.len() as u32);
            for (key, child) in children {
                binary::put_str(out, key);
                put_node(out, child);
            }
        }
        PolicyNode::Seq(element) => {
            binary::put_u8(out, NODE_SEQ);
            put_node(out, element);
        }
    }
}

/// Decode one node that may open at most `depth` more maps or sequences.
fn get_node(cursor: &mut Cursor<'_>, depth: usize) -> io::Result<PolicyNode> {
    let tag = bin(cursor.get_u8())?;
    if matches!(tag, NODE_MAP | NODE_SEQ) && depth == 0 {
        return Err(invalid(BinaryError::TooDeep.to_string()));
    }
    Ok(match tag {
        NODE_ANY => PolicyNode::Any,
        NODE_TYPE => {
            let placeholder = bin(cursor.get_str())?;
            PolicyNode::Type(
                TypeTag::from_placeholder(&placeholder)
                    .ok_or_else(|| invalid(format!("unknown type placeholder {placeholder:?}")))?,
            )
        }
        NODE_CONST => PolicyNode::Const(bin(cursor.get_value())?),
        NODE_ENUM => {
            let len = bin(cursor.get_u32())? as usize;
            // Each option costs at least one tag byte.
            if len > cursor.remaining() {
                return Err(invalid(format!("enumeration of {len} options overruns")));
            }
            let options = (0..len).map(|_| bin(cursor.get_value()));
            PolicyNode::Enum(options.collect::<io::Result<_>>()?)
        }
        NODE_PATTERN => PolicyNode::Pattern(bin(cursor.get_str())?),
        NODE_MAP => {
            let mut children = BTreeMap::new();
            for _ in 0..bin(cursor.get_u32())? {
                let key = bin(cursor.get_str())?;
                if children
                    .last_key_value()
                    .is_some_and(|(last, _)| *last >= key)
                {
                    return Err(invalid(format!("map key {key:?} out of order")));
                }
                let child = get_node(cursor, depth - 1)?;
                children.insert(key, child);
            }
            PolicyNode::Map(children)
        }
        NODE_SEQ => PolicyNode::Seq(Box::new(get_node(cursor, depth - 1)?)),
        other => return Err(invalid(format!("unknown node tag {other}"))),
    })
}

fn bin<T>(result: Result<T, BinaryError>) -> io::Result<T> {
    result.map_err(|e| invalid(e.to_string()))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use k8s_model::{K8sObject, ResourceKind};
    use kf_yaml::BodyFormat;

    fn sample_set() -> ValidatorSet {
        let manifests = vec![kf_yaml::parse(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: int\n",
        )
        .unwrap()];
        let mut set = ValidatorSet::new();
        set.push(Validator::from_manifests("demo", &manifests).unwrap());
        set
    }

    fn temp_file(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kf-aot-{label}-{}.kfaot", std::process::id()))
    }

    /// `set` after a save and a load through a temporary cache file.
    pub(crate) fn round_trip(set: &ValidatorSet) -> ValidatorSet {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = temp_file(&format!("round-trip-{seq}"));
        save_validator_set(&path, set).unwrap();
        let loaded = load_validator_set(&path).unwrap().expect("cache present");
        std::fs::remove_file(&path).ok();
        loaded
    }

    fn deployment(replicas: &str) -> K8sObject {
        K8sObject::from_yaml(&format!(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: {replicas}\n"
        ))
        .unwrap()
    }

    #[test]
    fn saved_set_loads_and_enforces_identically() {
        let path = temp_file("roundtrip");
        let set = sample_set();
        save_validator_set(&path, &set).unwrap();
        let loaded = load_validator_set(&path).unwrap().expect("cache present");
        assert_eq!(loaded.validators().len(), 1);
        assert_eq!(loaded.validators()[0].workload(), "demo");
        // Kind routing works off the restored trees.
        assert_eq!(loaded.validators_for(ResourceKind::Deployment).len(), 1);
        // The stream serves the restored set the original set's verdicts.
        for (replicas, admits) in [("3", true), ("\"three\"", false)] {
            let body = deployment(replicas);
            for (text, format) in [
                (kf_yaml::to_yaml(body.body()), BodyFormat::Yaml),
                (kf_yaml::to_json(body.body()), BodyFormat::Json),
            ] {
                let verdict = loaded.validate_raw_format(&text, format);
                assert_eq!(verdict, set.validate_raw_format(&text, format), "{text}");
                assert_eq!(verdict.is_admitted(), admits, "{text}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_cache_is_none_and_corruption_is_invalid_data() {
        let path = temp_file("corrupt");
        std::fs::remove_file(&path).ok();
        assert!(load_validator_set(&path).unwrap().is_none());
        save_validator_set(&path, &sample_set()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_validator_set(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// Mutated cases per decoder check. CI's `parity` job raises it via
    /// `KF_FUZZ_CASES` (see `docs/ci.md`).
    fn fuzz_cases() -> usize {
        match std::env::var("KF_FUZZ_CASES") {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("KF_FUZZ_CASES must be an integer, got `{v}`")),
            Err(_) => 256,
        }
    }

    /// A one-member payload: workload `w` with one `Pod` policy of `node`'s
    /// bytes, then `trailing`.
    fn payload(node: &[u8], trailing: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        binary::put_u32(&mut out, 1);
        binary::put_str(&mut out, "w");
        binary::put_u32(&mut out, 1);
        binary::put_str(&mut out, "Pod");
        out.extend_from_slice(node);
        out.extend_from_slice(trailing);
        out
    }

    /// A map node over `keys`, each mapping to `Any`.
    fn map_node(keys: &[&str]) -> Vec<u8> {
        let mut out = vec![NODE_MAP];
        binary::put_u32(&mut out, keys.len() as u32);
        for key in keys {
            binary::put_str(&mut out, key);
            out.push(NODE_ANY);
        }
        out
    }

    /// `levels` sequence nodes around `Any`.
    fn nested(levels: usize) -> Vec<u8> {
        let mut out = vec![NODE_SEQ; levels];
        out.push(NODE_ANY);
        out
    }

    #[test]
    fn the_decoder_fails_closed_on_corrupt_caches_without_panicking() {
        let refuses = |bytes: &[u8], what: &str| match decode(bytes) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
            Ok(_) => panic!("{what}: loaded"),
        };
        let mut set = ValidatorSet::new();
        for operator in kf_workloads::Operator::ALL {
            let config = crate::GeneratorConfig::for_release(operator.release_name());
            set.push(
                crate::PolicyGenerator::new(config)
                    .generate(&operator.chart())
                    .unwrap(),
            );
        }
        let path = temp_file("decoder");
        save_validator_set(&path, &set).unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(decode(&file).unwrap(), set);
        assert_eq!(&file[..8], b"KFAOT3\0\0", "the varint layout's cache");
        let body = &file[12..];

        for cut in 0..file.len() {
            refuses(&file[..cut], &format!("file cut at {cut}"));
        }
        // The arena format's magic with a valid CRC.
        refuses(&seal(b"KFAOT1\0\0", body), "KFAOT1");
        // The fixed-width value layout's magic, likewise.
        refuses(&seal(b"KFAOT2\0\0", body), "KFAOT2");
        // Truncated payloads sealed afresh reach the decoder.
        let stride = (body.len() / fuzz_cases().max(1)).max(1);
        for cut in (0..body.len()).step_by(stride) {
            refuses(
                &seal(AOT_MAGIC, &body[..cut]),
                &format!("payload cut at {cut}"),
            );
        }

        // Hand-built payloads: each sound one loads, each corrupt one fails.
        let sealed = |node: &[u8], trailing: &[u8]| seal(AOT_MAGIC, &payload(node, trailing));
        let mut int_type = vec![NODE_TYPE];
        binary::put_str(&mut int_type, "int");
        for (node, what) in [
            (vec![NODE_ANY], "Any"),
            (int_type, "a type"),
            (map_node(&["a", "b"]), "sorted keys"),
            (nested(MAX_DECODE_DEPTH), "nesting at the bound"),
        ] {
            assert!(decode(&sealed(&node, &[])).is_ok(), "{what}");
        }
        let mut bad_type = vec![NODE_TYPE];
        binary::put_str(&mut bad_type, "integer");
        let mut bad_kind = payload(&[NODE_ANY], &[]);
        let at = bad_kind.len() - 4;
        bad_kind[at..at + 3].copy_from_slice(b"Pad");
        let mut unordered_kinds = Vec::new();
        binary::put_u32(&mut unordered_kinds, 1);
        binary::put_str(&mut unordered_kinds, "w");
        binary::put_u32(&mut unordered_kinds, 2);
        for kind in [ResourceKind::ALL[1], ResourceKind::ALL[0]] {
            binary::put_str(&mut unordered_kinds, kind.as_str());
            unordered_kinds.push(NODE_ANY);
        }
        for (bytes, what) in [
            (sealed(&[7], &[]), "unknown node tag"),
            (sealed(&bad_type, &[]), "unknown type placeholder"),
            (sealed(&map_node(&["b", "a"]), &[]), "keys out of order"),
            (sealed(&map_node(&["a", "a"]), &[]), "duplicate keys"),
            (
                sealed(&nested(MAX_DECODE_DEPTH + 1), &[]),
                "nesting past the bound",
            ),
            (sealed(&nested(1_000_000), &[]), "nesting 10^6 deep"),
            (sealed(&[NODE_ANY], &[0]), "trailing bytes"),
            (seal(AOT_MAGIC, &bad_kind), "unknown kind"),
            (seal(AOT_MAGIC, &unordered_kinds), "kinds out of order"),
        ] {
            refuses(&bytes, what);
        }

        // Seeded single-byte mutations, sealed afresh: each loads or is
        // refused, and whatever loads serves a verdict.
        let probe = kf_yaml::to_yaml(deployment("3").body());
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let (mut loaded, mut refused) = (0, 0);
        for _ in 0..fuzz_cases() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut mutated = body.to_vec();
            let at = (state % mutated.len() as u64) as usize;
            let byte = (state >> 32) as u8;
            mutated[at] = if byte == mutated[at] { !byte } else { byte };
            match decode(&seal(AOT_MAGIC, &mutated)) {
                Ok(set) => {
                    let _ = set.validate_raw(&probe);
                    loaded += 1;
                }
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "byte {at}: {e}");
                    refused += 1;
                }
            }
        }
        println!("mutations: {loaded} loaded, {refused} refused");
    }
}
