//! Ahead-of-time policy cache: persist compiled validator arenas so a cold
//! start loads enforcement state from disk instead of re-running the
//! chart-to-validator pipeline and the arena compiler.
//!
//! The cache file holds one record per [`ValidatorSet`] member — the
//! workload name plus the serialized arena
//! ([`CompiledValidator::to_bytes`]) — behind a magic header and a CRC-32
//! of the payload. Loading restores each member with
//! [`Validator::from_arena`], which primes the compiled form directly; the
//! authoring trees are not stored (they are a policy-*generation* artifact,
//! not an enforcement one).
//!
//! A stale or corrupt cache is never trusted: magic, CRC, per-arena
//! decoding and cross-reference checks all fail closed with
//! [`std::io::ErrorKind::InvalidData`], and the caller falls back to
//! regenerating policies. See `docs/persistence.md` for where this file
//! sits in the recovery sequence.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use kf_yaml::binary;

use crate::compile::CompiledValidator;
use crate::validator::{Validator, ValidatorSet};

/// Magic header of the AOT arena cache file.
pub const AOT_MAGIC: &[u8; 8] = b"KFAOT1\0\0";

/// The cache file's conventional location inside a persistence directory
/// (the same directory the store snapshot and WAL live in).
pub fn aot_path(dir: &Path) -> PathBuf {
    dir.join(k8s_apiserver::persist::AOT_ARENA_FILE)
}

/// Atomically write the compiled arenas of `set` to `path`
/// (temp file + rename, both fsync'd — same discipline as the store
/// snapshot).
///
/// # Errors
///
/// Filesystem errors from writing or renaming.
pub fn save_validator_set(path: &Path, set: &ValidatorSet) -> io::Result<()> {
    let mut payload = Vec::new();
    binary::put_u32(&mut payload, set.validators().len() as u32);
    for validator in set.validators() {
        binary::put_str(&mut payload, validator.workload());
        let arena = validator.compiled().to_bytes();
        binary::put_u32(&mut payload, arena.len() as u32);
        payload.extend_from_slice(&arena);
    }
    let mut framed = Vec::with_capacity(AOT_MAGIC.len() + 4 + payload.len());
    framed.extend_from_slice(AOT_MAGIC);
    framed.extend_from_slice(&binary::crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);

    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&framed)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            dir.sync_all().ok();
        }
    }
    Ok(())
}

/// Load a validator set from an AOT cache written by
/// [`save_validator_set`]. Returns `Ok(None)` when no cache exists.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for any corruption — bad magic, CRC
/// mismatch, malformed arena bytes or dangling arena indices — and plain
/// I/O errors from reading the file.
pub fn load_validator_set(path: &Path) -> io::Result<Option<ValidatorSet>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if bytes.len() < AOT_MAGIC.len() + 4 {
        return Err(invalid(format!(
            "AOT cache too short: {} bytes",
            bytes.len()
        )));
    }
    if &bytes[..AOT_MAGIC.len()] != AOT_MAGIC {
        return Err(invalid("AOT cache magic mismatch".to_owned()));
    }
    let crc_stored = u32::from_le_bytes(
        bytes[AOT_MAGIC.len()..AOT_MAGIC.len() + 4]
            .try_into()
            .expect("4 bytes"),
    );
    let payload = &bytes[AOT_MAGIC.len() + 4..];
    let crc_actual = binary::crc32(payload);
    if crc_stored != crc_actual {
        return Err(invalid(format!(
            "AOT cache CRC mismatch: stored {crc_stored:#010x}, actual {crc_actual:#010x}"
        )));
    }
    let mut cursor = binary::Cursor::new(payload);
    fn read<T>(r: Result<T, binary::BinaryError>) -> io::Result<T> {
        r.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
    let count = read(cursor.get_u32())? as usize;
    let mut set = ValidatorSet::new();
    for _ in 0..count {
        let workload = read(cursor.get_str())?;
        let arena_len = read(cursor.get_u32())? as usize;
        if arena_len > cursor.remaining() {
            return Err(invalid(format!(
                "arena for {workload:?} announces {arena_len} bytes, {} remain",
                cursor.remaining()
            )));
        }
        let arena_bytes = cursor.skip(arena_len).map_err(|e| invalid(e.to_string()))?;
        let arena = CompiledValidator::from_bytes(arena_bytes)
            .map_err(|e| invalid(format!("arena for {workload:?}: {e}")))?;
        set.push(Validator::from_arena(&workload, arena));
    }
    if !cursor.is_empty() {
        return Err(invalid(format!(
            "{} trailing bytes after the last arena",
            cursor.remaining()
        )));
    }
    Ok(Some(set))
}

#[cfg(test)]
mod tests {
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
        // Kind routing works off the compiled coverage of the restored arena.
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
}
