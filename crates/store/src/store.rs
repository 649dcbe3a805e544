//! The content-addressed artifact store.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   artifacts/<kind>-<fnv64 of key spec, hex>.mps   one record per artifact, or one
//!                                                   cell journal per grid (kind `journal`)
//!   quarantine/<original name>.<n>                  poisoned files, kept for forensics
//! ```
//!
//! # Record format (schema 3)
//!
//! ```text
//! {"schema":3,"kind":"perf-table","key":"1f2e…","rev":3}\n   ASCII JSON header line
//! <payload bytes>                                            codec-encoded body
//! <u64 LE payload length><u64 LE payload checksum>           16-byte footer
//! ```
//!
//! The footer's checksum is [`payload_checksum`] from schema 3 on and
//! [`fnv1a64`] in schemas 1 and 2, whose layout is otherwise the same;
//! the reader picks the algorithm by the header's schema, so a store
//! written before schema 3 stays warm. Schema 1 has no `rev` field; the
//! reader treats its revision as matching. Anything newer than [`SCHEMA`]
//! yields [`Error::SchemaVersion`] from the strict reader and a plain
//! miss from the lenient one.
//!
//! # Failure behaviour
//!
//! *Writes* are atomic: payloads land in a `.tmp` sibling first and are
//! renamed into place, so readers never observe a half-written artifact
//! and a killed writer leaves only a disposable temp file (cleaned at the
//! next [`Store::open`]). *Reads* detect truncation (length footer),
//! bit rot (checksum) and malformed headers; the lenient path quarantines
//! the poisoned file and reports a miss so the caller recomputes —
//! a poisoned artifact can degrade performance, never correctness.

use crate::codec::{fnv1a64, payload_checksum};
use crate::error::{Error, Result};
use crate::journal::CellJournal;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Current on-disk schema revision: 3 since record footers carry
/// [`payload_checksum`].
pub const SCHEMA: u32 = 3;

/// Oldest schema revision the reader still accepts.
pub const MIN_SCHEMA: u32 = 1;

/// Revision of the simulation kernels whose outputs the store caches.
///
/// Artifacts are only reused when the revision they were computed with
/// matches; a mismatch evicts the stale file. **Bump this whenever a
/// change alters simulator semantics** (core model, uncore, BADCO
/// training, trace generation, RNG derivation) — pure refactors and new
/// experiments don't require a bump. Since grid cells are stored (in
/// cell journals), the sampler and estimator code that computes a cell's
/// value feeds stored values too: a change to what a sampler draws or an
/// estimator returns needs a bump as well.
pub const KERNEL_REV: u32 = 3;

/// How old a `.tmp-` file in `artifacts/` must be before [`Store::open`]
/// treats it as abandoned. A writer holds its temp file for one write and
/// fsync, far less than this, so a younger one may still be in flight.
const TEMP_FILE_MAX_AGE: Duration = Duration::from_secs(10 * 60);

/// Identifies one artifact: a `kind` (namespace, e.g. `"perf-table"`) and
/// a canonical `spec` string carrying every input the artifact depends on
/// (scale fingerprint, suite, core count, policy, …). The file name is
/// the FNV-1a64 of both, so equal specs collide on purpose — that *is*
/// the content addressing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    kind: String,
    spec: String,
}

impl ArtifactKey {
    /// Creates a key. `kind` must be filesystem-safe (lowercase, dashes).
    pub fn new(kind: impl Into<String>, spec: impl Into<String>) -> Self {
        let kind = kind.into();
        debug_assert!(
            kind.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
            "artifact kind {kind:?} must be lowercase-dashed"
        );
        ArtifactKey {
            kind,
            spec: spec.into(),
        }
    }

    /// The artifact namespace.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The canonical input-spec string.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Hex content hash used as the file name stem.
    pub fn hash_hex(&self) -> String {
        let mut bytes = Vec::with_capacity(self.kind.len() + self.spec.len() + 1);
        bytes.extend_from_slice(self.kind.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(self.spec.as_bytes());
        format!("{:016x}", fnv1a64(&bytes))
    }
}

/// Hit/miss/put/corruption/eviction accounting for one store, shared
/// with the cell journals it opens and mirrored into the `store.*`
/// observability counters.
#[derive(Debug)]
pub(crate) struct Tally {
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    corrupt: AtomicU64,
    evicted: AtomicU64,
    obs_hit: mps_obs::Counter,
    obs_miss: mps_obs::Counter,
    obs_put: mps_obs::Counter,
    obs_corrupt: mps_obs::Counter,
    obs_evict: mps_obs::Counter,
}

impl Tally {
    fn new() -> Self {
        Tally {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            obs_hit: mps_obs::counter("store.hit"),
            obs_miss: mps_obs::counter("store.miss"),
            obs_put: mps_obs::counter("store.put"),
            obs_corrupt: mps_obs::counter("store.corrupt"),
            obs_evict: mps_obs::counter("store.evict"),
        }
    }

    /// One artifact (or cell) served from the store.
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.obs_hit.incr();
    }

    /// One lookup that found no valid, current value.
    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs_miss.incr();
    }

    /// One artifact (or cell) made durable.
    pub(crate) fn put(&self) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.obs_put.incr();
    }

    /// One poisoned artifact (or cell entry) found in `path`.
    pub(crate) fn corrupt(&self, path: &Path, why: &Error) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        self.obs_corrupt.incr();
        mps_obs::event(
            "store.quarantine",
            &[
                ("path", path.display().to_string()),
                ("why", why.to_string()),
            ],
        );
    }

    /// Removes a stale or over-cap file, counting it if it was there.
    pub(crate) fn evict(&self, path: &Path) {
        if fs::remove_file(path).is_ok() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            self.obs_evict.incr();
            mps_obs::event("store.evict", &[("path", path.display().to_string())]);
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts served from disk.
    pub hits: u64,
    /// Lookups that found no (valid, current) artifact.
    pub misses: u64,
    /// Artifacts written.
    pub puts: u64,
    /// Poisoned files detected and quarantined.
    pub corrupt: u64,
    /// Stale or over-cap files evicted.
    pub evicted: u64,
}

/// The on-disk artifact store. Cheap to clone behind an `Arc`; all
/// methods take `&self` and are safe to call from many threads (the
/// underlying primitives are atomic file operations).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    tally: Arc<Tally>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// Removes leftover temp files from killed writers, and — when the
    /// `MPS_STORE_CAP_BYTES` environment variable is set — evicts the
    /// oldest artifacts until the store fits the cap.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        let store = Store {
            root,
            tally: Arc::new(Tally::new()),
        };
        for sub in ["artifacts", "quarantine"] {
            let dir = store.root.join(sub);
            fs::create_dir_all(&dir)
                .map_err(|e| Error::Io(format!("create {}: {e}", dir.display())))?;
        }
        store.sweep_temp_files();
        if let Some(cap) = std::env::var("MPS_STORE_CAP_BYTES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            store.evict_to_cap(cap);
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of the hit/miss/corruption counters.
    pub fn stats(&self) -> StoreStats {
        self.tally.stats()
    }

    /// The cell journal keyed `key` (kind `journal`), whose hits, misses,
    /// puts and corrupt entries count in this store's [`StoreStats`].
    /// Opening touches no file: the journal is read on its first lookup.
    pub fn journal(&self, key: &ArtifactKey) -> CellJournal {
        CellJournal::new(
            self.root.clone(),
            self.artifact_path(key),
            header_line(key),
            Arc::clone(&self.tally),
        )
    }

    fn artifact_path(&self, key: &ArtifactKey) -> PathBuf {
        self.root
            .join("artifacts")
            .join(format!("{}-{}.mps", key.kind(), key.hash_hex()))
    }

    /// Writes an artifact atomically (temp file + rename).
    pub fn put(&self, key: &ArtifactKey, payload: &[u8]) -> Result<()> {
        let _span = mps_obs::span("store.put");
        let path = self.artifact_path(key);
        let tmp = temp_path(&path);
        let header = header_line(key);
        let mut bytes = Vec::with_capacity(header.len() + payload.len() + 16);
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload_checksum(payload).to_le_bytes());
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        };
        write().map_err(|e| {
            let _ = fs::remove_file(&tmp);
            Error::Io(format!("write {}: {e}", path.display()))
        })?;
        self.tally.put();
        Ok(())
    }

    /// Strict read: `Ok(None)` when absent, `Err` on corruption or an
    /// unsupported schema. Does not quarantine — see [`Store::get`] for
    /// the self-healing path.
    pub fn read(&self, key: &ArtifactKey) -> Result<Option<Vec<u8>>> {
        let path = self.artifact_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Error::Io(format!("read {}: {e}", path.display()))),
        };
        let (payload, rev) = parse_record(&bytes, &path.display().to_string())?;
        if let Some(rev) = rev {
            if rev != KERNEL_REV {
                // Stale kernel revision: not corrupt, just outdated.
                return Ok(None);
            }
        }
        Ok(Some(payload.to_vec()))
    }

    /// Lenient read used by load-or-compute paths: a valid, current
    /// artifact counts a `store.hit`; anything else degrades to a miss.
    /// Corrupt files are quarantined, stale-revision files evicted.
    pub fn get(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        let _span = mps_obs::span("store.get");
        let path = self.artifact_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.tally.miss();
                return None;
            }
        };
        match parse_record(&bytes, &path.display().to_string()) {
            Ok((payload, rev)) => {
                if rev.is_some_and(|r| r != KERNEL_REV) {
                    self.tally.evict(&path);
                    self.tally.miss();
                    return None;
                }
                self.tally.hit();
                Some(payload.to_vec())
            }
            Err(Error::SchemaVersion { .. }) => {
                // Written by a newer build: leave it alone, report a miss.
                self.tally.miss();
                None
            }
            Err(e) => {
                self.quarantine(&path, &e);
                self.tally.miss();
                None
            }
        }
    }

    /// Quarantines a poisoned artifact the *caller* detected (e.g. the
    /// payload parsed but failed domain decoding), so the next lookup
    /// recomputes instead of tripping on it again.
    pub fn quarantine_key(&self, key: &ArtifactKey, why: &Error) {
        self.quarantine(&self.artifact_path(key), why);
    }

    fn quarantine(&self, path: &Path, why: &Error) {
        move_to_quarantine(&self.root, &self.tally, path, why);
    }

    /// Removes temp files abandoned by killed writers: those last written
    /// more than [`TEMP_FILE_MAX_AGE`] ago. A younger one may belong to a
    /// live `put` or journal append of another handle or process on the
    /// same root, which still has to rename or hard-link it into place.
    fn sweep_temp_files(&self) {
        let Ok(entries) = fs::read_dir(self.root.join("artifacts")) else {
            return;
        };
        let now = SystemTime::now();
        for entry in entries.flatten() {
            if !entry.file_name().to_string_lossy().contains(".tmp-") {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|md| md.modified())
                .is_ok_and(|t| {
                    now.duration_since(t)
                        .is_ok_and(|age| age > TEMP_FILE_MAX_AGE)
                });
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Evicts oldest-modified artifacts until total size fits `cap` bytes.
    pub fn evict_to_cap(&self, cap: u64) {
        let Ok(entries) = fs::read_dir(self.root.join("artifacts")) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let md = e.metadata().ok()?;
                Some((
                    md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH),
                    md.len(),
                    e.path(),
                ))
            })
            .collect();
        let mut total: u64 = files.iter().map(|f| f.1).sum();
        files.sort_by_key(|f| f.0);
        for (_, size, path) in files {
            if total <= cap {
                break;
            }
            self.tally.evict(&path);
            total = total.saturating_sub(size);
        }
    }
}

/// The first free `quarantine/<name>.<n>` slot for `path`, so repeat
/// offenders keep their history instead of overwriting it.
pub(crate) fn quarantine_slot(root: &Path, path: &Path) -> Option<PathBuf> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_owned());
    (0..u32::MAX)
        .map(|n| root.join("quarantine").join(format!("{name}.{n}")))
        .find(|dest| !dest.exists())
}

/// Counts the file at `path` as poisoned and moves it into `root`'s
/// `quarantine/`.
pub(crate) fn move_to_quarantine(root: &Path, tally: &Tally, path: &Path, why: &Error) {
    tally.corrupt(path, why);
    if let Some(dest) = quarantine_slot(root, path) {
        if fs::rename(path, &dest).is_err() {
            // Rename can fail across filesystems or races; fall
            // back to removal so the poison is gone either way.
            let _ = fs::remove_file(path);
        }
    }
}

/// A temp sibling of `path` unique to this process and call: the pid
/// keeps processes apart, the counter threads of one process. The
/// `.tmp-` infix is what [`Store::open`]'s sweep removes.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp-{}-{n}", std::process::id()))
}

/// The header line of a record or journal keyed `key`.
fn header_line(key: &ArtifactKey) -> String {
    format!(
        "{{\"schema\":{SCHEMA},\"kind\":\"{}\",\"key\":\"{}\",\"rev\":{KERNEL_REV}}}\n",
        key.kind(),
        key.hash_hex()
    )
}

/// Splits a file into (body, schema, kernel revision) after validating its
/// header line and schema. `rev` is `None` for schema-1 files, which
/// predate revision tracking.
pub(crate) fn parse_header<'a>(
    bytes: &'a [u8],
    path: &str,
) -> Result<(&'a [u8], u32, Option<u32>)> {
    let corrupt = |detail: &str| Error::Corrupt {
        path: path.to_owned(),
        detail: detail.to_owned(),
    };
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("missing header line"))?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| corrupt("non-UTF-8 header"))?;
    let schema = json_u32_field(header, "schema").ok_or_else(|| corrupt("header lacks schema"))?;
    if schema > SCHEMA {
        return Err(Error::SchemaVersion {
            path: path.to_owned(),
            found: schema,
            supported: SCHEMA,
        });
    }
    if schema < MIN_SCHEMA {
        return Err(corrupt(&format!("schema {schema} predates {MIN_SCHEMA}")));
    }
    // Schema 1 headers carry no "rev"; treat them as revision-agnostic.
    let rev = if schema >= 2 {
        Some(json_u32_field(header, "rev").ok_or_else(|| corrupt("schema>=2 header lacks rev"))?)
    } else {
        None
    };
    Ok((&bytes[nl + 1..], schema, rev))
}

/// Splits a raw record into (payload, kernel revision) after validating
/// header, schema, length footer and checksum (FNV-1a before schema 3).
/// `rev` is `None` for schema-1 records, which predate revision tracking.
fn parse_record<'a>(bytes: &'a [u8], path: &str) -> Result<(&'a [u8], Option<u32>)> {
    let corrupt = |detail: &str| Error::Corrupt {
        path: path.to_owned(),
        detail: detail.to_owned(),
    };
    let (rest, schema, rev) = parse_header(bytes, path)?;
    if rest.len() < 16 {
        return Err(corrupt("record truncated before footer"));
    }
    let (payload, footer) = rest.split_at(rest.len() - 16);
    let stored_len = u64::from_le_bytes(footer[..8].try_into().unwrap());
    let stored_sum = u64::from_le_bytes(footer[8..].try_into().unwrap());
    if stored_len != payload.len() as u64 {
        return Err(corrupt(&format!(
            "payload length {} != recorded {stored_len} (truncated write?)",
            payload.len()
        )));
    }
    let sum = if schema >= 3 {
        payload_checksum(payload)
    } else {
        fnv1a64(payload)
    };
    if stored_sum != sum {
        return Err(corrupt("payload checksum mismatch"));
    }
    Ok((payload, rev))
}

/// Extracts an unsigned integer field from a flat one-line JSON object.
/// Only handles the store's own headers — not a general JSON parser.
pub(crate) fn json_u32_field(json: &str, name: &str) -> Option<u32> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field from a flat one-line JSON object (no escapes —
/// the store never writes any).
pub(crate) fn json_str_field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":\"");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "mps-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn round_trip_hit() {
        let s = tmp_store("rt");
        let k = ArtifactKey::new("demo", "cores=2");
        assert!(s.get(&k).is_none());
        s.put(&k, b"payload").unwrap();
        assert_eq!(s.get(&k).unwrap(), b"payload");
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.puts), (1, 1, 1));
    }

    #[test]
    fn open_sweeps_only_stale_temp_files() {
        let s = tmp_store("sweep");
        let k = ArtifactKey::new("demo", "in-flight");
        let (fresh, stale) = (
            temp_path(&s.artifact_path(&k)),
            temp_path(&s.artifact_path(&k)),
        );
        fs::write(&fresh, b"a live writer's half-written record").unwrap();
        fs::write(&stale, b"a killed writer's leftover").unwrap();
        let old = SystemTime::now() - TEMP_FILE_MAX_AGE - Duration::from_secs(60);
        fs::File::options()
            .write(true)
            .open(&stale)
            .and_then(|f| f.set_modified(old))
            .unwrap();
        // A second handle on the same root: another study, or a worker
        // attaching mid-run.
        Store::open(s.root()).unwrap();
        assert!(
            fresh.exists(),
            "another handle's in-flight temp file survives"
        );
        assert!(!stale.exists(), "an abandoned temp file is swept");
    }

    #[test]
    fn concurrent_puts_of_one_key_all_succeed() {
        let s = tmp_store("race");
        let k = ArtifactKey::new("demo", "shared");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (s, k, start) = (&s, &k, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        s.put(k, &[9u8; 512]).expect("a racing put succeeds");
                    }
                });
            }
        });
        assert_eq!(s.stats().puts, 100);
        assert_eq!(s.read(&k).unwrap().unwrap(), vec![9u8; 512]);
    }

    #[test]
    fn distinct_specs_do_not_collide() {
        let s = tmp_store("keys");
        let a = ArtifactKey::new("demo", "cores=2");
        let b = ArtifactKey::new("demo", "cores=4");
        s.put(&a, b"two").unwrap();
        s.put(&b, b"four").unwrap();
        assert_eq!(s.get(&a).unwrap(), b"two");
        assert_eq!(s.get(&b).unwrap(), b"four");
    }

    #[test]
    fn truncated_record_is_quarantined_and_recomputable() {
        let s = tmp_store("trunc");
        let k = ArtifactKey::new("demo", "x");
        s.put(&k, &[7u8; 64]).unwrap();
        let path = s.artifact_path(&k);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 9]).unwrap();
        assert!(s.get(&k).is_none(), "truncated record must miss");
        assert_eq!(s.stats().corrupt, 1);
        assert!(!path.exists(), "poisoned file must leave the hot path");
        // Recompute + put heals the slot.
        s.put(&k, &[7u8; 64]).unwrap();
        assert_eq!(s.get(&k).unwrap(), vec![7u8; 64]);
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let s = tmp_store("flip");
        let k = ArtifactKey::new("demo", "x");
        s.put(&k, &[1, 2, 3, 4]).unwrap();
        let path = s.artifact_path(&k);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 20; // inside the payload
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(s.get(&k).is_none());
        assert_eq!(s.stats().corrupt, 1);
    }

    #[test]
    fn schema1_records_are_still_readable() {
        // Schema bump 1 → 2 added the "rev" field; the reader must keep
        // accepting the old layout (revision-agnostic).
        let s = tmp_store("schema1");
        let k = ArtifactKey::new("demo", "legacy");
        let payload = b"legacy payload";
        let mut bytes = format!(
            "{{\"schema\":1,\"kind\":\"demo\",\"key\":\"{}\"}}\n",
            k.hash_hex()
        )
        .into_bytes();
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        fs::write(s.artifact_path(&k), bytes).unwrap();
        assert_eq!(s.get(&k).unwrap(), payload);
        assert_eq!(s.read(&k).unwrap().unwrap(), payload);
    }

    /// A record of `payload` with a schema-`schema` header at the current
    /// kernel revision and the footer checksum `sum`.
    fn hand_record(key: &ArtifactKey, schema: u32, payload: &[u8], sum: u64) -> Vec<u8> {
        let mut bytes = format!(
            "{{\"schema\":{schema},\"kind\":\"{}\",\"key\":\"{}\",\"rev\":{KERNEL_REV}}}\n",
            key.kind(),
            key.hash_hex()
        )
        .into_bytes();
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn schema2_records_with_fnv_footers_still_hit() {
        // Schema 3 changed only the footer's checksum: a store written
        // before it must stay warm.
        let s = tmp_store("schema2");
        let k = ArtifactKey::new("demo", "before-3");
        let payload = b"written under schema 2";
        fs::write(
            s.artifact_path(&k),
            hand_record(&k, 2, payload, fnv1a64(payload)),
        )
        .unwrap();
        assert_eq!(s.get(&k).unwrap(), payload);
        assert_eq!(s.read(&k).unwrap().unwrap(), payload);
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.corrupt), (1, 0, 0));
    }

    #[test]
    fn schema3_record_with_an_fnv_footer_is_quarantined() {
        let s = tmp_store("schema3-fnv");
        let k = ArtifactKey::new("demo", "wrong-sum");
        let payload = b"a schema-3 header over an FNV-1a footer";
        let path = s.artifact_path(&k);
        fs::write(&path, hand_record(&k, 3, payload, fnv1a64(payload))).unwrap();
        assert!(matches!(s.read(&k), Err(Error::Corrupt { .. })));
        assert!(s.get(&k).is_none());
        assert_eq!(s.stats().corrupt, 1);
        assert!(!path.exists(), "the record leaves the hot path");
        assert_eq!(
            fs::read_dir(s.root().join("quarantine")).unwrap().count(),
            1
        );
    }

    #[test]
    fn put_writes_the_current_schema_and_its_checksum() {
        let s = tmp_store("schema-now");
        let k = ArtifactKey::new("demo", "now");
        let payload = [3u8; 45];
        s.put(&k, &payload).unwrap();
        let want = hand_record(&k, SCHEMA, &payload, payload_checksum(&payload));
        assert_eq!(fs::read(s.artifact_path(&k)).unwrap(), want);
    }

    #[test]
    fn newer_schema_is_refused_strictly_and_skipped_leniently() {
        let s = tmp_store("schema-next");
        let k = ArtifactKey::new("demo", "future");
        let payload = b"from the future";
        let future = SCHEMA + 1;
        let bytes = hand_record(&k, future, payload, payload_checksum(payload));
        let path = s.artifact_path(&k);
        fs::write(&path, bytes).unwrap();
        assert!(matches!(
            s.read(&k),
            Err(Error::SchemaVersion { found, .. }) if found == future
        ));
        assert!(s.get(&k).is_none());
        assert!(path.exists(), "future-schema files must not be destroyed");
        assert_eq!(s.stats().corrupt, 0);
    }

    #[test]
    fn stale_kernel_rev_is_evicted() {
        let s = tmp_store("rev");
        let k = ArtifactKey::new("demo", "old-rev");
        let payload = b"stale";
        let mut bytes = format!(
            "{{\"schema\":2,\"kind\":\"demo\",\"rev\":{}}}\n",
            KERNEL_REV - 1
        )
        .into_bytes();
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        fs::write(s.artifact_path(&k), bytes).unwrap();
        assert!(s.get(&k).is_none());
        assert_eq!(s.stats().evicted, 1);
    }

    #[test]
    fn evict_to_cap_drops_oldest_first() {
        let s = tmp_store("cap");
        let old = ArtifactKey::new("demo", "old");
        let new = ArtifactKey::new("demo", "new");
        s.put(&old, &[0u8; 256]).unwrap();
        // Ensure distinct mtimes even on coarse filesystems.
        let old_path = s.artifact_path(&old);
        let past = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        let _ = fs::File::open(&old_path).and_then(|f| f.set_modified(past).map(|_| f));
        s.put(&new, &[0u8; 64]).unwrap();
        // Cap fits the small new file but not both: only `old` must go.
        s.evict_to_cap(400);
        assert!(s.get(&new).is_some(), "newest artifact survives");
        assert!(s.get(&old).is_none(), "oldest artifact evicted");
        assert!(s.stats().evicted >= 1);
    }

    #[test]
    fn json_field_helpers() {
        let h = "{\"schema\":2,\"kind\":\"x\",\"key\":\"abc\",\"rev\":31}";
        assert_eq!(json_u32_field(h, "schema"), Some(2));
        assert_eq!(json_u32_field(h, "rev"), Some(31));
        assert_eq!(json_str_field(h, "key"), Some("abc"));
        assert_eq!(json_u32_field(h, "absent"), None);
    }
}
