//! Cell journals: every completed grid cell of one (study spec, grid),
//! appended to one file.
//!
//! A grid cell is one to four `f64`s. Kept as a record file each, a cell
//! costs a file create, an fsync and a rename to write and a file open to
//! read; appended to its grid's journal it costs one `write` and one
//! `sync_data`, and a whole grid reads back in one file read.
//!
//! # File format
//!
//! ```text
//! {"schema":3,"kind":"journal","key":"1f2e…","rev":3}\n      the store's header line
//! <u64 LE key><u32 LE byte length n><n payload bytes><u64 LE checksum>   entry
//! …                                                                       entry
//! ```
//!
//! The key is the FNV-1a64 of the cell's descriptor (the journal's own key
//! already names the study spec and grid), the payload the cell's values
//! as `f64` bit patterns, and the checksum the FNV-1a64 of key, length and
//! payload. Each entry is appended with one `write` on an `O_APPEND`
//! handle and then `sync_data`'d, so a cell counts as recorded only once
//! it is durable, and concurrent appenders never interleave entries.
//!
//! Every handle on a journal, in this process or another, appends to the
//! one file at its path. An append holds the file's shared lock
//! (`flock`) through its `write` and `sync_data`; a heal (below) holds the
//! exclusive lock from before it reads the journal until its rewrite is
//! renamed into place. After taking its lock, an appender checks that its
//! handle is still the file at the path, and reopens the path if a heal
//! has replaced it.
//!
//! # Failure behaviour
//!
//! A journal is read on its first lookup and every entry is validated.
//! The first valid entry for a key wins (duplicates arise only from two
//! studies appending concurrently, and are equal because cells are pure).
//! An entry failing its checksum is skipped; one whose length runs past
//! the end of the file (a torn tail) ends the scan. Each counts one
//! `store.corrupt`, and the journal is then healed: copied to
//! `quarantine/` and rewritten with only its valid entries (temp file,
//! fsync, rename), including those other handles appended since this one
//! read it.
//! Whatever was skipped is recomputed: a cost in time, never a wrong
//! number. A journal from another `KERNEL_REV` is evicted; one from a
//! newer schema is left untouched, reads as misses and is never appended
//! to.

use crate::codec::fnv1a64;
use crate::error::{Error, Result};
use crate::store::{
    move_to_quarantine, parse_header, quarantine_slot, temp_path, Tally, KERNEL_REV, SCHEMA,
};
use std::fs;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Bytes before an entry's payload: the key and the length.
const ENTRY_HEAD: usize = 12;

/// Bytes after an entry's payload: the checksum.
const ENTRY_TAIL: usize = 8;

/// One grid's cell journal, opened by [`crate::Store::journal`]. All
/// methods take `&self` and are safe to call from many threads.
#[derive(Debug)]
pub struct CellJournal {
    /// The store root, whose `quarantine/` keeps poisoned journals.
    root: PathBuf,
    path: PathBuf,
    header: String,
    tally: Arc<Tally>,
    /// `None` until the first lookup or append reads the file.
    state: Mutex<Option<State>>,
}

/// A journal's valid entries, held compactly: a sorted index into one
/// flat value vector.
#[derive(Debug, Default)]
struct State {
    /// `(key, first value, value count)`, sorted by key.
    index: Vec<(u64, u32, u32)>,
    values: Vec<f64>,
    /// The `O_APPEND` handle, opened by the first append.
    file: Option<fs::File>,
    /// The newer schema a journal was written by: it reads as misses
    /// and is never appended to.
    foreign: Option<u32>,
}

impl State {
    /// The values stored under `key`, if any.
    fn get(&self, key: u64) -> Option<&[f64]> {
        let at = self.index.binary_search_by_key(&key, |e| e.0).ok()?;
        let (_, start, n) = self.index[at];
        Some(&self.values[start as usize..(start + n) as usize])
    }

    /// Indexes `values` under `key` unless the key is already present:
    /// the first entry for a key wins.
    fn insert(&mut self, key: u64, values: impl ExactSizeIterator<Item = f64>) {
        let Err(at) = self.index.binary_search_by_key(&key, |e| e.0) else {
            return;
        };
        let (Ok(start), Ok(n)) = (
            u32::try_from(self.values.len()),
            u32::try_from(values.len()),
        ) else {
            return; // beyond 2^32 values: served as a miss, recomputed
        };
        self.index.insert(at, (key, start, n));
        self.values.extend(values);
    }

    /// Drops `key` from the index (its values stay, unreferenced).
    fn remove(&mut self, key: u64) {
        if let Ok(at) = self.index.binary_search_by_key(&key, |e| e.0) {
            self.index.remove(at);
        }
    }
}

impl CellJournal {
    pub(crate) fn new(root: PathBuf, path: PathBuf, header: String, tally: Arc<Tally>) -> Self {
        CellJournal {
            root,
            path,
            header,
            tally,
            state: Mutex::new(None),
        }
    }

    /// The `want` values recorded under `key`: one store hit, or one miss
    /// when the journal holds none. An entry with another value count is
    /// poison: it counts `store.corrupt`, leaves the journal and misses.
    pub fn get(&self, key: u64, want: usize) -> Option<Vec<f64>> {
        let mut guard = self.lock();
        let state = self.loaded(&mut guard);
        let Some(values) = state.get(key) else {
            self.tally.miss();
            return None;
        };
        if values.len() == want {
            let values = values.to_vec();
            self.tally.hit(ENTRY_HEAD + 8 * want + ENTRY_TAIL);
            return Some(values);
        }
        let why = Error::Corrupt {
            path: self.path.display().to_string(),
            detail: format!("cell {key:016x}: {} values, expected {want}", values.len()),
        };
        self.tally.corrupt(&self.path, &why);
        self.quarantine_and_rewrite(state, Some(key));
        self.tally.miss();
        None
    }

    /// Appends `values` under `key` and `sync_data`s them: one store put.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaVersion`] for a journal written by a newer schema
    /// (left untouched), [`Error::Io`] when the file cannot be created,
    /// written or synced.
    pub fn append(&self, key: u64, values: &[f64]) -> Result<()> {
        let entry = encode_entry(key, values);
        let mut guard = self.lock();
        let state = self.loaded(&mut guard);
        if let Some(found) = state.foreign {
            return Err(Error::SchemaVersion {
                path: self.path.display().to_string(),
                found,
                supported: SCHEMA,
            });
        }
        let io = |e: std::io::Error| Error::Io(format!("append {}: {e}", self.path.display()));
        let file = loop {
            let file = match &mut state.file {
                Some(file) => file,
                empty => empty.insert(self.open_for_append().map_err(io)?),
            };
            file.lock_shared().map_err(io)?;
            if self.is_current(file) {
                break file;
            }
            // Another handle healed the journal: append to its rewrite.
            state.file = None;
        };
        let written = file.write_all(&entry).and_then(|()| file.sync_data());
        let _ = file.unlock();
        written.map_err(io)?;
        self.tally.put(entry.len());
        state.insert(key, values.iter().copied());
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<State>> {
        // Every update leaves the state valid, so a panicked holder
        // leaves nothing half-done behind.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The loaded state, reading the journal file on first use.
    fn loaded<'a>(&self, guard: &'a mut Option<State>) -> &'a mut State {
        guard.get_or_insert_with(|| self.load())
    }

    /// Whether `file` is still the journal at its path, which a heal by
    /// another handle replaces.
    fn is_current(&self, file: &fs::File) -> bool {
        match (file.metadata(), fs::metadata(&self.path)) {
            (Ok(open), Ok(named)) => same_file(&open, &named),
            _ => false,
        }
    }

    /// The journal file with its exclusive lock held, once every append in
    /// progress on it has finished; `None` if it cannot be opened or
    /// locked. Dropping the file releases the lock.
    fn lock_exclusive(&self) -> Option<fs::File> {
        let file = fs::File::open(&self.path).ok()?;
        file.lock().ok()?;
        Some(file)
    }

    fn load(&self) -> State {
        let mut state = State::default();
        let Ok(bytes) = fs::read(&self.path) else {
            return state;
        };
        let shown = self.path.display().to_string();
        let body = match parse_header(&bytes, &shown) {
            Ok((_, _, rev)) if rev != Some(KERNEL_REV) => {
                let _lock = self.lock_exclusive();
                self.tally.evict(&self.path);
                return state;
            }
            Ok((body, _, _)) => body,
            Err(Error::SchemaVersion { found, .. }) => {
                state.foreign = Some(found);
                return state;
            }
            Err(why) => {
                // No readable header: nothing in the file can be trusted.
                let _lock = self.lock_exclusive();
                move_to_quarantine(&self.root, &self.tally, &self.path, &why);
                return state;
            }
        };
        // Size for one-value entries (the common cell), then give back
        // the slack: the state lives as long as the journal is open.
        let most = body.len() / (ENTRY_HEAD + 8 + ENTRY_TAIL);
        state.index.reserve_exact(most);
        state.values.reserve_exact(most);
        let bad = scan(body, |key, _, payload| {
            state.insert(key, payload.chunks_exact(8).map(f64_from_le));
        });
        state.index.shrink_to_fit();
        state.values.shrink_to_fit();
        if !bad.is_empty() {
            for detail in bad {
                let why = Error::Corrupt {
                    path: shown.clone(),
                    detail: detail.to_owned(),
                };
                self.tally.corrupt(&self.path, &why);
            }
            self.quarantine_and_rewrite(&mut state, None);
        }
        state
    }

    /// Heals the journal: copies it to `quarantine/` and atomically
    /// replaces it with its valid entries, less any under `poison`. It
    /// re-reads the journal under the exclusive lock, so entries other
    /// handles appended since `state` was read are kept (and join
    /// `state`), and a journal another handle has healed meanwhile is left
    /// as it is. Best effort: on failure the poison stays on disk, and the
    /// next reader skips it again.
    fn quarantine_and_rewrite(&self, state: &mut State, poison: Option<u64>) {
        let _lock = self.lock_exclusive();
        if let Ok(bytes) = fs::read(&self.path) {
            if let Ok((body, _, Some(KERNEL_REV))) = parse_header(&bytes, "") {
                let bad = scan(body, |key, _, payload| {
                    state.insert(key, payload.chunks_exact(8).map(f64_from_le));
                });
                if bad.is_empty() && poison.is_none() {
                    return;
                }
            }
        }
        if let Some(key) = poison {
            state.remove(key);
        }
        if let Some(dest) = quarantine_slot(&self.root, &self.path) {
            let _ = fs::copy(&self.path, dest);
        }
        let mut bytes = self.header.clone().into_bytes();
        for &(key, start, n) in &state.index {
            let values = &state.values[start as usize..(start + n) as usize];
            bytes.extend_from_slice(&encode_entry(key, values));
        }
        let tmp = temp_path(&self.path);
        let rewrite = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &self.path)?;
            sync_dir(&self.path)
        };
        if rewrite().is_err() {
            let _ = fs::remove_file(&tmp);
        }
        // An open handle would append to the replaced file.
        state.file = None;
    }

    /// Opens the journal for appending, first creating it with its header
    /// line if it does not exist. The header is written to a temp file
    /// and hard-linked into place, so a concurrent creator's entries never
    /// land before a header or get clobbered by a second one.
    fn open_for_append(&self) -> std::io::Result<fs::File> {
        let open = || fs::OpenOptions::new().append(true).open(&self.path);
        match open() {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            other => return other,
        }
        let tmp = temp_path(&self.path);
        let create = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(self.header.as_bytes())?;
            f.sync_all()?;
            match fs::hard_link(&tmp, &self.path) {
                Err(e) if e.kind() != std::io::ErrorKind::AlreadyExists => {
                    // A filesystem without hard links: rename instead.
                    fs::rename(&tmp, &self.path)?;
                }
                _ => {}
            }
            sync_dir(&self.path)
        };
        let created = create();
        let _ = fs::remove_file(&tmp);
        created?;
        open()
    }
}

/// Whether two metadata records describe the same file.
#[cfg(unix)]
fn same_file(a: &fs::Metadata, b: &fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt as _;
    (a.dev(), a.ino()) == (b.dev(), b.ino())
}

/// Whether two metadata records describe the same file: without inode
/// numbers, assumed so.
#[cfg(not(unix))]
fn same_file(_: &fs::Metadata, _: &fs::Metadata) -> bool {
    true
}

/// Fsyncs the directory holding `path`, so a created or renamed entry
/// survives an OS crash.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) => fs::File::open(dir)?.sync_all(),
        None => Ok(()),
    }
}

fn f64_from_le(bytes: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(
        bytes.try_into().expect("chunks_exact(8) yields 8 bytes"),
    ))
}

/// One entry's bytes: key, byte length, payload, checksum.
fn encode_entry(key: u64, values: &[f64]) -> Vec<u8> {
    let payload_len = 8 * values.len();
    let mut entry = Vec::with_capacity(ENTRY_HEAD + payload_len + ENTRY_TAIL);
    entry.extend_from_slice(&key.to_le_bytes());
    entry.extend_from_slice(
        &u32::try_from(payload_len)
            .expect("a grid cell holds a handful of values")
            .to_le_bytes(),
    );
    for v in values {
        entry.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let sum = fnv1a64(&entry);
    entry.extend_from_slice(&sum.to_le_bytes());
    entry
}

/// Walks the entries of a journal body (the bytes after its header line),
/// calling `visit(key, payload range, payload)` for each valid entry, with
/// the range relative to `body`. Returns why each bad entry was bad: one
/// per checksum failure (skipped), and one for a torn tail, which ends
/// the scan because nothing after it can be located.
fn scan<'a>(
    body: &'a [u8],
    mut visit: impl FnMut(u64, Range<usize>, &'a [u8]),
) -> Vec<&'static str> {
    let mut bad = Vec::new();
    let mut at = 0;
    while at < body.len() {
        let rest = &body[at..];
        let Some(head) = rest.get(..ENTRY_HEAD) else {
            bad.push("torn entry head at end of journal");
            break;
        };
        let key = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(head[8..].try_into().expect("4 bytes")) as usize;
        let end = ENTRY_HEAD + len + ENTRY_TAIL;
        let Some(entry) = rest.get(..end) else {
            bad.push("entry runs past the end of the journal (torn tail)");
            break;
        };
        let (summed, sum) = entry.split_at(end - ENTRY_TAIL);
        if !len.is_multiple_of(8)
            || u64::from_le_bytes(sum.try_into().expect("8 bytes")) != fnv1a64(summed)
        {
            bad.push("entry checksum mismatch");
        } else {
            visit(
                key,
                at + ENTRY_HEAD..at + ENTRY_HEAD + len,
                &summed[ENTRY_HEAD..],
            );
        }
        at += end;
    }
    bad
}

/// One valid entry of a journal file, as [`read_journal`] returns it.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The cell key: FNV-1a64 of the cell's descriptor.
    pub key: u64,
    /// The recorded values.
    pub values: Vec<f64>,
    /// Where the values' bytes lie in the file.
    pub payload: Range<usize>,
}

/// Every valid entry of the journal file at `path`, in file order and
/// duplicates included, for inspecting a store. Bad entries are skipped
/// as a lookup would skip them; nothing is counted, moved or rewritten.
///
/// # Errors
///
/// [`Error::Io`] when the file cannot be read; [`Error::Corrupt`] or
/// [`Error::SchemaVersion`] when its header line is malformed or newer.
pub fn read_journal(path: &Path) -> Result<Vec<JournalEntry>> {
    let bytes = fs::read(path).map_err(|e| Error::Io(format!("read {}: {e}", path.display())))?;
    let (body, _, _) = parse_header(&bytes, &path.display().to_string())?;
    let offset = bytes.len() - body.len();
    let mut entries = Vec::new();
    scan(body, |key, payload, bytes| {
        entries.push(JournalEntry {
            key,
            values: bytes.chunks_exact(8).map(f64_from_le).collect(),
            payload: offset + payload.start..offset + payload.end,
        });
    });
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArtifactKey, Store};

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!(
            "mps-journal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn key() -> ArtifactKey {
        ArtifactKey::new("journal", "grid=fig3")
    }

    fn quarantined(dir: &Path) -> usize {
        fs::read_dir(dir.join("quarantine")).unwrap().count()
    }

    /// A journal holding `cells` entries `(i, [i / 3])`, appended through
    /// one store; its path.
    fn filled(dir: &Path, cells: u64) -> PathBuf {
        let store = Store::open(dir).unwrap();
        let j = store.journal(&key());
        for i in 0..cells {
            j.append(i, &[i as f64 / 3.0]).unwrap();
        }
        assert_eq!(store.stats().puts, cells);
        j.path.clone()
    }

    #[test]
    fn appended_cells_read_back_bit_exactly() {
        let (dir, s) = tmp_store("rt");
        let j = s.journal(&key());
        assert_eq!(j.get(7, 2), None);
        assert!(!j.path.exists(), "a lookup creates nothing");
        let values = [f64::NAN, -0.0];
        j.append(7, &values).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&j.get(7, 2).unwrap()), bits(&values));
        let fresh = Store::open(&dir).unwrap();
        let got = fresh.journal(&key()).get(7, 2).unwrap();
        assert_eq!(bits(&got), bits(&values));
        assert_eq!((fresh.stats().hits, fresh.stats().misses), (1, 0));
        assert_eq!(
            (s.stats().hits, s.stats().misses, s.stats().puts),
            (1, 1, 1)
        );
    }

    #[test]
    fn torn_tail_entry_is_dropped_and_the_journal_rewritten() {
        let (dir, _) = tmp_store("torn");
        let path = filled(&dir, 3);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();

        let s = Store::open(&dir).unwrap();
        let j = s.journal(&key());
        assert_eq!(j.get(0, 1), Some(vec![0.0]));
        assert_eq!(j.get(1, 1), Some(vec![1.0 / 3.0]));
        assert_eq!(j.get(2, 1), None, "the torn cell is recomputed");
        assert_eq!(s.stats().corrupt, 1);
        assert_eq!(quarantined(&dir), 1, "the torn journal is kept");
        let entries = read_journal(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            entries[1].payload.end + 8
        );
        // The recomputed cell appends cleanly after the rewrite.
        j.append(2, &[2.0 / 3.0]).unwrap();
        let fresh = Store::open(&dir).unwrap();
        assert_eq!(fresh.journal(&key()).get(2, 1), Some(vec![2.0 / 3.0]));
        assert_eq!(fresh.stats().corrupt, 0);
    }

    #[test]
    fn bit_flipped_entry_alone_is_recomputed() {
        let (dir, _) = tmp_store("flip");
        let path = filled(&dir, 3);
        let middle = read_journal(&path).unwrap()[1].payload.start;
        let mut bytes = fs::read(&path).unwrap();
        bytes[middle] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let s = Store::open(&dir).unwrap();
        let j = s.journal(&key());
        assert_eq!(j.get(0, 1), Some(vec![0.0]));
        assert_eq!(j.get(1, 1), None, "the flipped cell misses");
        assert_eq!(j.get(2, 1), Some(vec![2.0 / 3.0]), "its successor survives");
        assert_eq!(s.stats().corrupt, 1);
        assert_eq!(quarantined(&dir), 1);
        assert_eq!(
            fs::read(
                dir.join("quarantine")
                    .read_dir()
                    .unwrap()
                    .next()
                    .unwrap()
                    .unwrap()
                    .path()
            )
            .unwrap(),
            bytes,
            "quarantine keeps the poisoned journal as found"
        );
        let keys: Vec<u64> = read_journal(&path).unwrap().iter().map(|e| e.key).collect();
        assert_eq!(keys, [0, 2], "the journal is rewritten without it");
        j.append(1, &[1.0 / 3.0]).unwrap();
        assert_eq!(s.stats().puts, 1);
        let fresh = Store::open(&dir).unwrap();
        assert_eq!(fresh.journal(&key()).get(1, 1), Some(vec![1.0 / 3.0]));
    }

    #[test]
    fn first_entry_for_a_key_wins() {
        let (dir, _) = tmp_store("dup");
        // Two handles that cannot see each other's appends, as two
        // concurrent studies on one store.
        let (a, b) = (Store::open(&dir).unwrap(), Store::open(&dir).unwrap());
        let (ja, jb) = (a.journal(&key()), b.journal(&key()));
        ja.append(5, &[1.0]).unwrap();
        assert_eq!(jb.get(5, 1), Some(vec![1.0]));
        jb.append(6, &[2.0]).unwrap();
        ja.append(6, &[3.0]).unwrap();
        assert_eq!(read_journal(&ja.path).unwrap().len(), 3);
        let fresh = Store::open(&dir).unwrap();
        assert_eq!(fresh.journal(&key()).get(6, 1), Some(vec![2.0]));
        assert_eq!(fresh.stats().corrupt, 0, "a duplicate is not poison");
    }

    #[test]
    fn wrong_value_count_is_poison() {
        let (dir, s) = tmp_store("count");
        let j = s.journal(&key());
        j.append(1, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(j.get(1, 4), None);
        assert_eq!(s.stats().corrupt, 1);
        j.append(1, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let fresh = Store::open(&dir).unwrap();
        assert_eq!(
            fresh.journal(&key()).get(1, 4),
            Some(vec![1.0, 2.0, 3.0, 4.0])
        );
    }

    /// A journal file with `header` and one valid entry `(1, [1.0])`.
    fn foreign_journal(s: &Store, header: &str) -> (PathBuf, Vec<u8>) {
        let path = s.journal(&key()).path.clone();
        let mut bytes = header.as_bytes().to_vec();
        bytes.extend_from_slice(&encode_entry(1, &[1.0]));
        fs::write(&path, &bytes).unwrap();
        (path, bytes)
    }

    #[test]
    fn stale_rev_journal_is_evicted() {
        let (_dir, s) = tmp_store("rev");
        let header = format!(
            "{{\"schema\":{SCHEMA},\"kind\":\"journal\",\"rev\":{}}}\n",
            KERNEL_REV - 1
        );
        let (path, _) = foreign_journal(&s, &header);
        let j = s.journal(&key());
        assert_eq!(j.get(1, 1), None);
        assert_eq!(s.stats().evicted, 1);
        assert!(!path.exists());
        j.append(1, &[2.0]).unwrap();
        let text = fs::read(&path).unwrap();
        assert!(text.starts_with(header_of(&s).as_bytes()), "a fresh header");
        assert_eq!(read_journal(&path).unwrap()[0].values, [2.0]);
    }

    fn header_of(s: &Store) -> String {
        s.journal(&key()).header.clone()
    }

    #[test]
    fn newer_schema_journal_is_left_alone() {
        let (_dir, s) = tmp_store("schema");
        let header = format!(
            "{{\"schema\":{},\"kind\":\"journal\",\"rev\":{KERNEL_REV}}}\n",
            SCHEMA + 1
        );
        let (path, bytes) = foreign_journal(&s, &header);
        let j = s.journal(&key());
        assert_eq!(j.get(1, 1), None, "read as a miss");
        assert!(matches!(
            j.append(2, &[2.0]),
            Err(Error::SchemaVersion { .. })
        ));
        assert_eq!(fs::read(&path).unwrap(), bytes, "left untouched");
        let st = s.stats();
        assert_eq!((st.misses, st.puts, st.corrupt, st.evicted), (1, 0, 0, 0));
    }

    #[test]
    fn unreadable_header_quarantines_the_journal() {
        let (dir, s) = tmp_store("header");
        let path = s.journal(&key()).path.clone();
        fs::write(&path, b"not a header").unwrap();
        let j = s.journal(&key());
        assert_eq!(j.get(1, 1), None);
        assert_eq!(s.stats().corrupt, 1);
        assert_eq!(quarantined(&dir), 1);
        j.append(1, &[1.0]).unwrap();
        assert_eq!(read_journal(&path).unwrap()[0].values, [1.0]);
    }

    #[test]
    fn concurrent_appends_all_read_back() {
        let (dir, s) = tmp_store("threads");
        let j = s.journal(&key());
        let threads = 4u64;
        let per = 25u64;
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (j, start) = (&j, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..per {
                        let k = t * per + i;
                        j.append(k, &[k as f64, -(k as f64)]).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.stats().puts, threads * per);
        let fresh = Store::open(&dir).unwrap();
        let jf = fresh.journal(&key());
        for k in 0..threads * per {
            assert_eq!(jf.get(k, 2), Some(vec![k as f64, -(k as f64)]), "cell {k}");
        }
        assert_eq!(fresh.stats().corrupt, 0);
        assert_eq!(read_journal(&jf.path).unwrap().len() as u64, threads * per);
    }

    #[test]
    fn appends_after_another_handles_heal_stay_visible() {
        let (dir, _) = tmp_store("heal");
        let (a, b) = (Store::open(&dir).unwrap(), Store::open(&dir).unwrap());
        let (ja, jb) = (a.journal(&key()), b.journal(&key()));
        ja.append(0, &[0.0]).unwrap();
        ja.append(1, &[1.0]).unwrap();
        // The tail tears under A's open handle.
        let len = fs::metadata(&ja.path).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&ja.path).unwrap();
        file.set_len(len - 5).unwrap();
        assert_eq!(jb.get(1, 1), None, "B's first lookup heals the journal");
        assert_eq!(b.stats().corrupt, 1);
        ja.append(2, &[2.0]).unwrap();
        let fresh = Store::open(&dir).unwrap();
        let jf = fresh.journal(&key());
        assert_eq!(jf.get(0, 1), Some(vec![0.0]));
        assert_eq!(jf.get(2, 1), Some(vec![2.0]), "A's append after the heal");
        assert_eq!(fresh.stats().corrupt, 0);
    }

    #[test]
    fn heals_racing_appends_lose_no_cell() {
        // One handle appends while other handles heal the journal again
        // and again: every cell the appender recorded must stay a hit.
        let (dir, s) = tmp_store("heal-race");
        let j = s.journal(&key());
        let healer = Store::open(&dir).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for k in 0..40u64 {
                    j.append(k, &[k as f64]).unwrap();
                }
            });
            scope.spawn(|| {
                start.wait();
                for i in 0..15u64 {
                    // A cell recorded with one value and looked up with
                    // two is poison: the lookup heals the journal. Each
                    // `journal` call is a new handle.
                    let jh = healer.journal(&key());
                    jh.append(1000 + i, &[0.5]).unwrap();
                    assert_eq!(jh.get(1000 + i, 2), None);
                    assert_eq!(healer.stats().corrupt, i + 1);
                }
            });
        });
        let fresh = Store::open(&dir).unwrap();
        let jf = fresh.journal(&key());
        for k in 0..40u64 {
            assert_eq!(jf.get(k, 1), Some(vec![k as f64]), "cell {k}");
        }
        assert_eq!(fresh.stats().corrupt, 0);
    }
}
