//! The run ledger: one durable record per harness invocation.
//!
//! Where cell records in the [`crate::Store`] hold progress *inside* one
//! run, the ledger tracks runs themselves: an append-only, schema-versioned JSONL
//! file (`ledger.jsonl` at the store root) gaining one record per
//! completed `mps-harness run` — config hash, kernel revision, scale,
//! jobs, per-experiment durations, store hit ratio and the final
//! convergence summary. `mps-harness runs list|show` reads it back and
//! `mps-harness report` renders it into the HTML dashboard, so run-over-
//! run comparisons need no external database.
//!
//! Records reuse the obs JSONL event encoding (`{"type":"event",
//! "name":"run","fields":{…}}`), so any trace tooling parses the ledger
//! too. The file tolerates a torn trailing line:
//! reading stops at the first unparsable record and keeps the complete
//! prefix. Records written by a *newer* ledger schema are skipped rather
//! than misread; old-schema records remain readable forever (fields are
//! free-form strings).

use crate::error::{Error, Result};
use crate::store::Store;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Current ledger record schema. Bump when a field changes meaning;
/// readers skip records from the future instead of misreading them.
/// Schema 2 added the per-(grid, worker) `dist.<grid>.<worker>.wall_us`
/// provenance fields backing the dashboard's worker lanes.
pub const LEDGER_SCHEMA: u32 = 2;

/// File name of the ledger inside a store root.
const LEDGER_FILE: &str = "ledger.jsonl";

/// One run's durable summary: free-form ordered string fields.
///
/// Field names follow the workspace dotted convention (`exp.fig3.ms`,
/// `store.hit_ratio`, `conv.convergence.fig3.c2.cv`); values are the
/// exact strings the run formatted, so floats round-trip bit-identically
/// through Rust's shortest-representation `Display`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunRecord {
    /// Ordered key/value payload.
    pub fields: BTreeMap<String, String>,
}

impl RunRecord {
    /// An empty record stamped with the current [`LEDGER_SCHEMA`].
    pub fn new() -> Self {
        let mut r = RunRecord {
            fields: BTreeMap::new(),
        };
        r.set("ledger_schema", LEDGER_SCHEMA.to_string());
        r
    }

    /// Sets one field (replacing any previous value).
    pub fn set(&mut self, key: &str, value: impl Into<String>) {
        self.fields.insert(key.to_owned(), value.into());
    }

    /// The field's raw string value, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// The field parsed as `f64`, if present and numeric.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// The field parsed as `u64`, if present and numeric.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    /// The schema this record was written under (0 if absent).
    pub fn schema(&self) -> u32 {
        self.get("ledger_schema")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }
}

/// An append-only ledger file.
#[derive(Debug, Clone)]
pub struct Ledger {
    path: PathBuf,
}

impl Ledger {
    /// The ledger at an explicit file path (need not exist yet).
    pub fn at_path(path: impl Into<PathBuf>) -> Self {
        Ledger { path: path.into() }
    }

    /// The store's ledger (`<root>/ledger.jsonl`).
    pub fn in_store(store: &Store) -> Self {
        Ledger::at_path(store.root().join(LEDGER_FILE))
    }

    /// The ledger's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, fsyncing before returning so a crash
    /// immediately after cannot lose it.
    ///
    /// # Errors
    ///
    /// Propagates file create/append failures.
    pub fn append(&self, record: &RunRecord) -> Result<()> {
        let fields: Vec<(&str, String)> = record
            .fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let mut line = mps_obs::jsonl::encode_event("run", &fields);
        line.push('\n');
        // A crash mid-append leaves a torn line with no trailing newline;
        // isolate it on its own (unparsable, hence skipped) line instead
        // of gluing the new record onto it.
        if fs::metadata(&self.path).is_ok_and(|m| m.len() > 0)
            && !fs::read(&self.path).is_ok_and(|b| b.ends_with(b"\n"))
        {
            line.insert(0, '\n');
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| Error::Io(format!("open ledger {}: {e}", self.path.display())))?;
        file.write_all(line.as_bytes())
            .map_err(|e| Error::Io(format!("append ledger: {e}")))?;
        file.sync_data()
            .map_err(|e| Error::Io(format!("sync ledger: {e}")))?;
        mps_obs::counter("ledger.appended").incr();
        Ok(())
    }

    /// Reads every complete record, oldest first.
    ///
    /// A missing file is an empty ledger. Torn lines (crash mid-append)
    /// and unparsable garbage are skipped, keeping every complete record
    /// around them. Records stamped with a schema newer than
    /// [`LEDGER_SCHEMA`] are skipped too.
    ///
    /// # Errors
    ///
    /// Propagates read failures other than "file does not exist".
    pub fn read_all(&self) -> Result<Vec<RunRecord>> {
        let text = match fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(Error::Io(format!(
                    "read ledger {}: {e}",
                    self.path.display()
                )))
            }
        };
        let mut out = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(mps_obs::jsonl::Record::Event { name, fields }) = mps_obs::jsonl::parse(line)
            else {
                continue; // torn or garbled line: keep the records around it
            };
            if name != "run" {
                continue; // foreign event in the file: ignore, keep reading
            }
            let rec = RunRecord { fields };
            if rec.schema() > LEDGER_SCHEMA {
                continue; // from the future: skip rather than misread
            }
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_ledger(tag: &str) -> Ledger {
        let dir = std::env::temp_dir().join(format!(
            "mps-ledger-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Ledger::at_path(dir.join(LEDGER_FILE))
    }

    fn record(i: u32) -> RunRecord {
        let mut r = RunRecord::new();
        r.set("wall_ms", (1000 + i).to_string());
        r.set("conv.fig3.cv", format!("{}", 0.4 + f64::from(i)));
        r
    }

    #[test]
    fn appended_records_read_back_in_order() {
        let l = tmp_ledger("order");
        assert!(l.read_all().unwrap().is_empty(), "missing file is empty");
        for i in 0..3 {
            l.append(&record(i)).unwrap();
        }
        let recs = l.read_all().unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].u64("wall_ms"), Some(1000));
        assert_eq!(recs[2].u64("wall_ms"), Some(1002));
        assert_eq!(recs[0].schema(), LEDGER_SCHEMA);
        assert_eq!(recs[1].f64("conv.fig3.cv"), Some(1.4));
    }

    #[test]
    fn torn_tail_is_dropped_and_later_appends_survive() {
        let l = tmp_ledger("torn");
        l.append(&record(0)).unwrap();
        l.append(&record(1)).unwrap();
        let text = fs::read_to_string(l.path()).unwrap();
        fs::write(l.path(), &text[..text.len() - 7]).unwrap();
        assert_eq!(
            l.read_all().unwrap().len(),
            1,
            "torn record must not resurrect"
        );
        // The next run appends after the crash: its record must parse
        // (append isolates the torn bytes on their own line).
        l.append(&record(2)).unwrap();
        let recs = l.read_all().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].u64("wall_ms"), Some(1002));
    }

    #[test]
    fn future_schema_records_are_skipped() {
        let l = tmp_ledger("future");
        l.append(&record(0)).unwrap();
        let mut future = RunRecord::new();
        future.set("ledger_schema", (LEDGER_SCHEMA + 1).to_string());
        l.append(&future).unwrap();
        l.append(&record(2)).unwrap();
        let recs = l.read_all().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].u64("wall_ms"), Some(1002));
    }

    #[test]
    fn foreign_events_are_ignored_not_fatal() {
        let l = tmp_ledger("foreign");
        l.append(&record(0)).unwrap();
        let mut f = fs::OpenOptions::new().append(true).open(l.path()).unwrap();
        writeln!(
            f,
            "{}",
            mps_obs::jsonl::encode_event("heartbeat", &[("cells_done", "3".to_owned())])
        )
        .unwrap();
        drop(f);
        l.append(&record(1)).unwrap();
        let recs = l.read_all().unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn float_fields_round_trip_exactly() {
        let l = tmp_ledger("floats");
        let mut r = RunRecord::new();
        let v = 1.0 / 3.0;
        r.set("conv.x.cv", format!("{v}"));
        l.append(&r).unwrap();
        let recs = l.read_all().unwrap();
        assert_eq!(recs[0].f64("conv.x.cv"), Some(v), "bit-exact round trip");
    }
}
