//! Content-addressed dataset registry.
//!
//! Datasets register under a client-chosen name, but are *stored* under
//! their content [`Fingerprint`] (schema + dictionaries + codes, see
//! `muds_table::fingerprint`): registering the same data twice — under one
//! name or many, from a file path or an uploaded body, through any
//! row-order-preserving CSV round trip — lands on the same `Arc<Table>` and
//! the same cache identity. Tables are row-deduplicated on ingest (the
//! paper's §3 precondition), so the fingerprint describes the relation the
//! profilers actually see.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use muds_table::{
    fingerprint, table_from_csv_bytes, table_from_csv_file, CsvOptions, Fingerprint, Table,
    TableDelta, TableError,
};

use crate::persist::Persist;
use crate::sync::lock;

/// What a registration returned — enough for the `POST /datasets` response.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    /// Registered name.
    pub name: String,
    /// Content fingerprint (the cache identity).
    pub fingerprint: Fingerprint,
    /// Column names in schema order.
    pub columns: Vec<String>,
    /// Row count after deduplication.
    pub rows: usize,
    /// Duplicate rows dropped on ingest.
    pub rows_deduplicated: usize,
    /// True when identical content was already stored (under any name):
    /// the registry reused the existing table instead of storing a copy.
    pub already_registered: bool,
}

/// What [`Registry::apply_delta`] did — enough for the endpoint response
/// and for the server's surgical cache eviction.
#[derive(Debug, Clone)]
pub struct DeltaApplied {
    /// Fingerprint the name was bound to before the delta (the cache
    /// identity whose entries are now stale for this name).
    pub old_fingerprint: Fingerprint,
    /// Rows appended (after deduplication against the existing table).
    pub appended_rows: usize,
    /// Rows removed.
    pub deleted_rows: usize,
    /// Appended rows dropped as duplicates of existing ones.
    pub rows_deduplicated: usize,
    /// Columns whose cluster structure could have changed (the monotone
    /// invalidation frontier — see `muds_table::DeltaOutcome`).
    pub affected_columns: Vec<usize>,
    /// Registration info for the patched table (new fingerprint inside).
    pub info: DatasetInfo,
}

#[derive(Default)]
struct RegistryInner {
    /// Content-addressed store: one `Arc<Table>` per distinct content.
    tables: HashMap<Fingerprint, Arc<Table>>,
    /// Name bindings (sorted for stable listings). Re-registering a name
    /// rebinds it; unreferenced content stays resident until shutdown.
    names: BTreeMap<String, Fingerprint>,
    /// Mutation counter: versions manifest snapshots so concurrent
    /// registrations keep last-writer-wins semantics on disk too.
    version: u64,
}

/// Thread-safe dataset registry shared by all connection handlers.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
    /// Write-through persistence (`--data-dir`); `None` = memory only.
    persist: Option<Arc<Persist>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry that writes table blobs and the name manifest through to
    /// disk on every mutation.
    pub fn with_persist(persist: Arc<Persist>) -> Self {
        Registry { inner: Mutex::default(), persist: Some(persist) }
    }

    /// Seeds the registry from recovered state without re-persisting it
    /// (the blobs and manifest are already on disk).
    pub fn restore(&self, tables: Vec<(Fingerprint, Table)>, names: BTreeMap<String, Fingerprint>) {
        let mut inner = lock(&self.inner);
        // lint:allow(hash-order): `tables` is a Vec in directory-read order;
        // every element lands in a fingerprint-keyed map, so iteration order
        // cannot affect the resulting registry state.
        for (fp, table) in tables {
            inner.tables.insert(fp, Arc::new(table));
        }
        inner.names = names;
        inner.version += 1;
        // Seed the persisted-manifest version so the first live mutation
        // (version 2+) always supersedes the recovered snapshot.
        if let Some(persist) = &self.persist {
            persist.note_manifest_version(inner.version);
        }
    }

    /// Registers an already-built table under `name`.
    pub fn register_table(&self, name: &str, table: Table) -> DatasetInfo {
        let before = table.num_rows();
        let table = if table.has_duplicate_rows() { table.dedup_rows() } else { table };
        let fp = fingerprint(&table);
        let rows = table.num_rows();
        let columns: Vec<String> = table.column_names().iter().map(|c| c.to_string()).collect();
        let table = Arc::new(table);
        let (already_registered, version, names_snapshot) = {
            let mut inner = lock(&self.inner);
            let already_registered = inner.tables.contains_key(&fp);
            if !already_registered {
                inner.tables.insert(fp, Arc::clone(&table));
            }
            inner.names.insert(name.to_string(), fp);
            inner.version += 1;
            // Snapshot under the lock so the manifest written for this
            // version is exactly the bindings this mutation produced.
            let snapshot = self.persist.as_ref().map(|_| inner.names.clone());
            (already_registered, inner.version, snapshot)
        };
        // Disk writes happen outside the lock: a multi-MB table blob (and
        // its fsync) must not stall resolve() for other datasets. The blob
        // lands before the manifest that references it.
        if let Some(persist) = &self.persist {
            if !already_registered {
                persist.store_table(fp, &table);
            }
            if let Some(names) = names_snapshot {
                persist.store_manifest(version, &names);
            }
        }
        DatasetInfo {
            name: name.to_string(),
            fingerprint: fp,
            columns,
            rows,
            rows_deduplicated: before - rows,
            already_registered,
        }
    }

    /// Registers a dataset from raw CSV bytes (an uploaded body).
    pub fn register_csv_bytes(
        &self,
        name: &str,
        bytes: &[u8],
        options: &CsvOptions,
    ) -> Result<DatasetInfo, TableError> {
        let table = table_from_csv_bytes(name, bytes, options)?;
        Ok(self.register_table(name, table))
    }

    /// Registers a dataset from a CSV file on the server's filesystem.
    pub fn register_csv_path(
        &self,
        name: &str,
        path: &str,
        options: &CsvOptions,
    ) -> Result<DatasetInfo, TableError> {
        let table = table_from_csv_file(path, options)?;
        Ok(self.register_table(name, table))
    }

    /// Applies `delta` to the dataset bound to `name`: builds the patched
    /// table, stores it content-addressed, and rebinds the name to the new
    /// fingerprint. The old content (and any other names bound to it) is
    /// untouched. Returns `Ok(None)` for an unknown name.
    ///
    /// The delta is applied outside the registry lock — a large table may
    /// take a while to patch, and readers of *other* datasets must not
    /// stall behind it. The name is rebound afterwards, last writer wins,
    /// exactly like re-registering.
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &TableDelta,
    ) -> Result<Option<DeltaApplied>, TableError> {
        let (old_fingerprint, old) = {
            let inner = lock(&self.inner);
            match inner.names.get(name) {
                Some(fp) => (*fp, Arc::clone(&inner.tables[fp])),
                None => return Ok(None),
            }
        };
        let outcome = old.apply_delta(delta)?;
        let info = self.register_table(name, outcome.table);
        Ok(Some(DeltaApplied {
            old_fingerprint,
            appended_rows: outcome.appended_rows,
            deleted_rows: outcome.deleted_rows,
            rows_deduplicated: outcome.rows_deduplicated,
            affected_columns: outcome.affected_columns,
            info,
        }))
    }

    /// Resolves `key` — a registered name, or a 32-hex-digit fingerprint —
    /// to the stored table.
    pub fn resolve(&self, key: &str) -> Option<(Fingerprint, Arc<Table>)> {
        let inner = lock(&self.inner);
        if let Some(fp) = inner.names.get(key) {
            return inner.tables.get(fp).map(|t| (*fp, Arc::clone(t)));
        }
        let fp: Fingerprint = key.parse().ok()?;
        inner.tables.get(&fp).map(|t| (fp, Arc::clone(t)))
    }

    /// Name bindings in sorted order: `(name, fingerprint, rows, columns)`.
    pub fn list(&self) -> Vec<(String, Fingerprint, usize, usize)> {
        let inner = lock(&self.inner);
        inner
            .names
            .iter()
            .map(|(name, fp)| {
                let t = &inner.tables[fp];
                (name.clone(), *fp, t.num_rows(), t.num_columns())
            })
            .collect()
    }

    /// Number of registered names.
    pub fn names_len(&self) -> usize {
        lock(&self.inner).names.len()
    }

    /// Number of distinct contents stored.
    pub fn contents_len(&self) -> usize {
        lock(&self.inner).tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_table::table_to_csv;

    const CSV: &str = "a,b\n1,x\n2,y\n2,y\n";

    #[test]
    fn identical_content_is_stored_once() {
        let reg = Registry::new();
        let first = reg.register_csv_bytes("one", CSV.as_bytes(), &CsvOptions::default()).unwrap();
        let second = reg.register_csv_bytes("two", CSV.as_bytes(), &CsvOptions::default()).unwrap();
        assert!(!first.already_registered);
        assert!(second.already_registered);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(reg.names_len(), 2);
        assert_eq!(reg.contents_len(), 1);
        let (fa, ta) = reg.resolve("one").unwrap();
        let (fb, tb) = reg.resolve("two").unwrap();
        assert_eq!(fa, fb);
        assert!(Arc::ptr_eq(&ta, &tb), "same content shares one table");
    }

    #[test]
    fn rows_are_deduplicated_on_ingest() {
        let reg = Registry::new();
        let info = reg.register_csv_bytes("d", CSV.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(info.rows, 2);
        assert_eq!(info.rows_deduplicated, 1);
        assert_eq!(info.columns, vec!["a", "b"]);
    }

    #[test]
    fn fingerprint_is_stable_across_row_order_preserving_reloads() {
        let reg = Registry::new();
        let info = reg.register_csv_bytes("d", CSV.as_bytes(), &CsvOptions::default()).unwrap();
        // Round-trip the stored table through CSV (quoting and duplicate
        // removal may change the bytes) and re-register: same fingerprint.
        let (_, table) = reg.resolve("d").unwrap();
        let rewritten = table_to_csv(&table, &CsvOptions::default());
        assert_ne!(rewritten.as_bytes(), CSV.as_bytes());
        let again =
            reg.register_csv_bytes("d2", rewritten.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(info.fingerprint, again.fingerprint);
        assert!(again.already_registered);
    }

    #[test]
    fn resolve_accepts_fingerprints_and_rejects_unknowns() {
        let reg = Registry::new();
        let info = reg.register_csv_bytes("d", CSV.as_bytes(), &CsvOptions::default()).unwrap();
        assert!(reg.resolve(&info.fingerprint.to_string()).is_some());
        assert!(reg.resolve("missing").is_none());
        assert!(reg.resolve(&"0".repeat(32)).is_none());
    }

    #[test]
    fn apply_delta_rebinds_the_name_and_keeps_old_content() {
        let reg = Registry::new();
        reg.register_csv_bytes("d", CSV.as_bytes(), &CsvOptions::default()).unwrap();
        let (old_fp, _) = reg.resolve("d").unwrap();
        let applied = reg
            .apply_delta("d", &TableDelta::Append { rows: vec![vec!["7".into(), "q".into()]] })
            .unwrap()
            .expect("name is registered");
        assert_eq!(applied.old_fingerprint, old_fp);
        assert_eq!(applied.appended_rows, 1);
        assert_ne!(applied.info.fingerprint, old_fp, "content changed, fingerprint changed");
        let (fp, table) = reg.resolve("d").unwrap();
        assert_eq!(fp, applied.info.fingerprint);
        assert_eq!(table.num_rows(), 3);
        // The old content is still resolvable by fingerprint.
        assert!(reg.resolve(&old_fp.to_string()).is_some());
        assert_eq!(reg.contents_len(), 2);
    }

    #[test]
    fn apply_delta_surfaces_unknown_names_and_bad_rows() {
        let reg = Registry::new();
        assert!(reg.apply_delta("ghost", &TableDelta::Delete { rows: vec![0] }).unwrap().is_none());
        reg.register_csv_bytes("d", CSV.as_bytes(), &CsvOptions::default()).unwrap();
        let err = reg.apply_delta("d", &TableDelta::Delete { rows: vec![99] }).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // The failed delta changed nothing.
        let (_, table) = reg.resolve("d").unwrap();
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn rebinding_a_name_points_at_the_new_content() {
        let reg = Registry::new();
        reg.register_csv_bytes("d", CSV.as_bytes(), &CsvOptions::default()).unwrap();
        let other = "a,b\n9,z\n8,w\n";
        let info = reg.register_csv_bytes("d", other.as_bytes(), &CsvOptions::default()).unwrap();
        let (fp, table) = reg.resolve("d").unwrap();
        assert_eq!(fp, info.fingerprint);
        assert_eq!(table.num_rows(), 2);
        assert_eq!(reg.contents_len(), 2);
    }
}
