//! Spilling ingest: seal micropartitions to disk as they fill.
//!
//! The paper's workers hold datasets in memory (§5.4), but out-of-core
//! datasets cannot be *ingested* through memory either: reading a whole
//! source table just to write it back out makes ingest O(dataset). The
//! [`SpillingWriter`] keeps ingest O(micropartition): rows are buffered
//! only until the current micropartition reaches its row bound, then the
//! sealed partition is written as an `hvc` file — mappable, zone-mapped,
//! 64-byte aligned — and its memory is released. The resulting directory
//! of `part-NNNNN.hvc` files is exactly what the out-of-core loader
//! ([`crate::hvc::read_file_mapped`] per part) consumes, and
//! [`crate::hvc::probe_file`] plans over it without reading payloads.
//!
//! A part is a function of its rows: [`crate::hvc::encode`] stores each
//! string column with exactly the dictionary entries the part's rows use,
//! sorted by their bytes, so the same rows seal to the same bytes
//! whether they arrived as one table sharing a larger table's dictionary
//! or as many small batches — and a part never carries (nor makes its
//! reader parse) the strings of rows that live in other parts.
//!
//! [`spill_csv`] drives the same writer from a CSV stream with a declared
//! schema, through the CSV reader's one record loop, so text ingest never
//! materializes more than one micropartition of cells at a time.

use crate::csv::{self, read_records, Cells, CsvOptions};
use crate::error::{Error, Result};
use crate::hvc;
use crate::partition::{concat_tables, slice_for_file};
use hillview_columnar::{Schema, Table};
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// One sealed micropartition on disk.
#[derive(Debug, Clone)]
pub struct SpilledPart {
    /// The `hvc` file holding this micropartition.
    pub path: PathBuf,
    /// Rows it contains.
    pub rows: usize,
}

/// Everything a loader needs to know about a spilled dataset.
#[derive(Debug, Clone)]
pub struct SpillManifest {
    /// Directory the parts were written into.
    pub dir: PathBuf,
    /// The sealed micropartitions, in row order.
    pub parts: Vec<SpilledPart>,
}

impl SpillManifest {
    /// Total rows across all parts.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1 demotes it.
    pub fn total_rows(&self) -> usize {
        self.parts.iter().map(|p| p.rows).sum()
    }

    /// The part file paths, in row order.
    pub fn paths(&self) -> impl Iterator<Item = &Path> {
        self.parts.iter().map(|p| p.path.as_path())
    }
}

/// Streams tables (or row batches) into a directory of sealed
/// micropartition files, holding at most one micropartition's rows in
/// memory at a time.
pub struct SpillingWriter {
    dir: PathBuf,
    rows_per_part: usize,
    pending: Vec<Table>,
    pending_rows: usize,
    parts: Vec<SpilledPart>,
}

impl SpillingWriter {
    /// Create a writer spilling into `dir` (created if absent), sealing a
    /// micropartition every `rows_per_part` rows.
    pub fn new(dir: impl AsRef<Path>, rows_per_part: usize) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(SpillingWriter {
            dir,
            rows_per_part: rows_per_part.max(1),
            pending: Vec::new(),
            pending_rows: 0,
            parts: Vec::new(),
        })
    }

    /// Append a batch of rows. Any micropartition that fills inside the
    /// batch is sealed to disk immediately and its memory dropped.
    pub fn push(&mut self, table: &Table) -> Result<()> {
        if table.num_rows() == 0 || table.num_columns() == 0 {
            return Ok(());
        }
        let n = table.num_rows();
        let mut start = 0usize;
        while start < n {
            let take = (self.rows_per_part - self.pending_rows).min(n - start);
            self.pending
                .push(slice_for_file(table, start, start + take));
            self.pending_rows += take;
            start += take;
            if self.pending_rows == self.rows_per_part {
                self.seal()?;
            }
        }
        Ok(())
    }

    fn seal(&mut self) -> Result<()> {
        if self.pending_rows == 0 {
            return Ok(());
        }
        let table = if self.pending.len() == 1 {
            self.pending.pop().expect("one pending")
        } else {
            concat_tables(&std::mem::take(&mut self.pending))?
        };
        self.pending_rows = 0;
        let path = self.dir.join(format!("part-{:05}.hvc", self.parts.len()));
        hvc::write_file(&table, &path)?;
        self.parts.push(SpilledPart {
            path,
            rows: table.num_rows(),
        });
        Ok(())
    }

    /// Seal any buffered remainder and return the manifest.
    pub fn finish(mut self) -> Result<SpillManifest> {
        self.seal()?;
        Ok(SpillManifest {
            dir: self.dir,
            parts: self.parts,
        })
    }
}

/// Stream a CSV source with a declared `schema` straight into spilled
/// micropartitions: at most `rows_per_part` rows of cells are ever held in
/// memory. The header row (when present) must match the schema's column
/// names in order.
pub fn spill_csv(
    reader: impl BufRead,
    options: &CsvOptions,
    schema: &Schema,
    rows_per_part: usize,
    dir: impl AsRef<Path>,
) -> Result<SpillManifest> {
    let rows_per_part = rows_per_part.max(1);
    let mut writer = SpillingWriter::new(dir, rows_per_part)?;
    let names: Vec<&str> = schema.descs().iter().map(|d| d.name.as_ref()).collect();
    let flush = |cells: &mut [Cells], writer: &mut SpillingWriter| -> Result<()> {
        writer.push(&csv::table(schema.descs(), cells)?)?;
        cells.iter_mut().for_each(Cells::clear);
        Ok(())
    };
    let check_header = |header: Vec<&str>| {
        if header != names {
            return Err(Error::Schema(format!(
                "CSV header {header:?} does not match declared schema {names:?}"
            )));
        }
        Ok(())
    };
    // A record has at least one field, so `cells[0]` counts the rows held.
    let mut rest = read_records(reader, options, Some(names.len()), check_header, |cells| {
        if cells[0].len() < rows_per_part {
            return Ok(());
        }
        flush(cells, &mut writer)
    })?;
    // The rows left over (a table of none is not pushed).
    flush(&mut rest, &mut writer)?;
    writer.finish()
}

/// List the `hvc` part files of a spill directory in name (row) order —
/// the loader-side counterpart of the writer's `part-NNNNN.hvc` naming.
pub fn list_parts(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>> {
    let mut parts: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "hvc"))
        .collect();
    parts.sort();
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::slice_table;
    use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
    use hillview_columnar::dictionary::DictionaryBuilder;
    use hillview_columnar::{BlockCache, ColumnKind, NullMask, SegmentMode, Table, TempDir};
    use hillview_data::{generate_flights, FlightsConfig};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn rows(n: usize, base: usize) -> Table {
        Table::builder()
            .column(
                "id",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(
                    (0..n).map(|i| Some((base + i) as i64)),
                )),
            )
            .column(
                "v",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(
                    (0..n).map(|i| Some((base + i) as f64 * 0.5)),
                )),
            )
            .column(
                "tag",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    (0..n).map(|i| Some(["x", "y", "z"][(base + i) % 3])),
                )),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn spills_sealed_parts_and_reassembles_exactly() {
        let d = TempDir::new("spill-basic");
        let mut w = SpillingWriter::new(d.path(), 100).unwrap();
        // Push in ragged batches that straddle partition boundaries.
        let mut base = 0usize;
        for n in [37, 250, 1, 99, 63] {
            w.push(&rows(n, base)).unwrap();
            base += n;
        }
        // 450 rows: four parts are sealed as they fill, the last by `finish`.
        assert_eq!(list_parts(d.path()).unwrap().len(), 4);
        let m = w.finish().unwrap();
        assert_eq!(m.parts.len(), 5);
        assert_eq!(m.total_rows(), 450);
        assert!(m.parts[..4].iter().all(|p| p.rows == 100));
        assert_eq!(m.parts[4].rows, 50);
        // Read every part back and reassemble: identical to the source.
        let read: Vec<Table> = m.paths().map(|p| hvc::read_file(p).unwrap()).collect();
        let whole = concat_tables(&read).unwrap();
        let source = rows(450, 0);
        for r in 0..450 {
            assert_eq!(whole.full_row(r), source.full_row(r), "row {r}");
        }
    }

    /// Spill `t` in `batch`-row pushes, 10 000 rows a part; every part's bytes.
    fn spilled_bytes(t: &Table, batch: usize) -> Vec<Vec<u8>> {
        let d = TempDir::new("spill-batches");
        let mut w = SpillingWriter::new(d.path(), 10_000).unwrap();
        for start in (0..t.num_rows()).step_by(batch) {
            let end = (start + batch).min(t.num_rows());
            w.push(&slice_table(t, start, end)).unwrap();
        }
        let m = w.finish().unwrap();
        m.paths().map(|p| std::fs::read(p).unwrap()).collect()
    }

    #[test]
    fn a_part_is_a_function_of_its_rows() {
        // One push of the whole table (every slice shares its 32 666-entry
        // TailNum dictionary), small batches and ragged ones (re-interned
        // on seal) must seal byte-identical parts.
        let rows = 40_000;
        let t = generate_flights(&FlightsConfig::new(rows, 7));
        let whole = spilled_bytes(&t, rows);
        assert_eq!(whole.len(), 4);
        assert!(
            whole == spilled_bytes(&t, 1_000),
            "1 000-row batches differ"
        );
        assert!(whole == spilled_bytes(&t, 7_919), "ragged batches differ");
        // Each part's dictionary is exactly the strings its rows show.
        for (n, img) in whole.iter().enumerate() {
            let part = hvc::decode(img).unwrap();
            let tails = part.column_by_name("TailNum").unwrap();
            let tails = tails.as_dict_col().unwrap();
            let codes = (0..part.num_rows()).filter(|&r| !tails.nulls().is_null(r));
            let shown: HashSet<u32> = codes.map(|r| tails.code(r)).collect();
            assert_eq!(tails.dictionary().len(), shown.len(), "part {n}");
            assert!(shown.len() < 10_000, "part {n}: {} tails", shown.len());
        }
    }

    #[test]
    fn null_rows_survive_dictionary_pruning() {
        // Ten rows a part. Part 0 is all null, so its dictionary empties;
        // part 1 shows only "d", and its null rows sit on a placeholder
        // code (2) that the one-entry dictionary no longer has.
        let d = TempDir::new("spill-nulls");
        let mut db = DictionaryBuilder::new();
        for s in ["a", "b", "c", "d"] {
            db.intern(s).unwrap();
        }
        let present = |r: usize| r >= 10 && !r.is_multiple_of(3);
        let mut nulls = NullMask::none();
        for r in (0..20).filter(|&r| !present(r)) {
            nulls.set_null(r, 20);
        }
        let mut codes: Vec<u32> = (0..20).map(|r| if present(r) { 3 } else { 2 }).collect();
        let dict = db.finish(&mut codes);
        let col = DictColumn::new(codes, Arc::new(dict), nulls);
        let t = Table::builder()
            .column("S", ColumnKind::String, Column::Str(col))
            .build()
            .unwrap();
        let mut w = SpillingWriter::new(d.path(), 10).unwrap();
        w.push(&t).unwrap();
        let m = w.finish().unwrap();
        let cache = BlockCache::unbounded();
        let mut row = 0;
        for (path, entries) in m.paths().zip([0, 1]) {
            // The writer pruned this part as it sliced it; `encode` prunes a
            // slice that still shares the table's dictionary to the same bytes.
            let shared = slice_table(&t, row, row + 10);
            assert!(std::fs::read(path).unwrap() == hvc::encode(&shared));
            let heap = hvc::read_file(path).unwrap();
            let lazy = hvc::read_file_mapped(path, &cache, SegmentMode::Auto).unwrap();
            for part in [heap, lazy] {
                let s = part.column(0).as_dict_col().unwrap();
                assert_eq!(s.dictionary().len(), entries);
                let mut buf = String::new();
                for r in 0..10 {
                    let want = present(row + r).then_some("d");
                    assert_eq!(s.read(r, &mut buf), want, "row {}", row + r);
                }
            }
            row += 10;
        }
    }

    #[test]
    fn parts_probe_without_payload() {
        let d = TempDir::new("spill-probe");
        let mut w = SpillingWriter::new(d.path(), 64).unwrap();
        w.push(&rows(200, 0)).unwrap();
        let m = w.finish().unwrap();
        for p in m.paths() {
            let info = hvc::probe_file(p).unwrap();
            assert_eq!(info.schema.descs(), rows(1, 0).schema().descs());
        }
        assert_eq!(list_parts(d.path()).unwrap().len(), m.parts.len());
    }

    #[test]
    fn a_listed_part_is_whole_while_the_writer_seals() {
        // A part comes to exist by rename: whoever lists the directory while
        // parts are being sealed opens every one it finds.
        let d = TempDir::new("spill-listed");
        let t = rows(600_000, 0);
        let sealing = AtomicBool::new(true);
        let cache = BlockCache::unbounded();
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut opened = HashSet::new();
                while sealing.load(Ordering::SeqCst) || opened.is_empty() {
                    for p in list_parts(d.path()).unwrap() {
                        let whole = hvc::read_file(&p)
                            .and_then(|_| hvc::read_file_mapped(&p, &cache, SegmentMode::Auto));
                        assert_eq!(
                            whole.map(|t| t.num_rows()).map_err(|e| e.to_string()),
                            Ok(50_000)
                        );
                        opened.insert(p);
                    }
                }
                opened.len()
            });
            let mut w = SpillingWriter::new(d.path(), 50_000).unwrap();
            w.push(&t).unwrap();
            assert_eq!(w.finish().unwrap().parts.len(), 12);
            sealing.store(false, Ordering::SeqCst);
            assert!(reader.join().unwrap() > 0);
        });
        // Nothing of the temporary names is left behind.
        assert_eq!(std::fs::read_dir(d.path()).unwrap().count(), 12);
    }

    #[test]
    fn spill_csv_streams_micropartitions() {
        let d = TempDir::new("spill-csv");
        let mut csv = String::from("id,v,tag\n");
        for i in 0..333 {
            csv.push_str(&format!("{i},{}.5,{}\n", i, ["x", "y", "z"][i % 3]));
        }
        let schema = rows(1, 0).schema().clone();
        let m = spill_csv(
            csv.as_bytes(),
            &CsvOptions::default(),
            &schema,
            100,
            d.path(),
        )
        .unwrap();
        assert_eq!(m.parts.len(), 4);
        assert_eq!(m.total_rows(), 333);
        let first = hvc::read_file(&m.parts[0].path).unwrap();
        assert_eq!(first.num_rows(), 100);
        assert_eq!(first.schema().descs(), schema.descs());
        assert_eq!(
            first.get(7, "tag").unwrap(),
            hillview_columnar::Value::str("y")
        );
    }

    #[test]
    fn spill_csv_rejects_header_mismatch() {
        let d = TempDir::new("spill-hdr");
        let schema = rows(1, 0).schema().clone();
        let err = spill_csv(
            "wrong,names,here\n1,2.0,x\n".as_bytes(),
            &CsvOptions::default(),
            &schema,
            10,
            d.path(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Schema(_)), "got {err}");
    }

    #[test]
    fn concat_rejects_schema_mismatch() {
        let a = rows(3, 0);
        let b = Table::builder()
            .column(
                "other",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(1)])),
            )
            .build()
            .unwrap();
        assert!(matches!(concat_tables(&[a, b]), Err(Error::Schema(_))));
    }
}
