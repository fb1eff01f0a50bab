//! Spill files for larger-than-memory operators.
//!
//! Hash joins and hash aggregates whose state exceeds the configured memory
//! budget partition their inputs to disk and process one partition at a
//! time (grace hashing). Records are rows in the workspace's one codec,
//! [`qt_catalog::wire`], the same one protocol messages use; a partition is
//! read back into column batches and runs through the operator's in-memory
//! kernel.
//!
//! Every spilled row carries a `u64` sequence number, read back as one more
//! `Int` column, so operators can restore the exact row order the row
//! executor would have produced, keeping spilled and in-memory executions
//! bit-identical.

use crate::columnar::{rows_to_batches, ColBatch};
use crate::error::ExecError;
use crate::Row;
use qt_catalog::wire::{Reader, Wire};
use qt_catalog::Value;
use std::fs::File;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files across concurrent executors in one process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Encode one record as the [`Wire`] encoding of `(seq, row)`: the `u64`
/// sequence number, the `u32` value count, then each value (a tag byte,
/// 0=Int, 1=Float, 2=Str, 3=Null, and its payload; floats bit-exact).
pub(crate) fn encode_record(out: &mut Vec<u8>, seq: u64, row: &Row) {
    seq.put(out);
    row.put(out);
}

/// Decode a whole spill file back into `(seq, row)` records, in file order.
/// A corrupt file is an error: every length is checked against the bytes
/// left before anything is allocated.
pub(crate) fn decode_records(buf: &[u8]) -> Result<Vec<(u64, Row)>, ExecError> {
    let mut r = Reader::new(buf);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let record = Wire::get(&mut r)
            .map_err(|e| ExecError::Spill(format!("corrupt spill record: {e}")))?;
        out.push(record);
    }
    Ok(out)
}

fn io_err(e: std::io::Error) -> ExecError {
    ExecError::Spill(e.to_string())
}

/// One spill partition being written. Buffers a chunk of encoded records in
/// memory and flushes to a temp file; `finish` seals it into a readable
/// [`SpillFile`]. The temp file is deleted when the `SpillFile` drops.
pub(crate) struct SpillWriter {
    path: PathBuf,
    file: File,
    buf: Vec<u8>,
    rows: u64,
    bytes: u64,
}

const FLUSH_BYTES: usize = 1 << 16;

impl SpillWriter {
    pub(crate) fn create() -> Result<SpillWriter, ExecError> {
        let id = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("qt-spill-{}-{id}.bin", std::process::id()));
        let file = File::create(&path).map_err(io_err)?;
        Ok(SpillWriter {
            path,
            file,
            buf: Vec::with_capacity(FLUSH_BYTES),
            rows: 0,
            bytes: 0,
        })
    }

    pub(crate) fn push(&mut self, seq: u64, row: &Row) -> Result<(), ExecError> {
        let before = self.buf.len();
        encode_record(&mut self.buf, seq, row);
        self.rows += 1;
        self.bytes += (self.buf.len() - before) as u64;
        if self.buf.len() >= FLUSH_BYTES {
            self.file.write_all(&self.buf).map_err(io_err)?;
            self.buf.clear();
        }
        Ok(())
    }

    pub(crate) fn finish(mut self) -> Result<SpillFile, ExecError> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf).map_err(io_err)?;
        }
        self.file.flush().map_err(io_err)?;
        Ok(SpillFile {
            path: self.path,
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

/// A sealed spill partition on disk. Deleted on drop.
pub(crate) struct SpillFile {
    path: PathBuf,
    pub(crate) rows: u64,
    pub(crate) bytes: u64,
}

impl SpillFile {
    /// Read the whole partition back, in write order.
    fn read_all(&self) -> Result<Vec<(u64, Row)>, ExecError> {
        let mut buf = Vec::with_capacity(self.bytes as usize);
        File::open(&self.path)
            .map_err(io_err)?
            .read_to_end(&mut buf)
            .map_err(io_err)?;
        decode_records(&buf)
    }

    /// Read the whole partition back, in write order, as batches of at most
    /// `batch_rows`: each record's values, then its sequence number as one
    /// more `Int` column.
    pub(crate) fn read_batches(&self, batch_rows: usize) -> Result<Vec<ColBatch>, ExecError> {
        let rows: Vec<Row> = self
            .read_all()?
            .into_iter()
            .map(|(seq, mut row)| {
                row.push(Value::Int(seq as i64));
                row
            })
            .collect();
        Ok(rows_to_batches(
            &rows,
            rows.first().map_or(0, Vec::len),
            batch_rows,
        ))
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_rows_and_seqs() {
        let rows: Vec<(u64, Row)> = vec![
            (7, vec![Value::Int(-3), Value::Float(-0.0), Value::Null]),
            (1, vec![Value::str("spill me"), Value::Int(i64::MIN)]),
            (2, vec![]),
        ];
        let mut w = SpillWriter::create().unwrap();
        for (seq, row) in &rows {
            w.push(*seq, row).unwrap();
        }
        let f = w.finish().unwrap();
        assert_eq!(f.rows, 3);
        let back = f.read_all().unwrap();
        assert_eq!(back.len(), 3);
        for ((s0, r0), (s1, r1)) in rows.iter().zip(&back) {
            assert_eq!(s0, s1);
            assert_eq!(r0.len(), r1.len());
            // Bit-exact float round trip, not just Eq under total order.
            for (a, b) in r0.iter().zip(r1) {
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits())
                    }
                    _ => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn file_removed_on_drop() {
        let mut w = SpillWriter::create().unwrap();
        w.push(0, &vec![Value::Int(1)]).unwrap();
        let f = w.finish().unwrap();
        let path = f.path.clone();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    /// One spill file, byte for byte: per record `[seq u64][n u32]`, then
    /// each value's tag byte and payload.
    #[test]
    fn a_spill_file_is_pinned_byte_for_byte() {
        let mut w = SpillWriter::create().unwrap();
        let row = vec![
            Value::Int(-3),
            Value::Float(1.5),
            Value::str("ab"),
            Value::Null,
        ];
        w.push(7, &row).unwrap();
        w.push(u64::MAX, &vec![]).unwrap();
        let f = w.finish().unwrap();
        let bytes = std::fs::read(&f.path).unwrap();
        #[rustfmt::skip]
        let pinned: [u8; 50] = [
            7, 0, 0, 0, 0, 0, 0, 0, // seq 7
            4, 0, 0, 0, // four values
            0, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Int(-3)
            1, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // Float(1.5)
            2, 2, 0, 0, 0, b'a', b'b', // Str("ab")
            3, // Null
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // seq u64::MAX
            0, 0, 0, 0, // no values
        ];
        assert_eq!(bytes, pinned);
        assert_eq!(f.bytes, 50);
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 5, &vec![Value::str("abc"), Value::Int(1)]);
        for cut in 0..buf.len() {
            // Every prefix either decodes cleanly (empty) or errors.
            if cut == 0 {
                assert!(decode_records(&buf[..cut]).unwrap().is_empty());
            } else {
                assert!(decode_records(&buf[..cut]).is_err());
            }
        }
        assert_eq!(decode_records(&buf).unwrap().len(), 1);
    }

    /// A record claiming `u32::MAX` values is an error, not a 100 GB
    /// reservation that aborts the process.
    #[test]
    fn a_corrupt_value_count_is_an_error_not_an_abort() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 3, &vec![Value::Int(1), Value::Null]);
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_records(&buf), Err(ExecError::Spill(_))));
    }
}
