//! The out-of-core matrix store.
//!
//! The paper's pipeline (§2.1): the Hamiltonian is preprocessed once and
//! stored in a capacity medium, then streamed back panel-by-panel on every
//! eigensolver iteration. [`OocMatrix`] serialises a [`CsrMatrix`] into
//! fixed-row-count panels on a byte-addressed backing ([`OocStore`]), and
//! every panel read goes through a [`TraceSink`] — producing exactly the
//! POSIX-level trace the paper captures under its application (§4.2).
//!
//! An operator application multiplies straight from the panel bytes:
//! `PanelBytes` checks a panel's header against its directory entry once
//! and borrows its arrays, and `PanelSweep` feeds them to the shared row
//! kernel (`sparse::spmm_rows`) without decoding the panel into owned
//! vectors.

use crate::dense::DMatrix;
use crate::sparse::{spmm_rows, CsrMatrix};
use nvmtypes::convert::{u64_from_usize, usize_from};
use nvmtypes::{IoOp, SimError};
use ooctrace::TraceSink;
use std::sync::Arc;

/// Byte-addressed backing store standing in for the compute node's file;
/// panel bytes live in memory (the timing of the real device is supplied
/// later by replaying the captured trace through the SSD simulator).
#[derive(Debug, Clone)]
pub struct OocStore {
    data: Arc<Vec<u8>>,
}

impl OocStore {
    /// Wraps serialised bytes.
    pub fn new(data: Vec<u8>) -> OocStore {
        OocStore {
            data: Arc::new(data),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads `[offset, offset+len)`, recording the access.
    pub fn read(&self, offset: u64, len: u64, file: u32, sink: &dyn TraceSink) -> &[u8] {
        sink.record(IoOp::Read, file, offset, len);
        &self.data[offset as usize..(offset + len) as usize]
    }
}

/// Metadata of one serialised row panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelMeta {
    /// First row of the panel.
    pub row_start: usize,
    /// One past the last row.
    pub row_end: usize,
    /// Byte offset within the store.
    pub offset: u64,
    /// Serialised length in bytes.
    pub len: u64,
}

/// A deserialised panel: rows `[row_start, row_end)` of the operator in
/// local CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPanel {
    /// First global row.
    pub row_start: usize,
    /// Local row pointers (`len == rows + 1`).
    pub row_ptr: Vec<u64>,
    /// Column indices (global).
    pub col_idx: Vec<u32>,
    /// Values.
    pub values: Vec<f64>,
}

impl CsrPanel {
    /// Rows in the panel.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }
}

/// An operator stored out-of-core as serialised row panels.
#[derive(Debug, Clone)]
pub struct OocMatrix {
    /// Operator dimension.
    pub n: usize,
    /// Panel directory.
    pub panels: Vec<PanelMeta>,
    store: OocStore,
    /// Trace file id panel reads are recorded under.
    pub file_id: u32,
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Serialises `matrix` into the panel byte stream and its directory —
/// the single encoding shared by every backing (in-memory [`OocStore`]
/// and the journaled UFS store), so switching backings never changes a
/// byte of what is stored or traced.
pub(crate) fn serialize_panels(
    matrix: &CsrMatrix,
    rows_per_panel: usize,
) -> (Vec<u8>, Vec<PanelMeta>) {
    assert!(rows_per_panel >= 1);
    let mut data: Vec<u8> = Vec::new();
    let mut panels = Vec::new();
    let mut r0 = 0;
    while r0 < matrix.n {
        let r1 = (r0 + rows_per_panel).min(matrix.n);
        let offset = data.len() as u64;
        let (lo, hi) = (matrix.row_ptr[r0] as usize, matrix.row_ptr[r1] as usize);
        let nrows = r1 - r0;
        push_u64(&mut data, nrows as u64);
        push_u64(&mut data, (hi - lo) as u64);
        // Local row pointers.
        for r in r0..=r1 {
            push_u64(&mut data, matrix.row_ptr[r] - matrix.row_ptr[r0]);
        }
        for &c in &matrix.col_idx[lo..hi] {
            data.extend_from_slice(&c.to_le_bytes());
        }
        // Pad to 8-byte alignment before the f64 values.
        while data.len() % 8 != 0 {
            data.push(0);
        }
        for &v in &matrix.values[lo..hi] {
            data.extend_from_slice(&v.to_le_bytes());
        }
        let len = data.len() as u64 - offset;
        panels.push(PanelMeta {
            row_start: r0,
            row_end: r1,
            offset,
            len,
        });
        r0 = r1;
    }
    (data, panels)
}

/// The `N` bytes of a `chunks_exact(N)` chunk as an array.
fn le_bytes<const N: usize>(chunk: &[u8]) -> [u8; N] {
    let mut raw = [0u8; N];
    raw.copy_from_slice(chunk);
    raw
}

fn le_u64(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(le_bytes(chunk))
}

/// A failed panel check: [`SimError::Corruption`] at the panel's first
/// sector within the stored file.
fn panel_corruption(meta: &PanelMeta, reason: impl Into<String>) -> SimError {
    SimError::corruption(
        format!("ooc panel at byte {}", meta.offset),
        meta.offset / ssd::SECTOR_BYTES,
        reason,
    )
}

/// One serialised panel, checked against its directory entry and split
/// into its borrowed row-pointer, column and value arrays.
struct PanelBytes<'a> {
    row_ptr: &'a [u8],
    col_idx: &'a [u8],
    values: &'a [u8],
}

impl<'a> PanelBytes<'a> {
    /// Checks the header of the panel `meta` describes, once: its row
    /// count against the directory's row range, its row pointers against
    /// its entry count (starting at 0, non-decreasing, ending at `nnz`),
    /// and the buffer length against the column and value arrays that
    /// count implies. Any mismatch is [`SimError::Corruption`] — the
    /// bytes are never padded or truncated to fit.
    fn parse(buf: &'a [u8], meta: &PanelMeta) -> Result<PanelBytes<'a>, SimError> {
        let corrupt = |reason: String| panel_corruption(meta, reason);
        let nrows = meta.row_end.saturating_sub(meta.row_start);
        let (Some(head_rows), Some(head_nnz)) = (buf.get(..8), buf.get(8..16)) else {
            return Err(corrupt(format!("{} bytes hold no header", buf.len())));
        };
        let (head_rows, nnz) = (le_u64(head_rows), le_u64(head_nnz));
        if head_rows != u64_from_usize(nrows) {
            return Err(corrupt(format!(
                "header has {head_rows} rows, directory {nrows}"
            )));
        }
        let nnz = usize_from(nnz);
        // Byte layout: header, row pointers, columns, pad to 8, values.
        let layout = || {
            let ptr_end = nrows.checked_add(1)?.checked_mul(8)?.checked_add(16)?;
            let col_end = ptr_end.checked_add(nnz.checked_mul(4)?)?;
            let val_start = col_end.checked_next_multiple_of(8)?;
            let val_end = val_start.checked_add(nnz.checked_mul(8)?)?;
            (val_end == buf.len()).then_some((ptr_end, col_end, val_start))
        };
        let Some((ptr_end, col_end, val_start)) = layout() else {
            return Err(corrupt(format!(
                "{} bytes do not hold {nrows} rows and {nnz} entries",
                buf.len()
            )));
        };
        let row_ptr = &buf[16..ptr_end];
        let mut prev = 0u64;
        for (r, at) in row_ptr.chunks_exact(8).map(le_u64).enumerate() {
            if (r == 0 && at != 0) || at < prev {
                return Err(corrupt(format!("row pointer {r} is {at} after {prev}")));
            }
            prev = at;
        }
        if prev != u64_from_usize(nnz) {
            return Err(corrupt(format!("row pointers end at {prev}, nnz {nnz}")));
        }
        Ok(PanelBytes {
            row_ptr,
            col_idx: &buf[ptr_end..col_end],
            values: &buf[val_start..],
        })
    }

    /// Local row pointers.
    fn row_ptr(&self) -> impl Iterator<Item = usize> + 'a {
        self.row_ptr.chunks_exact(8).map(|c| usize_from(le_u64(c)))
    }

    /// Column indices of entries `[lo, hi)`.
    fn cols(&self, lo: usize, hi: usize) -> impl Iterator<Item = u32> + 'a {
        self.col_idx[4 * lo..4 * hi]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(le_bytes(c)))
    }

    /// Values of entries `[lo, hi)`.
    fn values(&self, lo: usize, hi: usize) -> impl Iterator<Item = f64> + 'a {
        self.values[8 * lo..8 * hi]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(le_bytes(c)))
    }

    /// Each row's `(column, value)` entries, in storage order — the row
    /// kernel's input, read straight from the borrowed bytes.
    fn rows(&self) -> impl Iterator<Item = impl Iterator<Item = (u32, f64)> + 'a> + '_ {
        self.row_ptr()
            .zip(self.row_ptr().skip(1))
            .map(|(lo, hi)| self.cols(lo, hi).zip(self.values(lo, hi)))
    }
}

/// Deserialises one panel's bytes into owned arrays, after the same
/// header check the sweep applies ([`PanelBytes::parse`]); inverse of
/// [`serialize_panels`] for a single panel. Shared by every backing's
/// `read_panel`.
pub(crate) fn decode_panel(buf: &[u8], meta: &PanelMeta) -> Result<CsrPanel, SimError> {
    let p = PanelBytes::parse(buf, meta)?;
    let nnz = p.values.len() / 8;
    Ok(CsrPanel {
        row_start: meta.row_start,
        row_ptr: p.row_ptr().map(u64_from_usize).collect(),
        col_idx: p.cols(0, nnz).collect(),
        values: p.values(0, nnz).collect(),
    })
}

/// One operator application over the row panels: `X` is copied once into
/// row-major order, each panel's rows are multiplied straight from its
/// bytes into the matching rows of a row-major `Y`, and `Y` is turned
/// back into a column-major [`DMatrix`] at the end.
pub(crate) struct PanelSweep {
    n: usize,
    m: usize,
    xr: Vec<f64>,
    yr: Vec<f64>,
}

impl PanelSweep {
    /// Starts a sweep computing `A * x`.
    pub(crate) fn new(x: &DMatrix) -> PanelSweep {
        PanelSweep {
            n: x.nrows,
            m: x.ncols,
            xr: x.transpose().data,
            yr: vec![0.0; x.data.len()],
        }
    }

    /// Multiplies the panel `meta` describes, whose bytes are `buf`.
    pub(crate) fn apply(&mut self, buf: &[u8], meta: &PanelMeta) -> Result<(), SimError> {
        let panel = PanelBytes::parse(buf, meta)?;
        let m = self.m;
        let corrupt = |reason: &str| panel_corruption(meta, reason);
        let out = self
            .yr
            .get_mut(meta.row_start * m..meta.row_end * m)
            .ok_or_else(|| corrupt("row range outside the operator"))?;
        spmm_rows(panel.rows(), &self.xr, m, out)
            .ok_or_else(|| corrupt("column index outside the operator"))
    }

    /// The finished `n x m` product.
    pub(crate) fn finish(self) -> DMatrix {
        DMatrix {
            nrows: self.m,
            ncols: self.n,
            data: self.yr,
        }
        .transpose()
    }
}

impl OocMatrix {
    /// Serialises `matrix` into panels of `rows_per_panel` rows. If `sink`
    /// is provided, the preprocessing writes are recorded (the paper's
    /// pre-load phase).
    pub fn build(
        matrix: &CsrMatrix,
        rows_per_panel: usize,
        file_id: u32,
        sink: Option<&dyn TraceSink>,
    ) -> OocMatrix {
        let (data, panels) = serialize_panels(matrix, rows_per_panel);
        if let Some(s) = sink {
            for p in &panels {
                s.record(IoOp::Write, file_id, p.offset, p.len);
            }
        }
        OocMatrix {
            n: matrix.n,
            panels,
            store: OocStore::new(data),
            file_id,
        }
    }

    /// Total serialised size in bytes.
    pub fn bytes(&self) -> u64 {
        self.store.len()
    }

    /// Reads and deserialises panel `idx`, recording the access. A panel
    /// whose bytes fail the header check is [`SimError::Corruption`].
    pub fn read_panel(&self, idx: usize, sink: &dyn TraceSink) -> Result<CsrPanel, SimError> {
        let meta = self.panels[idx];
        let buf = self.store.read(meta.offset, meta.len, self.file_id, sink);
        decode_panel(buf, &meta)
    }

    /// Out-of-core SpMM: streams every panel through `sink` and multiplies
    /// it straight from the store's bytes with the shared row kernel
    /// (no per-panel allocation). The panel sweep is sequential in
    /// storage order — the large sequential read pattern of Figure 6's
    /// POSIX panel. A panel that fails its header check stops the sweep
    /// with [`SimError::Corruption`].
    pub fn spmm_traced(&self, x: &DMatrix, sink: &dyn TraceSink) -> Result<DMatrix, SimError> {
        assert_eq!(x.nrows, self.n, "operand height mismatch");
        let mut sweep = PanelSweep::new(x);
        for meta in &self.panels {
            let buf = self.store.read(meta.offset, meta.len, self.file_id, sink);
            sweep.apply(buf, meta)?;
        }
        Ok(sweep.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::HamiltonianSpec;
    use ooctrace::TraceCapture;

    #[test]
    fn panel_round_trip() {
        let h = HamiltonianSpec::tiny(100).generate();
        let ooc = OocMatrix::build(&h, 17, 0, None);
        let cap = TraceCapture::new();
        let mut nnz = 0;
        for idx in 0..ooc.panels.len() {
            let p = ooc.read_panel(idx, &cap).expect("decodes");
            nnz += p.values.len();
            // Rows match the directory.
            assert_eq!(
                p.rows(),
                ooc.panels[idx].row_end - ooc.panels[idx].row_start
            );
        }
        assert_eq!(nnz, h.nnz());
    }

    #[test]
    fn traced_spmm_matches_in_memory() {
        let h = HamiltonianSpec::tiny(120).generate();
        let ooc = OocMatrix::build(&h, 13, 0, None);
        let mut x = DMatrix::zeros(120, 3);
        for (i, v) in x.data.iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        let cap = TraceCapture::new();
        let y = ooc.spmm_traced(&x, &cap).expect("sweeps");
        let bits = |m: &DMatrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&h.spmm(&x)));
    }

    fn is_corruption<T>(r: Result<T, SimError>) -> bool {
        matches!(r, Err(SimError::Corruption { .. }))
    }

    /// A store over `h` whose panel bytes `tamper` rewrote.
    fn tampered(h: &CsrMatrix, tamper: impl FnOnce(&mut Vec<u8>, &[PanelMeta])) -> OocMatrix {
        let ooc = OocMatrix::build(h, 16, 0, None);
        let mut data = ooc.store.data.to_vec();
        tamper(&mut data, &ooc.panels);
        OocMatrix {
            store: OocStore::new(data),
            ..ooc
        }
    }

    #[test]
    fn a_truncated_panel_is_corruption() {
        let h = HamiltonianSpec::tiny(64).generate();
        let mut ooc = OocMatrix::build(&h, 16, 0, None);
        let last = ooc.panels.len() - 1;
        ooc.panels[last].len -= 8;
        let cap = TraceCapture::new();
        assert!(ooc.read_panel(0, &cap).is_ok());
        assert!(is_corruption(ooc.read_panel(last, &cap)));
        assert!(is_corruption(ooc.spmm_traced(&DMatrix::zeros(64, 2), &cap)));
        // Too short for even the header.
        let meta = ooc.panels[0];
        let buf = &ooc.store.data[..8];
        assert!(is_corruption(decode_panel(buf, &meta)));
    }

    #[test]
    fn an_nnz_row_ptr_mismatch_is_corruption() {
        let h = HamiltonianSpec::tiny(64).generate();
        // The last row pointer of panel 1 one short of its nnz.
        let ooc = tampered(&h, |data, panels| {
            let p = panels[1];
            let at = usize_from(p.offset) + 16 + 8 * (p.row_end - p.row_start);
            let end = le_u64(&data[at..at + 8]);
            data[at..at + 8].copy_from_slice(&(end - 1).to_le_bytes());
        });
        let cap = TraceCapture::new();
        assert!(ooc.read_panel(0, &cap).is_ok());
        assert!(is_corruption(ooc.read_panel(1, &cap)));
        assert!(is_corruption(ooc.spmm_traced(&DMatrix::zeros(64, 2), &cap)));
        // The header's nnz one larger than the arrays.
        let ooc = tampered(&h, |data, panels| {
            let at = usize_from(panels[0].offset) + 8;
            let nnz = le_u64(&data[at..at + 8]);
            data[at..at + 8].copy_from_slice(&(nnz + 1).to_le_bytes());
        });
        assert!(is_corruption(ooc.read_panel(0, &cap)));
    }

    #[test]
    fn a_header_disagreeing_with_the_directory_is_corruption() {
        let h = HamiltonianSpec::tiny(64).generate();
        let mut ooc = OocMatrix::build(&h, 16, 0, None);
        ooc.panels[2].row_end -= 1;
        let cap = TraceCapture::new();
        assert!(is_corruption(ooc.read_panel(2, &cap)));
        // A column index past the operator: caught by the kernel.
        let ooc = tampered(&h, |data, panels| {
            let p = panels[0];
            let at = usize_from(p.offset) + 16 + 8 * (p.row_end - p.row_start + 1);
            data[at..at + 4].copy_from_slice(&64u32.to_le_bytes());
        });
        assert!(is_corruption(ooc.spmm_traced(&DMatrix::zeros(64, 1), &cap)));
    }

    #[test]
    fn a_corrupt_store_leaves_the_solve_unconverged() {
        use crate::lobpcg::{Lobpcg, LobpcgOptions, TracedOperator};
        let h = HamiltonianSpec::tiny(64).generate();
        let mut ooc = OocMatrix::build(&h, 16, 0, None);
        ooc.panels[0].len -= 8;
        let cap = TraceCapture::new();
        let opts = LobpcgOptions {
            block_size: 2,
            max_iters: 20,
            ..LobpcgOptions::default()
        };
        let res = Lobpcg::new(opts).solve(&TracedOperator::new(&ooc, &cap));
        assert!(!res.converged);
        assert!(res.eigenvalues.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn sweep_trace_is_sequential_and_read_only() {
        let h = HamiltonianSpec::tiny(200).generate();
        let ooc = OocMatrix::build(&h, 20, 7, None);
        let cap = TraceCapture::new();
        let x = DMatrix::zeros(200, 2);
        ooc.spmm_traced(&x, &cap).expect("sweeps");
        let trace = cap.into_trace();
        assert_eq!(trace.len(), ooc.panels.len());
        assert!((trace.read_fraction() - 1.0).abs() < 1e-12);
        // Panel reads are back-to-back in device order.
        for w in trace.records.windows(2) {
            assert_eq!(w[1].offset, w[0].offset + w[0].len);
            assert_eq!(w[0].file, 7);
        }
        assert_eq!(trace.total_bytes(), ooc.bytes());
    }

    #[test]
    fn build_can_trace_the_preload_writes() {
        let h = HamiltonianSpec::tiny(64).generate();
        let cap = TraceCapture::new();
        let ooc = OocMatrix::build(&h, 16, 3, Some(&cap));
        let trace = cap.into_trace();
        assert_eq!(trace.len(), ooc.panels.len());
        assert_eq!(trace.read_fraction(), 0.0);
        assert_eq!(trace.total_bytes(), ooc.bytes());
    }

    #[test]
    fn panel_directory_covers_all_rows_exactly_once() {
        let h = HamiltonianSpec::tiny(101).generate();
        let ooc = OocMatrix::build(&h, 25, 0, None);
        let mut next = 0;
        for p in &ooc.panels {
            assert_eq!(p.row_start, next);
            next = p.row_end;
        }
        assert_eq!(next, 101);
    }
}
