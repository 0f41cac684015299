//! Durable artifacts: versioned [`CompiledTable`] snapshots and an
//! append-only epoch WAL.
//!
//! Everything the engine compiles — the term index, the D'-invariants, the
//! Theorem-5 baselines, the interner symbol table — is a pure function of
//! the published table and the engine config, so the on-disk format stores
//! only **ground truth** (table multisets, config, baselines, epoch
//! lineage) plus the cheap-to-verify derived sections, and
//! [`CompiledTable::load`] re-derives the rest lazily on first use. A cold
//! load is a read plus a checksum sweep plus the two tiny header sections —
//! no hashing of the heavy state into Rust structures, no solving — and the
//! loaded artifact serves bit-identical estimates to the one that was
//! saved.
//!
//! # Snapshot layout (`FORMAT_VERSION` 1)
//!
//! All integers little-endian; `f64` as IEEE-754 bits (bit-preserved, so
//! estimates round-trip exactly).
//!
//! ```text
//! magic "PMXSNAP\0" (8) | version u32 | section_count u32
//! then per section, in fixed order:
//!   id u32 | payload_len u64 | checksum u64 | payload
//! sections: 1 META  2 CONFIG  3 INTERNER
//!           4 BUCKETS  5 TERMS  6 BASELINES
//! ```
//!
//! [`CompiledTable::load`] verifies the header and **every** section
//! checksum eagerly, then decodes only `META` and `CONFIG`. The heavy
//! ground-truth sections — `INTERNER`, `BUCKETS`, `TERMS`, `BASELINES` —
//! stay as raw verified bytes inside the artifact and hydrate on first use.
//! The invariant rows and the QI→bucket index are not stored at all: both
//! are pure functions of the hydrated table, re-derived on first use by the
//! same code `build` runs — bit-identical by construction, which the
//! format-stability test pins by asserting `save(load(x)) == x`.
//!
//! The checksum sweep is the whole durability story: every *random*
//! corruption — bit flips, truncated files, garbage — is caught at load
//! time (the fuzz suite sweeps exactly that space). A payload that passes
//! its checksum yet decodes inconsistently implies the checksum itself was
//! recomputed over tampered bytes (or the encoder is broken); that is
//! outside the contract, and hydration aborts with a panic rather than
//! serving bad estimates.
//!
//! # WAL layout
//!
//! ```text
//! header (28 bytes): magic "PMXWAL\0\0" | version u32 | base_epoch u64
//!                    | checksum u64 over bytes 0..20
//! record: payload_len u32 | payload | checksum u64 | commit marker u32
//! payload: epoch u64 | nops u32 | ops | ntouched u32 | touched…
//!          | nqs u32 | qs… | ops u32
//! op: tag u8 (0 insert, 1 retract, 2 move) | qi len u16 | qi values u16…
//!     | sa u16 | bucket u32  (move: from u32 | to u32)
//! ```
//!
//! A record is **committed** iff its length, checksum and commit marker are
//! all intact; [`recover`] truncates anything after the last committed
//! record (a torn tail from a crash mid-append) and replays the rest onto
//! the snapshot, erroring hard ([`PmError::Corrupt`]) on anything that is
//! bit-rot rather than a torn write: a checksum-valid record that fails to
//! decode, an epoch gap, or a replay whose [`AppliedDelta`] disagrees with
//! the recorded summary.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pm_anonymize::published::{BucketView, PublishedTable};
use pm_microdata::qi::QiInterner;
use pm_microdata::value::Value;

use crate::compiled::{CompiledTable, CoreState};
use crate::delta::{AppliedDelta, DeltaOp, TableDelta};
use crate::engine::EngineConfig;
use crate::error::PmError;
use crate::terms::{BucketTerms, TermIndex};
use crate::wire::{checksum64, Reader as R, Writer as W};

/// Leading magic of a snapshot file.
pub const MAGIC: [u8; 8] = *b"PMXSNAP\0";
/// Leading magic of a WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"PMXWAL\0\0";
/// On-disk format version (shared by snapshot and WAL). Any change to the
/// byte layout MUST bump this — the golden-fixture test fails loudly
/// otherwise.
pub const FORMAT_VERSION: u32 = 1;
/// File name of the snapshot inside a persistence directory.
pub const SNAPSHOT_FILE: &str = "snapshot.pmx";
/// File name of the WAL inside a persistence directory.
pub const WAL_FILE: &str = "wal.pmx";

const SECTION_COUNT: u32 = 6;
const SECTION_IDS: [(u32, &str); 6] = [
    (1, "meta"),
    (2, "config"),
    (3, "interner"),
    (4, "buckets"),
    (5, "terms"),
    (6, "baselines"),
];
const WAL_HEADER_LEN: usize = 28;
const WAL_COMMIT: u32 = u32::from_le_bytes(*b"CMIT");

fn io_err(path: &Path, e: &std::io::Error) -> PmError {
    PmError::Io { path: path.display().to_string(), detail: e.to_string() }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory. A crash leaves
/// either the old file or the new one, never a torn mix.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PmError> {
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, &e))?;
    f.sync_all().map_err(|e| io_err(&tmp, &e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// -------------------------------------------------------- snapshot: encode

fn encode_section(out: &mut Vec<u8>, id: u32, payload: &[u8]) {
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

pub(crate) fn encode_snapshot(artifact: &CompiledTable) -> Vec<u8> {
    let table = artifact.table();
    let interner = table.interner();
    let config = artifact.config();
    let index = artifact.term_index();
    let m = table.num_buckets();
    let arity = if interner.distinct() == 0 { 0 } else { interner.tuple(0).len() };

    // 1 META
    let mut meta = W::default();
    meta.u64(artifact.epoch());
    meta.u64(table.total_records() as u64);
    meta.u64(table.sa_cardinality() as u64);
    meta.u64(m as u64);
    meta.u64(interner.distinct() as u64);
    meta.u64(arity as u64);
    meta.u64(index.len() as u64);
    meta.u64(artifact.num_invariants() as u64);
    match artifact.applied_delta() {
        None => meta.u8(0),
        Some(d) => {
            meta.u8(1);
            meta.count(d.num_ops());
            meta.count(d.touched_buckets().len());
            for &b in d.touched_buckets() {
                meta.count(b);
            }
            meta.count(d.qi_symbols().len());
            for &q in d.qi_symbols() {
                meta.count(q);
            }
        }
    }

    // 2 CONFIG
    let mut cfg = W::default();
    // Solver code: 0 is L-BFGS, the one solver; 1-3 named retired solvers
    // and fail the load (see `decode_config`).
    cfg.u8(0);
    // Decomposition byte: always 1, since every artifact's BASELINES are
    // the Theorem 5 closed form. A 0 fails the load (see `decode_config`).
    cfg.u8(1);
    cfg.u8(u8::from(config.concise_invariants));
    // Reserved byte, kept so the v1 layout does not move: written as 0,
    // ignored on load (older snapshots may hold 1, the retired warm-start
    // flag, and load the same).
    cfg.u8(0);
    cfg.u64(config.threads as u64);
    cfg.u64(config.max_iterations as u64);
    cfg.f64(config.tolerance);
    cfg.f64(config.residual_limit);

    // 3 INTERNER
    let mut sym = W::default();
    for i in 0..interner.distinct() {
        sym.count(interner.count(i));
    }
    for i in 0..interner.distinct() {
        for &v in interner.tuple(i) {
            sym.u16(v);
        }
    }

    // 4 BUCKETS
    let mut buckets = W::default();
    for b in table.buckets() {
        buckets.count(b.distinct_qi());
        for &(q, c) in b.qi_counts() {
            buckets.count(q);
            buckets.count(c);
        }
        buckets.count(b.distinct_sa());
        for &(s, c) in b.sa_counts() {
            buckets.u16(s);
            buckets.count(c);
        }
    }

    // 5 TERMS
    let mut terms = W::default();
    for bt in index.bucket_terms() {
        terms.count(bt.len());
        for &(q, s) in bt.pairs() {
            terms.count(q);
            terms.u16(s);
        }
    }

    // 6 BASELINES
    let mut baselines = W::default();
    for b in 0..m {
        let values = artifact.bucket_baseline(b);
        baselines.count(values.len());
        for &v in values.iter() {
            baselines.f64(v);
        }
    }

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&SECTION_COUNT.to_le_bytes());
    for (id, payload) in [
        (1u32, meta.bytes()),
        (2, cfg.bytes()),
        (3, sym.bytes()),
        (4, buckets.bytes()),
        (5, terms.bytes()),
        (6, baselines.bytes()),
    ] {
        encode_section(&mut out, id, payload);
    }
    out
}

// -------------------------------------------------------- snapshot: decode

struct Section<'a> {
    payload: &'a [u8],
    /// Absolute file offset of `payload[0]`.
    base: u64,
    name: &'static str,
}

impl<'a> Section<'a> {
    fn reader(&self) -> R<'a> {
        R::new(self.payload, self.base, self.name)
    }
}

/// Splits a snapshot byte stream into its checksum-verified sections.
fn split_sections(bytes: &[u8]) -> Result<Vec<Section<'_>>, PmError> {
    let corrupt = |offset: u64, detail: String| PmError::Corrupt {
        section: "header".to_string(),
        offset,
        detail,
    };
    if bytes.len() < 16 {
        return Err(corrupt(0, format!("file is {} bytes; the header needs 16", bytes.len())));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt(0, "bad magic (not a snapshot file)".to_string()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(PmError::UnsupportedFormat { found: version, supported: FORMAT_VERSION });
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if count != SECTION_COUNT {
        return Err(corrupt(12, format!("expected {SECTION_COUNT} sections, header says {count}")));
    }
    let mut pos = 16usize;
    let mut sections = Vec::with_capacity(SECTION_IDS.len());
    for &(id, name) in &SECTION_IDS {
        if bytes.len() - pos < 20 {
            return Err(corrupt(pos as u64, format!("truncated {name} section header")));
        }
        let got_id = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let sum = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("8 bytes"));
        if got_id != id {
            return Err(corrupt(pos as u64, format!("expected section {id} ({name}), found {got_id}")));
        }
        pos += 20;
        let remaining = (bytes.len() - pos) as u64;
        if len > remaining {
            return Err(corrupt(
                pos as u64 - 16,
                format!("{name} section claims {len} bytes but {remaining} remain"),
            ));
        }
        let payload = &bytes[pos..pos + len as usize];
        if checksum64(payload) != sum {
            return Err(PmError::Corrupt {
                section: name.to_string(),
                offset: pos as u64,
                detail: "section checksum mismatch".to_string(),
            });
        }
        sections.push(Section { payload, base: pos as u64, name });
        pos += len as usize;
    }
    if pos != bytes.len() {
        return Err(corrupt(pos as u64, format!("{} trailing bytes", bytes.len() - pos)));
    }
    Ok(sections)
}

struct Meta {
    epoch: u64,
    total_records: usize,
    sa_cardinality: usize,
    num_buckets: usize,
    distinct_qi: usize,
    qi_arity: usize,
    num_terms: usize,
    num_invariant_rows: usize,
    delta: Option<AppliedDelta>,
}

fn decode_meta(s: &Section<'_>) -> Result<Meta, PmError> {
    let mut r = s.reader();
    let epoch = r.u64()?;
    let total_records = r.u64()? as usize;
    let sa_cardinality = r.u64()? as usize;
    let num_buckets = r.u64()? as usize;
    let distinct_qi = r.u64()? as usize;
    let qi_arity = r.u64()? as usize;
    let num_terms = r.u64()? as usize;
    let num_invariant_rows = r.u64()? as usize;
    let delta = match r.u8()? {
        0 => None,
        1 => {
            let ops = r.u32()? as usize;
            let ntouched = r.len(4, "touched bucket")?;
            let touched = (0..ntouched).map(|_| r.u32().map(|v| v as usize)).collect::<Result<Vec<_>, _>>()?;
            let nqs = r.len(4, "delta QI symbol")?;
            let qs = (0..nqs).map(|_| r.u32().map(|v| v as usize)).collect::<Result<Vec<_>, _>>()?;
            Some(AppliedDelta { touched, qs, ops })
        }
        other => return Err(r.corrupt(format!("delta flag must be 0 or 1, found {other}"))),
    };
    r.finish()?;
    Ok(Meta {
        epoch,
        total_records,
        sa_cardinality,
        num_buckets,
        distinct_qi,
        qi_arity,
        num_terms,
        num_invariant_rows,
        delta,
    })
}

fn decode_config(s: &Section<'_>) -> Result<EngineConfig, PmError> {
    let mut r = s.reader();
    // The solver code names the solver the snapshot's config ran. L-BFGS
    // (0) is the only one left, so a retired code is refused rather than
    // read as L-BFGS.
    match r.u8()? {
        0 => {}
        code @ 1..=3 => {
            let name = ["GIS", "IIS", "gradient descent"][usize::from(code) - 1];
            return Err(r.corrupt(format!(
                "solver code {code} names {name}, a retired solver; only L-BFGS (0) is served"
            )));
        }
        other => return Err(r.corrupt(format!("unknown solver code {other}"))),
    }
    // A 0 here marks a snapshot whose BASELINES hold a numeric joint solve
    // instead of the per-bucket closed form, written by builds that kept a
    // joint-baseline artifact; sessions here revert to the closed form, so
    // serving it would mix the two.
    if r.u8()? == 0 {
        return Err(r.corrupt(
            "decompose byte 0 names a joint-baseline artifact, which is retired; only \
             closed-form baselines (1) are served",
        ));
    }
    let concise = r.u8()? != 0;
    let _reserved = r.u8()?;
    let threads = r.u64()? as usize;
    let max_iterations = r.u64()? as usize;
    let tolerance = r.f64()?;
    let residual_limit = r.f64()?;
    r.finish()?;
    Ok(EngineConfig::builder()
        .concise_invariants(concise)
        .threads(threads)
        .max_iterations(max_iterations)
        .tolerance(tolerance)
        .residual_limit(residual_limit)
        .build())
}

fn decode_interner(s: &Section<'_>, meta: &Meta) -> Result<QiInterner, PmError> {
    let mut r = s.reader();
    let expect = meta
        .distinct_qi
        .checked_mul(4)
        .and_then(|c| meta.distinct_qi.checked_mul(meta.qi_arity)?.checked_mul(2).map(|t| c + t));
    if expect != Some(r.remaining()) {
        return Err(r.corrupt(format!(
            "interner payload is {} bytes; meta implies {expect:?}",
            r.remaining()
        )));
    }
    let mut counts = Vec::with_capacity(meta.distinct_qi);
    for _ in 0..meta.distinct_qi {
        counts.push(r.u32()? as usize);
    }
    let mut tuples = Vec::with_capacity(meta.distinct_qi);
    for _ in 0..meta.distinct_qi {
        let mut t = Vec::with_capacity(meta.qi_arity);
        for _ in 0..meta.qi_arity {
            t.push(r.u16()?);
        }
        tuples.push(t);
    }
    r.finish()?;
    Ok(QiInterner::from_parts(tuples, counts))
}

fn decode_table(s: &Section<'_>, meta: &Meta, interner: QiInterner) -> Result<PublishedTable, PmError> {
    let mut r = s.reader();
    let mut buckets = Vec::with_capacity(meta.num_buckets.min(r.remaining() / 8 + 1));
    for _ in 0..meta.num_buckets {
        let nq = r.len(8, "bucket QI entry")?;
        let mut qi_counts = Vec::with_capacity(nq);
        for _ in 0..nq {
            let q = r.u32()? as usize;
            let c = r.u32()? as usize;
            qi_counts.push((q, c));
        }
        let ns = r.len(6, "bucket SA entry")?;
        let mut sa_counts = Vec::with_capacity(ns);
        for _ in 0..ns {
            let s = r.u16()?;
            let c = r.u32()? as usize;
            sa_counts.push((s, c));
        }
        let view = BucketView::from_counts(qi_counts, sa_counts)
            .map_err(|e| r.corrupt(e.to_string()))?;
        buckets.push(Arc::new(view));
    }
    r.finish()?;
    let table = PublishedTable::from_parts(interner, buckets, meta.sa_cardinality)
        .map_err(|e| PmError::Corrupt {
            section: s.name.to_string(),
            offset: s.base,
            detail: e.to_string(),
        })?;
    if table.total_records() != meta.total_records {
        return Err(PmError::Corrupt {
            section: s.name.to_string(),
            offset: s.base,
            detail: format!(
                "bucket sizes sum to {} records but meta says {}",
                table.total_records(),
                meta.total_records
            ),
        });
    }
    Ok(table)
}

fn decode_terms(s: &Section<'_>, meta: &Meta) -> Result<TermIndex, PmError> {
    let mut r = s.reader();
    let mut buckets = Vec::with_capacity(meta.num_buckets.min(r.remaining() / 4 + 1));
    for _ in 0..meta.num_buckets {
        let n = r.len(6, "term")?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let q = r.u32()? as usize;
            let s_val = r.u16()?;
            if q >= meta.distinct_qi {
                return Err(r.corrupt(format!(
                    "term references QI symbol {q} but only {} are interned",
                    meta.distinct_qi
                )));
            }
            if s_val as usize >= meta.sa_cardinality {
                return Err(r.corrupt(format!(
                    "term references SA value {s_val} outside cardinality {}",
                    meta.sa_cardinality
                )));
            }
            pairs.push((q, s_val));
        }
        buckets.push(Arc::new(BucketTerms::from_pairs(pairs)));
    }
    r.finish()?;
    let index = TermIndex::from_buckets(buckets);
    if index.len() != meta.num_terms {
        return Err(PmError::Corrupt {
            section: s.name.to_string(),
            offset: s.base,
            detail: format!("{} terms decoded but meta says {}", index.len(), meta.num_terms),
        });
    }
    Ok(index)
}

fn decode_baselines(
    s: &Section<'_>,
    meta: &Meta,
    index: &TermIndex,
) -> Result<Vec<Arc<[f64]>>, PmError> {
    let mut r = s.reader();
    let mut out = Vec::with_capacity(meta.num_buckets.min(r.remaining() / 4 + 1));
    for b in 0..meta.num_buckets {
        let n = r.len(8, "baseline value")?;
        let expect = index.bucket_range(b).len();
        if n != expect {
            return Err(r.corrupt(format!(
                "bucket {b} stores {n} baseline values but has {expect} terms"
            )));
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(r.f64()?);
        }
        out.push(Arc::from(values));
    }
    r.finish()?;
    Ok(out)
}

/// The heavy snapshot sections, kept as raw checksum-verified bytes plus
/// the decoded META scalars that size them — hydrated into the artifact's
/// [`CoreState`] on first use instead of on the load path.
pub(crate) struct DeferredSnapshot {
    bytes: Vec<u8>,
    /// `(offset, len)` of the INTERNER, BUCKETS, TERMS and BASELINES
    /// payloads inside `bytes`.
    interner: (usize, usize),
    buckets: (usize, usize),
    terms: (usize, usize),
    baselines: (usize, usize),
    meta: Meta,
}

impl fmt::Debug for DeferredSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeferredSnapshot")
            .field("bytes", &self.bytes.len())
            .finish_non_exhaustive()
    }
}

impl DeferredSnapshot {
    pub(crate) fn records(&self) -> usize {
        self.meta.total_records
    }
    pub(crate) fn buckets(&self) -> usize {
        self.meta.num_buckets
    }
    pub(crate) fn distinct_qi(&self) -> usize {
        self.meta.distinct_qi
    }
    pub(crate) fn num_terms(&self) -> usize {
        self.meta.num_terms
    }

    fn section(&self, (offset, len): (usize, usize), name: &'static str) -> Section<'_> {
        Section { payload: &self.bytes[offset..offset + len], base: offset as u64, name }
    }

    /// Materializes the deferred sections into the artifact's [`CoreState`].
    ///
    /// Every byte here already passed its section checksum at load time, so
    /// random corruption (bit flips, truncation, garbage — the entire space
    /// the fuzz suite sweeps) can never reach this point. A payload that is
    /// checksum-valid yet structurally inconsistent means the checksums were
    /// recomputed over tampered bytes or the encoder is broken; that is
    /// outside the durability contract (see the [module docs](self)), and
    /// hydration aborts loudly instead of serving bad estimates.
    pub(crate) fn hydrate(&self) -> CoreState {
        let decode = || -> Result<CoreState, PmError> {
            let interner = decode_interner(&self.section(self.interner, "interner"), &self.meta)?;
            let table = decode_table(&self.section(self.buckets, "buckets"), &self.meta, interner)?;
            let index = decode_terms(&self.section(self.terms, "terms"), &self.meta)?;
            let bucket_baselines =
                decode_baselines(&self.section(self.baselines, "baselines"), &self.meta, &index)?;
            Ok(CoreState { table, index: Arc::new(index), bucket_baselines })
        };
        decode().unwrap_or_else(|e| {
            panic!(
                "snapshot passed its checksums but is structurally inconsistent \
                 (deliberate tampering or an encoder bug): {e}"
            )
        })
    }
}

pub(crate) fn decode_snapshot(bytes: Vec<u8>, start: Instant) -> Result<CompiledTable, PmError> {
    let sections = split_sections(&bytes)?;
    let mut meta = decode_meta(&sections[0])?;
    let config = decode_config(&sections[1])?;
    if meta.distinct_qi > 0 && meta.qi_arity == 0 {
        return Err(PmError::Corrupt {
            section: "meta".to_string(),
            offset: 0,
            detail: "interned tuples with zero arity".to_string(),
        });
    }
    let interner = (sections[2].base as usize, sections[2].payload.len());
    let buckets = (sections[3].base as usize, sections[3].payload.len());
    let terms = (sections[4].base as usize, sections[4].payload.len());
    let baselines = (sections[5].base as usize, sections[5].payload.len());
    let (epoch, invariant_rows, delta) = (meta.epoch, meta.num_invariant_rows, meta.delta.take());
    let snapshot = DeferredSnapshot { bytes, interner, buckets, terms, baselines, meta };
    Ok(CompiledTable::from_persisted(snapshot, config, epoch, delta, invariant_rows, start.elapsed()))
}

impl CompiledTable {
    /// Saves a versioned snapshot of this artifact to `path` (atomically:
    /// temp file + rename), returning the snapshot size in bytes. The
    /// snapshot captures the full serving state — table multisets, interner
    /// symbol table, term index, Theorem-5 baselines, epoch and delta
    /// summary; the invariant rows and QI→bucket index re-derive from the
    /// table — so [`CompiledTable::load`] serves bit-identical estimates.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, PmError> {
        let bytes = encode_snapshot(self);
        write_atomic(path.as_ref(), &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Loads a snapshot written by [`CompiledTable::save`]. The header and
    /// **every** section checksum are verified eagerly, so corrupt input —
    /// flips, truncation, garbage — yields [`PmError::Corrupt`] here (never
    /// a panic or unbounded allocation) and a future format yields
    /// [`PmError::UnsupportedFormat`]. Only the two small header sections
    /// are decoded on this path: the heavy state (interner, table, term
    /// index, baselines) hydrates from the verified bytes on first use, and
    /// the derived products (invariant rows, QI→bucket index, lookup maps)
    /// re-derive after that — which is what keeps a cold load an order of
    /// magnitude cheaper than a rebuild. The loaded artifact gets a fresh
    /// lineage: sessions cannot rebase across a save/load boundary.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PmError> {
        let start = Instant::now();
        let bytes = fs::read(path.as_ref()).map_err(|e| io_err(path.as_ref(), &e))?;
        decode_snapshot(bytes, start)
    }
}

// --------------------------------------------------------------------- WAL

fn encode_wal_header(base_epoch: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&base_epoch.to_le_bytes());
    let sum = checksum64(&h[..20]);
    h[20..28].copy_from_slice(&sum.to_le_bytes());
    h
}

fn encode_wal_record(epoch: u64, delta: &TableDelta, applied: &AppliedDelta) -> Vec<u8> {
    let mut p = W::default();
    p.u64(epoch);
    p.count(delta.len());
    for op in delta.ops() {
        let (tag, qi, sa) = match op {
            DeltaOp::Insert { qi, sa, .. } => (0u8, qi, *sa),
            DeltaOp::Retract { qi, sa, .. } => (1, qi, *sa),
            DeltaOp::Move { qi, sa, .. } => (2, qi, *sa),
        };
        p.u8(tag);
        p.u16(u16::try_from(qi.len()).expect("QI arity fits u16"));
        for &v in qi {
            p.u16(v);
        }
        p.u16(sa);
        match op {
            DeltaOp::Insert { bucket, .. } | DeltaOp::Retract { bucket, .. } => p.count(*bucket),
            DeltaOp::Move { from, to, .. } => {
                p.count(*from);
                p.count(*to);
            }
        }
    }
    p.count(applied.touched_buckets().len());
    for &b in applied.touched_buckets() {
        p.count(b);
    }
    p.count(applied.qi_symbols().len());
    for &q in applied.qi_symbols() {
        p.count(q);
    }
    p.count(applied.num_ops());

    let mut out = W::default();
    out.count(p.len());
    out.extend(p.bytes());
    out.u64(checksum64(p.bytes()));
    out.u32(WAL_COMMIT);
    out.into_bytes()
}

/// One committed WAL record, decoded.
struct WalRecord {
    epoch: u64,
    delta: TableDelta,
    touched: Vec<usize>,
    qs: Vec<usize>,
    ops: usize,
}

/// Decodes one checksum-valid record payload. Failures here are hard
/// corruption ([`PmError::Corrupt`]), not torn tails: the checksum already
/// vouched for the bytes.
fn decode_wal_payload(payload: &[u8], base: u64) -> Result<WalRecord, PmError> {
    let mut r = R::new(payload, base, "wal");
    let epoch = r.u64()?;
    let nops = r.len(7, "delta op")?;
    let mut delta = TableDelta::new();
    for _ in 0..nops {
        let tag = r.u8()?;
        let arity = r.u16()? as usize;
        if arity * 2 > r.remaining() {
            return Err(r.corrupt(format!(
                "QI arity {arity} cannot fit in the {} bytes remaining",
                r.remaining()
            )));
        }
        let mut qi = Vec::with_capacity(arity);
        for _ in 0..arity {
            qi.push(r.u16()?);
        }
        let sa: Value = r.u16()?;
        delta = match tag {
            0 => delta.insert(qi, sa, r.u32()? as usize),
            1 => delta.retract(qi, sa, r.u32()? as usize),
            2 => {
                let from = r.u32()? as usize;
                let to = r.u32()? as usize;
                delta.move_record(qi, sa, from, to)
            }
            other => return Err(r.corrupt(format!("unknown delta op tag {other}"))),
        };
    }
    let ntouched = r.len(4, "touched bucket")?;
    let touched =
        (0..ntouched).map(|_| r.u32().map(|v| v as usize)).collect::<Result<Vec<_>, _>>()?;
    let nqs = r.len(4, "QI symbol")?;
    let qs = (0..nqs).map(|_| r.u32().map(|v| v as usize)).collect::<Result<Vec<_>, _>>()?;
    let ops = r.u32()? as usize;
    r.finish()?;
    Ok(WalRecord { epoch, delta, touched, qs, ops })
}

/// Result of scanning a whole WAL file.
struct WalScan {
    base_epoch: u64,
    records: Vec<WalRecord>,
    /// Byte length of the committed prefix (header + whole records).
    committed_len: u64,
    /// Whether bytes past `committed_len` form a torn (uncommitted) tail.
    torn: bool,
}

/// Scans a WAL byte stream: validates the header, then walks records until
/// the bytes run out or stop being committed. An invalid *complete* header
/// is hard corruption; an incomplete record (length, payload, checksum or
/// commit marker missing/mismatched) marks a torn tail. Checksum-valid but
/// undecodable payloads and epoch gaps are hard corruption.
fn scan_wal(bytes: &[u8], path: &Path) -> Result<WalScan, PmError> {
    debug_assert!(bytes.len() >= WAL_HEADER_LEN, "caller handles short files");
    let corrupt = |offset: u64, detail: String| PmError::Corrupt {
        section: "wal".to_string(),
        offset,
        detail,
    };
    if bytes[..8] != WAL_MAGIC {
        return Err(corrupt(0, format!("bad magic (not a WAL file): {}", path.display())));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(PmError::UnsupportedFormat { found: version, supported: FORMAT_VERSION });
    }
    let base_epoch = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let sum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if checksum64(&bytes[..20]) != sum {
        return Err(corrupt(20, "WAL header checksum mismatch".to_string()));
    }

    let mut pos = WAL_HEADER_LEN;
    let mut records = Vec::new();
    let mut next_epoch = base_epoch + 1;
    let torn = loop {
        if pos == bytes.len() {
            break false;
        }
        if bytes.len() - pos < 4 {
            break true;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let Some(total) = len.checked_add(16) else { break true };
        if bytes.len() - pos < total {
            break true;
        }
        let payload = &bytes[pos + 4..pos + 4 + len];
        let sum =
            u64::from_le_bytes(bytes[pos + 4 + len..pos + 12 + len].try_into().expect("8 bytes"));
        let marker =
            u32::from_le_bytes(bytes[pos + 12 + len..pos + 16 + len].try_into().expect("4 bytes"));
        if checksum64(payload) != sum || marker != WAL_COMMIT {
            break true;
        }
        let record = decode_wal_payload(payload, (pos + 4) as u64)?;
        if record.epoch != next_epoch {
            return Err(corrupt(
                (pos + 4) as u64,
                format!("epoch gap: record advances to {} but WAL expects {next_epoch}", record.epoch),
            ));
        }
        next_epoch += 1;
        records.push(record);
        pos += total;
    };
    Ok(WalScan { base_epoch, records, committed_len: pos as u64, torn })
}

/// Append handle on an epoch WAL. Each [`EpochWal::append`] writes one
/// committed record (`fsync`ed before returning), so a crash can tear at
/// most the record being written — which [`recover`] truncates.
#[derive(Debug)]
pub struct EpochWal {
    file: fs::File,
    path: PathBuf,
    base_epoch: u64,
    next_epoch: u64,
}

impl EpochWal {
    /// Creates (or truncates) the WAL in `dir`, anchored at `base_epoch` —
    /// the epoch of the snapshot it extends.
    pub fn create(dir: impl AsRef<Path>, base_epoch: u64) -> Result<Self, PmError> {
        let path = dir.as_ref().join(WAL_FILE);
        let mut file = fs::File::create(&path).map_err(|e| io_err(&path, &e))?;
        file.write_all(&encode_wal_header(base_epoch)).map_err(|e| io_err(&path, &e))?;
        file.sync_all().map_err(|e| io_err(&path, &e))?;
        Ok(EpochWal { file, path, base_epoch, next_epoch: base_epoch + 1 })
    }

    /// Opens the WAL in `dir` for appending, strictly: the whole file must
    /// scan clean. A torn tail is reported as [`PmError::Corrupt`] telling
    /// the caller to run [`recover`] (which truncates it) first.
    pub fn open_append(dir: impl AsRef<Path>) -> Result<Self, PmError> {
        let path = dir.as_ref().join(WAL_FILE);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, &e))?;
        if bytes.len() < WAL_HEADER_LEN {
            return Err(PmError::Corrupt {
                section: "wal".to_string(),
                offset: 0,
                detail: format!(
                    "file is {} bytes, shorter than the {WAL_HEADER_LEN}-byte header; run recover first",
                    bytes.len()
                ),
            });
        }
        let scan = scan_wal(&bytes, &path)?;
        if scan.torn {
            return Err(PmError::Corrupt {
                section: "wal".to_string(),
                offset: scan.committed_len,
                detail: "torn record tail; run recover first".to_string(),
            });
        }
        let next_epoch = scan.base_epoch + 1 + scan.records.len() as u64;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        Ok(EpochWal { file, path, base_epoch: scan.base_epoch, next_epoch })
    }

    /// The snapshot epoch this WAL extends.
    #[must_use]
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The epoch the next appended record must advance the table to.
    #[must_use]
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Appends one committed epoch record: the [`TableDelta`] that advanced
    /// the table to `epoch` plus the [`AppliedDelta`] summary the replay
    /// must reproduce. Durable (`fsync`) before returning.
    ///
    /// # Errors
    /// [`PmError::EpochMismatch`] if `epoch` is not the WAL's next epoch —
    /// the log must stay gapless and ordered.
    pub fn append(
        &mut self,
        epoch: u64,
        delta: &TableDelta,
        applied: &AppliedDelta,
    ) -> Result<(), PmError> {
        if epoch != self.next_epoch {
            return Err(PmError::EpochMismatch {
                session_epoch: self.next_epoch,
                artifact_epoch: epoch,
                detail: "WAL appends must be gapless".to_string(),
            });
        }
        let record = encode_wal_record(epoch, delta, applied);
        self.file.write_all(&record).map_err(|e| io_err(&self.path, &e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, &e))?;
        self.next_epoch += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------- recovery

/// What [`recover`] reconstructed.
#[derive(Debug)]
pub struct Recovered {
    /// The artifact at the last fully-committed epoch.
    pub artifact: CompiledTable,
    /// WAL records replayed onto the snapshot.
    pub replayed: usize,
    /// WAL records skipped because the snapshot already contained their
    /// epoch (a crash between [`compact`]'s snapshot swap and WAL reset).
    pub skipped: usize,
    /// Bytes of torn (uncommitted) WAL tail truncated away.
    pub truncated_bytes: u64,
}

/// Restores the current artifact from a persistence directory: loads
/// `snapshot.pmx`, replays the committed `wal.pmx` tail on top, and repairs
/// the WAL (truncating any torn record, recreating a missing or
/// header-torn file) so that [`EpochWal::open_append`] succeeds afterwards.
///
/// Torn ≠ corrupt: incomplete trailing bytes are the expected residue of a
/// crash mid-append and are silently truncated, while a committed record
/// that fails to decode, an epoch gap, a replay failure
/// ([`PmError::WalReplay`]) or a summary mismatch is real corruption and
/// errors out without modifying anything.
pub fn recover(dir: impl AsRef<Path>) -> Result<Recovered, PmError> {
    let dir = dir.as_ref();
    let artifact = CompiledTable::load(dir.join(SNAPSHOT_FILE))?;
    let wal_path = dir.join(WAL_FILE);

    let bytes = match fs::read(&wal_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // First boot after a save with no WAL yet: create a fresh one.
            EpochWal::create(dir, artifact.epoch())?;
            return Ok(Recovered { artifact, replayed: 0, skipped: 0, truncated_bytes: 0 });
        }
        Err(e) => return Err(io_err(&wal_path, &e)),
    };

    if bytes.len() < WAL_HEADER_LEN {
        // Torn header (crash during WAL creation): rewrite it fresh.
        let truncated = bytes.len() as u64;
        EpochWal::create(dir, artifact.epoch())?;
        return Ok(Recovered { artifact, replayed: 0, skipped: 0, truncated_bytes: truncated });
    }

    let scan = scan_wal(&bytes, &wal_path)?;
    if scan.base_epoch > artifact.epoch() {
        return Err(PmError::Corrupt {
            section: "wal".to_string(),
            offset: 12,
            detail: format!(
                "WAL base epoch {} is ahead of the snapshot epoch {}",
                scan.base_epoch,
                artifact.epoch()
            ),
        });
    }

    let mut artifact = artifact;
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    for record in &scan.records {
        if record.epoch <= artifact.epoch() {
            skipped += 1;
            continue;
        }
        // The scan proved in-WAL contiguity, so the first non-skipped
        // record is exactly artifact.epoch() + 1.
        let next = artifact.apply(&record.delta).map_err(|e| PmError::WalReplay {
            epoch: record.epoch,
            source: Box::new(e),
        })?;
        let applied = next.applied_delta().expect("apply always records a delta");
        if applied.touched != record.touched || applied.qs != record.qs || applied.ops != record.ops
        {
            return Err(PmError::Corrupt {
                section: "wal".to_string(),
                offset: scan.committed_len,
                detail: format!(
                    "replay of epoch {} disagrees with the recorded summary",
                    record.epoch
                ),
            });
        }
        artifact = next;
        replayed += 1;
    }

    let truncated_bytes = bytes.len() as u64 - scan.committed_len;
    if scan.torn {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .map_err(|e| io_err(&wal_path, &e))?;
        f.set_len(scan.committed_len).map_err(|e| io_err(&wal_path, &e))?;
        f.sync_all().map_err(|e| io_err(&wal_path, &e))?;
    }
    Ok(Recovered { artifact, replayed, skipped, truncated_bytes })
}

/// What [`compact`] did.
#[derive(Debug)]
pub struct CompactStats {
    /// Epoch of the new snapshot.
    pub epoch: u64,
    /// WAL records folded into it.
    pub folded: usize,
    /// Size of the new snapshot in bytes.
    pub snapshot_bytes: u64,
}

/// Folds the WAL into a fresh snapshot: [`recover`] to the current epoch,
/// atomically replace `snapshot.pmx`, then reset `wal.pmx` to an empty log
/// anchored at the new snapshot's epoch. Crash-safe at every step: the
/// snapshot swap is atomic, and if the process dies before the WAL reset,
/// the next [`recover`] simply skips the already-folded records.
pub fn compact(dir: impl AsRef<Path>) -> Result<CompactStats, PmError> {
    let dir = dir.as_ref();
    let recovered = recover(dir)?;
    let snapshot_bytes = recovered.artifact.save(dir.join(SNAPSHOT_FILE))?;
    EpochWal::create(dir, recovered.artifact.epoch())?;
    Ok(CompactStats {
        epoch: recovered.artifact.epoch(),
        folded: recovered.replayed,
        snapshot_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use pm_anonymize::fixtures::paper_example;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("pmx-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn paper_artifact() -> CompiledTable {
        let (_, table) = paper_example();
        CompiledTable::build(table, EngineConfig::default()).expect("baseline solves")
    }

    #[test]
    fn checksum_is_deterministic_and_flip_sensitive() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let base = checksum64(&data);
        assert_eq!(base, checksum64(&data), "deterministic");
        assert_ne!(checksum64(&[]), checksum64(&[0]), "length is mixed in");
        for i in 0..data.len() {
            for bit in [0x01u8, 0x80] {
                let mut flipped = data.clone();
                flipped[i] ^= bit;
                assert_ne!(base, checksum64(&flipped), "flip at byte {i} undetected");
            }
        }
    }

    #[test]
    fn reader_rejects_overruns_and_oversized_counts() {
        let mut w = W::default();
        w.u32(7);
        w.u16(3);
        let mut r = R::new(w.bytes(), 100, "meta");
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 3);
        let err = r.u64().unwrap_err();
        match &err {
            PmError::Corrupt { section, offset, .. } => {
                assert_eq!(section, "meta");
                assert_eq!(*offset, 106);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // A count claiming more items than the payload could hold must be
        // rejected before any allocation.
        let mut w = W::default();
        w.u32(u32::MAX);
        let mut r = R::new(w.bytes(), 0, "terms");
        assert!(matches!(r.len(6, "term"), Err(PmError::Corrupt { .. })));
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let artifact = paper_artifact();
        let dir = tmpdir("roundtrip");
        let path = dir.join(SNAPSHOT_FILE);
        let written = artifact.save(&path).unwrap();
        assert_eq!(written, fs::metadata(&path).unwrap().len());

        let loaded = CompiledTable::load(&path).unwrap();
        assert_eq!(loaded.epoch(), artifact.epoch());
        assert_eq!(loaded.num_invariants(), artifact.num_invariants());
        assert_eq!(loaded.term_index().len(), artifact.term_index().len());
        assert_eq!(
            loaded.baseline_estimate().term_values(),
            artifact.baseline_estimate().term_values(),
            "estimates must be bit-identical"
        );
        // Format stability: re-encoding the loaded artifact reproduces the
        // file byte for byte, which pins stored == lazily-derived sections.
        assert_eq!(encode_snapshot(&loaded), fs::read(&path).unwrap());
    }

    /// CONFIG's fourth byte is reserved: a snapshot holding 1 there (the
    /// retired warm-start flag) loads with the same config and serves the
    /// same bits as one holding 0.
    #[test]
    fn reserved_config_byte_is_ignored_on_load() {
        let artifact = paper_artifact();
        let dir = tmpdir("reserved-config-byte");
        let path = dir.join(SNAPSHOT_FILE);
        artifact.save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let unpatched = CompiledTable::load(&path).unwrap();

        let config = &split_sections(&bytes).unwrap()[1];
        let (base, len) = (config.base as usize, config.payload.len());
        assert_eq!(bytes[base + 3], 0, "the reserved byte is written as 0");
        bytes[base + 3] = 1;
        let sum = checksum64(&bytes[base..base + len]);
        bytes[base - 8..base].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let patched = CompiledTable::load(&path).unwrap();

        assert_eq!(format!("{:?}", patched.config()), format!("{:?}", unpatched.config()));
        assert_eq!(
            patched.baseline_estimate().term_values(),
            unpatched.baseline_estimate().term_values()
        );
    }

    /// CONFIG's first byte names the solver, and only 0 (L-BFGS) loads: a
    /// retired code fails the load instead of being read as L-BFGS. Its
    /// second byte is 1 in every snapshot written now; a 0 marks a
    /// joint-baseline snapshot, whose BASELINES hold a numeric joint solve
    /// instead of the closed form, and fails the load too.
    #[test]
    fn retired_solver_code_is_refused_on_load() {
        let artifact = paper_artifact();
        let dir = tmpdir("retired-solver-code");
        let path = dir.join(SNAPSHOT_FILE);
        artifact.save(&path).unwrap();
        let saved = fs::read(&path).unwrap();

        let config = &split_sections(&saved).unwrap()[1];
        let (base, len) = (config.base as usize, config.payload.len());
        // (byte in CONFIG, as written, patched to, words the refusal names)
        for (at, written, patched, names) in
            [(0, 0, 1, ["GIS", "retired"]), (1, 1, 0, ["decompose", "retired"])]
        {
            let mut bytes = saved.clone();
            assert_eq!(bytes[base + at], written, "CONFIG byte {at} as written");
            bytes[base + at] = patched;
            let sum = checksum64(&bytes[base..base + len]);
            bytes[base - 8..base].copy_from_slice(&sum.to_le_bytes());
            fs::write(&path, &bytes).unwrap();

            let Some(PmError::Corrupt { section, detail, .. }) =
                CompiledTable::load(&path).err()
            else {
                panic!("CONFIG byte {at} = {patched} must fail the load as corrupt");
            };
            assert_eq!(section, "config");
            assert!(names.iter().all(|n| detail.contains(n)), "{detail}");
        }
    }

    #[test]
    fn snapshot_preserves_epoch_and_delta_summary() {
        let artifact = paper_artifact();
        let delta = TableDelta::new().insert(vec![0, 0], 0, 1);
        let e1 = artifact.apply(&delta).unwrap();
        let dir = tmpdir("epoch");
        let path = dir.join(SNAPSHOT_FILE);
        e1.save(&path).unwrap();
        let loaded = CompiledTable::load(&path).unwrap();
        assert_eq!(loaded.epoch(), 1);
        let d = loaded.applied_delta().expect("delta summary persists");
        assert_eq!(d.touched_buckets(), e1.applied_delta().unwrap().touched_buckets());
        assert_eq!(d.qi_symbols(), e1.applied_delta().unwrap().qi_symbols());
        assert_eq!(d.num_ops(), 1);
        assert_eq!(
            loaded.baseline_estimate().term_values(),
            e1.baseline_estimate().term_values()
        );
    }

    #[test]
    fn loaded_artifact_applies_deltas_like_the_original() {
        let artifact = paper_artifact();
        let dir = tmpdir("apply-after-load");
        let path = dir.join(SNAPSHOT_FILE);
        artifact.save(&path).unwrap();
        let loaded = CompiledTable::load(&path).unwrap();
        let delta = TableDelta::new().insert(vec![1, 3], 0, 2);
        let a = artifact.apply(&delta).unwrap();
        let b = loaded.apply(&delta).unwrap();
        assert_eq!(
            a.baseline_estimate().term_values(),
            b.baseline_estimate().term_values()
        );
        // Structural sharing survives the load: untouched buckets of the
        // loaded lineage share with the loaded parent.
        assert!(b.bucket_shared_with(&loaded, 0));
        assert!(!b.bucket_shared_with(&loaded, 2));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let artifact = paper_artifact();
        let dir = tmpdir("magic");
        let path = dir.join(SNAPSHOT_FILE);
        artifact.save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        fs::write(&path, &wrong_magic).unwrap();
        assert!(matches!(
            CompiledTable::load(&path),
            Err(PmError::Corrupt { .. })
        ));

        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match CompiledTable::load(&path).unwrap_err() {
            PmError::UnsupportedFormat { found, supported } => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedFormat, got {other:?}"),
        }

        fs::remove_file(&path).unwrap();
        assert!(matches!(CompiledTable::load(&path), Err(PmError::Io { .. })));
    }

    #[test]
    fn truncated_snapshot_is_corrupt_not_panic() {
        let artifact = paper_artifact();
        let dir = tmpdir("truncate-snap");
        let path = dir.join(SNAPSHOT_FILE);
        artifact.save(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 4, 15, 16, 30, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            let err = CompiledTable::load(&path).unwrap_err();
            assert!(
                matches!(err, PmError::Corrupt { .. }),
                "cut at {cut}: expected Corrupt, got {err:?}"
            );
        }
    }

    #[test]
    fn wal_appends_replay_and_reject_gaps() {
        let e0 = paper_artifact();
        let dir = tmpdir("wal");
        e0.save(dir.join(SNAPSHOT_FILE)).unwrap();
        let mut wal = EpochWal::create(&dir, e0.epoch()).unwrap();
        assert_eq!(wal.base_epoch(), 0);
        assert_eq!(wal.next_epoch(), 1);

        let d1 = TableDelta::new().insert(vec![0, 0], 0, 1);
        let e1 = e0.apply(&d1).unwrap();
        wal.append(1, &d1, e1.applied_delta().unwrap()).unwrap();
        let d2 = TableDelta::new().move_record(vec![0, 0], 0, 0, 2);
        let e2 = e1.apply(&d2).unwrap();
        // Gapless: skipping an epoch is rejected before touching the file.
        assert!(matches!(
            wal.append(5, &d2, e2.applied_delta().unwrap()),
            Err(PmError::EpochMismatch { .. })
        ));
        wal.append(2, &d2, e2.applied_delta().unwrap()).unwrap();
        drop(wal);

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.replayed, 2);
        assert_eq!(recovered.skipped, 0);
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(recovered.artifact.epoch(), 2);
        assert_eq!(
            recovered.artifact.baseline_estimate().term_values(),
            e2.baseline_estimate().term_values(),
            "recovered estimate must be bit-identical to the live chain"
        );

        // The repaired WAL reopens for appending at the right epoch.
        let wal = EpochWal::open_append(&dir).unwrap();
        assert_eq!(wal.next_epoch(), 3);
    }

    #[test]
    fn recover_truncates_torn_tail_and_open_append_demands_it() {
        let e0 = paper_artifact();
        let dir = tmpdir("torn");
        e0.save(dir.join(SNAPSHOT_FILE)).unwrap();
        let mut wal = EpochWal::create(&dir, 0).unwrap();
        let d1 = TableDelta::new().insert(vec![0, 0], 0, 1);
        let e1 = e0.apply(&d1).unwrap();
        wal.append(1, &d1, e1.applied_delta().unwrap()).unwrap();
        drop(wal);

        let clean = fs::read(dir.join(WAL_FILE)).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(&[0x13, 0x37, 0x00]); // crash mid-append
        fs::write(dir.join(WAL_FILE), &torn).unwrap();

        assert!(matches!(
            EpochWal::open_append(&dir),
            Err(PmError::Corrupt { .. })
        ));
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.artifact.epoch(), 1);
        assert_eq!(recovered.replayed, 1);
        assert_eq!(recovered.truncated_bytes, 3);
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), clean, "tail truncated");
        assert!(EpochWal::open_append(&dir).is_ok(), "repaired WAL reopens");
    }

    #[test]
    fn compact_folds_wal_and_survives_reapplied_records() {
        let e0 = paper_artifact();
        let dir = tmpdir("compact");
        e0.save(dir.join(SNAPSHOT_FILE)).unwrap();
        let mut wal = EpochWal::create(&dir, 0).unwrap();
        let d1 = TableDelta::new().insert(vec![0, 0], 0, 1);
        let e1 = e0.apply(&d1).unwrap();
        wal.append(1, &d1, e1.applied_delta().unwrap()).unwrap();
        let wal_before_compact = fs::read(dir.join(WAL_FILE)).unwrap();
        drop(wal);

        let stats = compact(&dir).unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.folded, 1);
        assert!(stats.snapshot_bytes > 0);
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.artifact.epoch(), 1);
        assert_eq!(recovered.replayed, 0, "WAL was reset");

        // Crash window: snapshot swapped but WAL reset never happened. The
        // stale record's epoch ≤ snapshot epoch and must be skipped.
        fs::write(dir.join(WAL_FILE), &wal_before_compact).unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.skipped, 1);
        assert_eq!(recovered.replayed, 0);
        assert_eq!(recovered.artifact.epoch(), 1);
        assert_eq!(
            recovered.artifact.baseline_estimate().term_values(),
            e1.baseline_estimate().term_values()
        );
    }

    #[test]
    fn missing_wal_is_recreated_and_future_base_is_corrupt() {
        let e0 = paper_artifact();
        let dir = tmpdir("nowal");
        e0.save(dir.join(SNAPSHOT_FILE)).unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.artifact.epoch(), 0);
        assert!(dir.join(WAL_FILE).exists(), "fresh WAL created");

        // A header-torn WAL (crash during creation) is rewritten fresh.
        fs::write(dir.join(WAL_FILE), b"PMXW").unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.truncated_bytes, 4);
        assert!(EpochWal::open_append(&dir).is_ok());

        // A WAL anchored ahead of the snapshot cannot be replayed.
        EpochWal::create(&dir, 7).unwrap();
        assert!(matches!(recover(&dir), Err(PmError::Corrupt { .. })));
    }
}
