//! Batched candidate costing.
//!
//! [`ChunkBatch`] stages a chunk of candidates as flat columns (fragment
//! counts, per-attribute dimensions and cardinalities), and
//! [`evaluate_chunk_kernel`] prices all of them against a [`CostTables`].
//! Per candidate it derives the class-independent geometry once (rows
//! and pages per fragment, prefetch granules, sequential scan and bitmap
//! vector pricing); per (candidate, query class) it resolves the
//! predicates through the precomputed tables, resolves the Yao page-hit
//! curve through two memos, and runs the arithmetic of `price_class`.
//! That expression sequence is exactly the scalar
//! [`estimate_query`](crate::access::estimate_query) path, so batched
//! results are bit-identical to
//! [`CostModel::evaluate_layout`](crate::CostModel::evaluate_layout) —
//! pinned by the `batched_equivalence` proptest in `xtests`.
//!
//! Compared to the scalar path, a chunk of N candidates × C classes
//! performs the class-independent geometry once per candidate instead of
//! C times, resolves per-dimension occupancy statistics by table lookup
//! instead of recomputation, and memoizes the Yao page-hit curve — both
//! across classes that share a residual selectivity within one candidate
//! and across candidates/chunks through a persistent exact-argument memo
//! (`yao_page_hits` is a pure function, so identical arguments reproduce
//! identical bits).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use warlock_bitmap::estimate;
use warlock_fragment::{FragmentLayout, Fragmentation, LayoutScratch};
use warlock_schema::DimensionId;

use crate::access::{AccessPath, QueryCost};
use crate::kernel::KernelBackend;
use crate::model::{CandidateCost, ClassCost};
use crate::prefetch::effective_prefetch;
use crate::tables::{BitmapContrib, CostTables};
use crate::yao::yao_page_hits;

/// How much per-class detail [`evaluate_chunk_kernel`] materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerQueryDetail {
    /// Materialize the full per-class [`QueryCost`] rows.
    Full,
    /// Leave `per_query` empty. All aggregate fields of the returned
    /// [`CandidateCost`]s are still bit-identical to the scalar path —
    /// only the per-class detail rows are skipped. The ranking pipeline
    /// uses this and re-derives detail for the final ranked handful.
    Omit,
}

/// Entry cap of the persistent Yao memo — far above what any realistic
/// workload produces, purely a bound against pathological key churn.
const YAO_MEMO_CAP: usize = 1 << 20;

/// Mixes the three 64-bit key words of the Yao memo directly — the keys
/// are already high-entropy (cardinalities and `f64` bit patterns), so a
/// multiplicative mix beats SipHash by an order of magnitude here.
#[derive(Debug, Default)]
struct YaoKeyHasher(u64);

impl std::hash::Hasher for YaoKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }
}

/// A chunk of candidates staged for batched evaluation. Reusable:
/// [`evaluate_chunk_kernel`] drains it back to empty with all column
/// capacity retained, so one `ChunkBatch` per worker amortizes to zero
/// steady-state allocation (bar the output itself).
#[derive(Debug, Default)]
pub struct ChunkBatch {
    fragmentations: Vec<Fragmentation>,
    num_fragments: Vec<u64>,
    /// Prefix offsets into `attr_dims`/`attr_cards`; `len() + 1` entries.
    attr_offsets: Vec<u32>,
    attr_dims: Vec<DimensionId>,
    attr_cards: Vec<u64>,
    /// Per-attribute bitmap contributions of the candidate and class
    /// being matched (scratch).
    attr_bitmap: Vec<BitmapContrib>,
    /// Persistent Yao memo, keyed on the exact `yao_page_hits` arguments
    /// `(rows, pages, k.to_bits())`. Never cleared: the function is
    /// pure, so an entry stays valid across chunks, models and sessions
    /// sharing this batch (one per worker thread).
    yao_memo: HashMap<(u64, u64, u64), f64, BuildHasherDefault<YaoKeyHasher>>,
    /// Unweighted per-class rows of the last evaluated chunk, one
    /// `Vec` per candidate, classes in mix order. Buffers past that
    /// chunk's length are kept for reuse.
    class_rows: Vec<Vec<ClassCost>>,
    /// Candidates in the last evaluated chunk.
    evaluated: usize,
}

impl ChunkBatch {
    /// An empty batch; columns grow on first use and keep their capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidates staged.
    pub fn len(&self) -> usize {
        self.fragmentations.len()
    }

    /// Whether the batch holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.fragmentations.is_empty()
    }

    /// Stages one candidate, consuming its layout: the layout's buffers
    /// return to `scratch` and its fragmentation moves into the batch
    /// (re-emerging in the output [`CandidateCost`] without a clone).
    pub fn push(&mut self, layout: FragmentLayout, scratch: &mut LayoutScratch) {
        if self.attr_offsets.is_empty() {
            self.attr_offsets.push(0);
        }
        self.num_fragments.push(layout.num_fragments());
        for (attr, &card) in layout
            .fragmentation()
            .attributes()
            .iter()
            .zip(layout.radices())
        {
            self.attr_dims.push(attr.dimension);
            self.attr_cards.push(card);
        }
        self.attr_offsets.push(self.attr_dims.len() as u32);
        let fragmentation = layout.recycle(scratch);
        self.fragmentations.push(fragmentation);
    }

    /// Distinct Yao argument triples memoized so far — equivalently,
    /// the number of Yao evaluations across the batch's lifetime (each
    /// distinct triple misses exactly once, up to the memo cap).
    /// Diagnostic for sizing the steady-state miss ratio of the Yao
    /// stage.
    pub fn yao_memo_len(&self) -> usize {
        self.yao_memo.len()
    }

    /// Moves out the **unweighted** per-class cost rows of candidate `i`
    /// of the last evaluated chunk (classes in mix order). The rows are
    /// the exact per-class terms the weighted aggregates accumulate, so
    /// [`combine_class_costs`](crate::model::combine_class_costs) over
    /// them reproduces those aggregates bit-for-bit under *any* share
    /// vector — the basis of the advisor's re-weight-warm evaluation
    /// cache.
    ///
    /// # Panics
    ///
    /// When `i` is not a candidate index of the last evaluated chunk.
    pub fn take_class_rows(&mut self, i: usize) -> Vec<ClassCost> {
        std::mem::take(&mut self.class_rows[..self.evaluated][i])
    }

    /// Drops all staged candidates, retaining column capacity.
    pub fn clear(&mut self) {
        self.fragmentations.clear();
        self.num_fragments.clear();
        self.attr_offsets.clear();
        self.attr_dims.clear();
        self.attr_cards.clear();
    }
}

/// Class-independent geometry of one candidate's average fragment.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Unrounded average rows per fragment.
    rows_avg: f64,
    /// Rounded rows per fragment (at least 1).
    rows: u64,
    /// Fragment size in pages (at least 1).
    pages: u64,
    fact_prefetch: u32,
    /// Sequential full-scan time and I/O count of one fragment.
    scan_ms: f64,
    scan_ios: f64,
    /// Size in pages of one bitmap vector over a fragment.
    vector_pages: u64,
    bitmap_prefetch: u32,
    /// Sequential read time and I/O count of one bitmap vector.
    vector_ms: f64,
    vector_ios: f64,
}

impl Geometry {
    fn of(tables: &CostTables, num_fragments: u64) -> Self {
        let rows_avg = tables.fact_rows as f64 / num_fragments as f64;
        let rows = (rows_avg.round() as u64).max(1);
        let pages = tables.page.pages_for_rows(rows, tables.row_bytes).max(1);
        let fact_prefetch = effective_prefetch(tables.fact_prefetch, pages);
        let vector_pages = estimate::vector_pages(rows, tables.page);
        let bitmap_prefetch = effective_prefetch(tables.bitmap_prefetch, vector_pages);
        Self {
            rows_avg,
            rows,
            pages,
            fact_prefetch,
            scan_ms: tables
                .disk
                .sequential_ms(pages, fact_prefetch, tables.page_bytes),
            scan_ios: tables.disk.sequential_ios(pages, fact_prefetch) as f64,
            vector_pages,
            bitmap_prefetch,
            vector_ms: tables
                .disk
                .sequential_ms(vector_pages, bitmap_prefetch, tables.page_bytes),
            vector_ios: tables.disk.sequential_ios(vector_pages, bitmap_prefetch) as f64,
        }
    }
}

/// The response-model constants of a chunk, pre-clamped exactly as the
/// scalar `estimated_response_ms` clamps them, so hoisting changes no
/// bits.
#[derive(Debug, Clone, Copy)]
struct ResponseModel {
    random_page_ms: f64,
    disks: f64,
    processors: f64,
    overhead: f64,
}

/// The unweighted price of one query class in one candidate.
#[derive(Debug, Clone, Copy)]
struct ClassPrice {
    use_scan: bool,
    per_fragment_ms: f64,
    busy_ms: f64,
    response_ms: f64,
    fact_pages: f64,
    bitmap_pages: f64,
    total_ios: f64,
}

/// The arithmetic of one (candidate, class) pair: access-path choice,
/// device time, declustered response time and page/I/O totals — the
/// exact expression sequence, branches and all, of the scalar
/// `estimate_query` path. `fragments` is the expected number of
/// fragments accessed, `touched` the Yao page hits per fragment (`0.0`
/// when not `indexable`) and `bitmap_vectors` the bitmap vectors read
/// per fragment.
fn price_class(
    g: &Geometry,
    r: &ResponseModel,
    fragments: f64,
    touched: f64,
    indexable: bool,
    bitmap_vectors: f64,
) -> ClassPrice {
    let fetch_ms = touched * r.random_page_ms;
    let bitmap_ms = bitmap_vectors * g.vector_ms + fetch_ms;
    let use_scan = !indexable || g.scan_ms <= bitmap_ms;
    let (per_fragment_ms, ios_pf, fact_pages_pf, bitmap_pages_pf) = if use_scan {
        (g.scan_ms, g.scan_ios, g.pages as f64, 0.0)
    } else {
        let bitmap_ios = bitmap_vectors * g.vector_ios + touched;
        let bitmap_pages_pf = bitmap_vectors * g.vector_pages as f64;
        (bitmap_ms, bitmap_ios, touched, bitmap_pages_pf)
    };
    let busy_ms = fragments * per_fragment_ms;
    let response_ms = if fragments <= 0.0 || per_fragment_ms <= 0.0 {
        0.0
    } else {
        let disks_hit = fragments.min(r.disks).max(1.0);
        let waves = (fragments / disks_hit).ceil().min(fragments);
        let rt_io = waves * per_fragment_ms;
        let rt_proc = busy_ms / r.processors;
        rt_io.max(rt_proc) * r.overhead
    };
    ClassPrice {
        use_scan,
        per_fragment_ms,
        busy_ms,
        response_ms,
        fact_pages: fragments * fact_pages_pf,
        bitmap_pages: fragments * bitmap_pages_pf,
        total_ios: fragments * ios_pf,
    }
}

/// Prices every staged candidate against every class of `tables`,
/// returning one [`CandidateCost`] per candidate in staging order and
/// draining the batch (column capacity retained for the next chunk).
/// The unweighted per-class rows of every candidate stay in the batch
/// for [`ChunkBatch::take_class_rows`].
///
/// Bit-identical to calling
/// [`CostModel::evaluate_layout`](crate::CostModel::evaluate_layout) on
/// each candidate with the model the tables were built from. `backend`
/// has a single value and changes nothing (see [`crate::kernel`]).
pub fn evaluate_chunk_kernel(
    tables: &CostTables,
    batch: &mut ChunkBatch,
    detail: PerQueryDetail,
    _backend: KernelBackend,
) -> Vec<CandidateCost> {
    let ChunkBatch {
        fragmentations,
        num_fragments,
        attr_offsets,
        attr_dims,
        attr_cards,
        attr_bitmap,
        yao_memo,
        class_rows,
        evaluated,
    } = batch;
    let n = fragmentations.len();
    *evaluated = n;
    let classes = tables.classes.len();
    // Rows a caller took are empty with no capacity; the rest are
    // reused.
    if class_rows.len() < n {
        class_rows.resize_with(n, Vec::new);
    }
    for rows in &mut class_rows[..n] {
        rows.clear();
        rows.reserve_exact(classes);
    }
    let response = ResponseModel {
        random_page_ms: tables.random_page_ms,
        disks: f64::from(tables.num_disks.max(1)),
        processors: f64::from(tables.processors.max(1)),
        overhead: tables.overhead.max(1.0),
    };

    let mut out = Vec::with_capacity(n);
    for (i, fragmentation) in fragmentations.drain(..).enumerate() {
        let g = Geometry::of(tables, num_fragments[i]);
        let dims = &attr_dims[attr_offsets[i] as usize..attr_offsets[i + 1] as usize];
        let cards = &attr_cards[attr_offsets[i] as usize..attr_offsets[i + 1] as usize];
        // Per-candidate Yao memo: classes sharing a residual selectivity
        // share the curve point.
        let mut yao_k = f64::NAN;
        let mut yao_hits = 0.0;
        let mut io_cost_ms = 0.0;
        let mut response_ms = 0.0;
        let mut total_ios = 0.0;
        let mut total_pages = 0.0;
        let mut per_query = match detail {
            PerQueryDetail::Full => Vec::with_capacity(classes),
            PerQueryDetail::Omit => Vec::new(),
        };
        for class in &tables.classes {
            // --- Matching: predicates → table entries -------------------
            attr_bitmap.clear();
            let mut expected_fragments = 1.0f64;
            let mut residual = 1.0f64;
            for (&dim, &card) in dims.iter().zip(cards) {
                match class.pred_for(dim) {
                    None => {
                        expected_fragments *= card as f64;
                        attr_bitmap.push(BitmapContrib::Resolved);
                    }
                    Some(pred) => {
                        let entry = pred.entry_for(card);
                        expected_fragments *= entry.matched;
                        residual *= entry.residual_factor;
                        attr_bitmap.push(entry.bitmap);
                    }
                }
            }
            // Residual of unfragmented referenced dimensions, and the
            // bitmap vector count, both in predicate (dimension) order —
            // matching the scalar path's iteration exactly.
            let mut bitmap_vectors = 0.0f64;
            let mut indexable = true;
            for pred in &class.preds {
                let contrib = match dims.iter().position(|&d| d == pred.dimension) {
                    Some(j) => attr_bitmap[j],
                    None => {
                        residual *= pred.residual_unfragmented;
                        pred.unfragmented_bitmap
                    }
                };
                if indexable {
                    match contrib {
                        BitmapContrib::Resolved => {}
                        BitmapContrib::Vectors(v) => bitmap_vectors += v,
                        BitmapContrib::Unindexable => indexable = false,
                    }
                }
            }

            // --- Yao: touched pages per fragment, through the memos. The
            // scan path never consults the bitmap estimate.
            let touched = if !indexable {
                0.0
            } else {
                let k = g.rows_avg * residual.min(1.0);
                if yao_k.to_bits() != k.to_bits() {
                    let key = (g.rows, g.pages, k.to_bits());
                    yao_hits = match yao_memo.get(&key) {
                        Some(&hits) => hits,
                        None => {
                            let hits = yao_page_hits(g.rows, g.pages, k);
                            if yao_memo.len() < YAO_MEMO_CAP {
                                yao_memo.insert(key, hits);
                            }
                            hits
                        }
                    };
                    yao_k = k;
                }
                yao_hits
            };

            // --- Arithmetic, then the weighted accumulation: one
            // `share * value` term per class, in class order.
            let p = price_class(
                &g,
                &response,
                expected_fragments,
                touched,
                indexable,
                bitmap_vectors,
            );
            let pages = p.fact_pages + p.bitmap_pages;
            io_cost_ms += class.share * p.busy_ms;
            response_ms += class.share * p.response_ms;
            total_ios += class.share * p.total_ios;
            total_pages += class.share * pages;
            class_rows[i].push(ClassCost {
                busy_ms: p.busy_ms,
                response_ms: p.response_ms,
                total_ios: p.total_ios,
                pages,
            });
            if detail == PerQueryDetail::Full {
                per_query.push(QueryCost {
                    query_name: class.name.clone(),
                    path: if p.use_scan {
                        AccessPath::FullScan
                    } else {
                        AccessPath::BitmapFetch
                    },
                    fragments_accessed: expected_fragments,
                    fragment_pages: g.pages,
                    fact_pages: p.fact_pages,
                    bitmap_pages: p.bitmap_pages,
                    total_ios: p.total_ios,
                    busy_ms: p.busy_ms,
                    per_fragment_ms: p.per_fragment_ms,
                    response_ms: p.response_ms,
                    fact_prefetch: g.fact_prefetch,
                    bitmap_prefetch: g.bitmap_prefetch,
                    selected_rows: class.selected_rows,
                });
            }
        }
        out.push(CandidateCost {
            fragmentation,
            num_fragments: num_fragments[i],
            io_cost_ms,
            response_ms,
            total_ios,
            total_pages,
            per_query,
        });
    }
    batch.clear();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use crate::KernelChoice;
    use warlock_bitmap::{BitmapScheme, SchemeConfig};
    use warlock_schema::{apb1_like_schema, Apb1Config, StarSchema};
    use warlock_storage::SystemConfig;
    use warlock_workload::{apb1_like_mix, QueryMix};

    struct Fixture {
        schema: StarSchema,
        system: SystemConfig,
        scheme: BitmapScheme,
        mix: QueryMix,
    }

    fn fixture() -> Fixture {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let system = SystemConfig::default_2001(16);
        Fixture {
            schema,
            system,
            scheme,
            mix,
        }
    }

    fn candidates() -> Vec<Fragmentation> {
        vec![
            Fragmentation::none(),
            Fragmentation::from_pairs(&[(2, 2)]).unwrap(),
            Fragmentation::from_pairs(&[(0, 4), (2, 2)]).unwrap(),
            Fragmentation::from_pairs(&[(3, 0)]).unwrap(),
            Fragmentation::from_ranged_pairs(&[(2, 2, 3), (3, 0, 1)]).unwrap(),
            Fragmentation::from_pairs(&[(0, 1), (1, 0), (2, 1)]).unwrap(),
        ]
    }

    fn evaluate(
        tables: &CostTables,
        batch: &mut ChunkBatch,
        detail: PerQueryDetail,
    ) -> Vec<CandidateCost> {
        evaluate_chunk_kernel(tables, batch, detail, KernelBackend::Scalar)
    }

    #[test]
    fn chunk_matches_scalar_bit_for_bit() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[3]);
        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        for frag in candidates() {
            let layout = FragmentLayout::new_in(&mut scratch, &f.schema, frag, model.fact_index());
            batch.push(layout, &mut scratch);
        }
        let batched = evaluate(&tables, &mut batch, PerQueryDetail::Full);
        assert!(batch.is_empty(), "evaluation must drain the batch");
        let scalar: Vec<_> = candidates()
            .iter()
            .map(|frag| model.evaluate(frag))
            .collect();
        assert_eq!(batched.len(), scalar.len());
        for (b, s) in batched.iter().zip(&scalar) {
            assert_eq!(b, s);
            assert_eq!(b.io_cost_ms.to_bits(), s.io_cost_ms.to_bits());
            assert_eq!(b.response_ms.to_bits(), s.response_ms.to_bits());
            assert_eq!(b.total_ios.to_bits(), s.total_ios.to_bits());
            assert_eq!(b.total_pages.to_bits(), s.total_pages.to_bits());
            for (bq, sq) in b.per_query.iter().zip(&s.per_query) {
                assert_eq!(bq.busy_ms.to_bits(), sq.busy_ms.to_bits());
                assert_eq!(bq.response_ms.to_bits(), sq.response_ms.to_bits());
                assert_eq!(bq.selected_rows.to_bits(), sq.selected_rows.to_bits());
            }
        }
    }

    #[test]
    fn every_backend_matches_scalar_bit_for_bit() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[3]);
        let scalar: Vec<_> = candidates()
            .iter()
            .map(|frag| model.evaluate(frag))
            .collect();
        for spelled in ["auto", "scalar", "lanes", "avx2"] {
            let backend = KernelBackend::resolve(spelled.parse::<KernelChoice>().unwrap());
            let mut scratch = LayoutScratch::new();
            let mut batch = ChunkBatch::new();
            for frag in candidates() {
                let layout =
                    FragmentLayout::new_in(&mut scratch, &f.schema, frag, model.fact_index());
                batch.push(layout, &mut scratch);
            }
            let batched = evaluate_chunk_kernel(&tables, &mut batch, PerQueryDetail::Full, backend);
            assert_eq!(batched.len(), scalar.len());
            for (b, s) in batched.iter().zip(&scalar) {
                assert_eq!(b, s, "kernel = {spelled}");
                assert_eq!(b.io_cost_ms.to_bits(), s.io_cost_ms.to_bits());
                assert_eq!(b.response_ms.to_bits(), s.response_ms.to_bits());
                assert_eq!(b.total_ios.to_bits(), s.total_ios.to_bits());
                assert_eq!(b.total_pages.to_bits(), s.total_pages.to_bits());
            }
        }
    }

    #[test]
    fn batch_reuse_across_chunks_is_clean() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = model.tables();
        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        // Two rounds over the same batch: wide chunk first, then a
        // single-candidate chunk — stale columns must not leak.
        for round in 0..2 {
            let frags = if round == 0 {
                candidates()
            } else {
                vec![Fragmentation::from_pairs(&[(2, 1)]).unwrap()]
            };
            for frag in frags.clone() {
                let layout =
                    FragmentLayout::new_in(&mut scratch, &f.schema, frag, model.fact_index());
                batch.push(layout, &mut scratch);
            }
            let batched = evaluate(&tables, &mut batch, PerQueryDetail::Full);
            for (b, frag) in batched.iter().zip(&frags) {
                assert_eq!(b, &model.evaluate(frag), "round {round}");
            }
        }
    }

    #[test]
    fn omitted_detail_keeps_aggregates_bit_identical() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[3]);
        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        for frag in candidates() {
            let layout = FragmentLayout::new_in(&mut scratch, &f.schema, frag, model.fact_index());
            batch.push(layout, &mut scratch);
        }
        let lean = evaluate(&tables, &mut batch, PerQueryDetail::Omit);
        for (l, frag) in lean.iter().zip(candidates()) {
            let s = model.evaluate(&frag);
            assert!(l.per_query.is_empty());
            assert_eq!(l.io_cost_ms.to_bits(), s.io_cost_ms.to_bits());
            assert_eq!(l.response_ms.to_bits(), s.response_ms.to_bits());
            assert_eq!(l.total_ios.to_bits(), s.total_ios.to_bits());
            assert_eq!(l.total_pages.to_bits(), s.total_pages.to_bits());
            assert_eq!(l.fragmentation, s.fragmentation);
        }
        // Interleaving detail levels over the same batch (and its
        // persistent Yao memo) must not perturb the full output.
        for frag in candidates() {
            let layout = FragmentLayout::new_in(&mut scratch, &f.schema, frag, model.fact_index());
            batch.push(layout, &mut scratch);
        }
        let full = evaluate(&tables, &mut batch, PerQueryDetail::Full);
        for (b, frag) in full.iter().zip(candidates()) {
            assert_eq!(b, &model.evaluate(&frag));
        }
    }

    #[test]
    fn gathered_class_rows_recombine_bit_identically_under_any_weights() {
        use crate::model::combine_class_costs;
        use warlock_workload::QueryMix;

        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[3]);
        // Re-weight the same classes: structure identical, shares not.
        let mut builder = QueryMix::builder();
        for (i, w) in f.mix.classes().iter().enumerate() {
            builder = builder.class(w.class.clone(), 1.0 + (i as f64) * 2.5);
        }
        let reweighted = builder.build().unwrap();
        assert_eq!(
            model.structure_fingerprint(),
            CostModel::new(&f.schema, &f.system, &f.scheme, &reweighted).structure_fingerprint(),
            "a pure re-weight must keep the structure fingerprint"
        );
        assert_ne!(
            model.fingerprint(),
            CostModel::new(&f.schema, &f.system, &f.scheme, &reweighted).fingerprint()
        );

        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        // Evaluate twice over the same batch, taking only the second
        // chunk's rows: rows left in place by the first chunk must not
        // leak into the second.
        for frag in candidates().into_iter().take(2) {
            let layout = FragmentLayout::new_in(&mut scratch, &f.schema, frag, model.fact_index());
            batch.push(layout, &mut scratch);
        }
        evaluate(&tables, &mut batch, PerQueryDetail::Omit);
        for frag in candidates() {
            let layout = FragmentLayout::new_in(&mut scratch, &f.schema, frag, model.fact_index());
            batch.push(layout, &mut scratch);
        }
        let costs = evaluate(&tables, &mut batch, PerQueryDetail::Omit);
        let rows: Vec<_> = (0..costs.len()).map(|i| batch.take_class_rows(i)).collect();
        for (mix, model_at) in [
            (&f.mix, &model),
            (
                &reweighted,
                &CostModel::new(&f.schema, &f.system, &f.scheme, &reweighted),
            ),
        ] {
            let shares: Vec<f64> = mix.iter().map(|(_, s)| s).collect();
            for (c, row) in costs.iter().zip(&rows) {
                assert_eq!(row.len(), mix.len());
                let combined =
                    combine_class_costs(c.fragmentation.clone(), c.num_fragments, row, &shares);
                let fresh = model_at.evaluate(&c.fragmentation);
                assert_eq!(combined.io_cost_ms.to_bits(), fresh.io_cost_ms.to_bits());
                assert_eq!(combined.response_ms.to_bits(), fresh.response_ms.to_bits());
                assert_eq!(combined.total_ios.to_bits(), fresh.total_ios.to_bits());
                assert_eq!(combined.total_pages.to_bits(), fresh.total_pages.to_bits());
                assert_eq!(combined.num_fragments, fresh.num_fragments);
            }
        }
    }

    #[test]
    fn structure_fingerprint_tracks_structural_changes_only() {
        let f = fixture();
        let base = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        // Dropping a class is structural.
        let smaller = f
            .mix
            .without_class(f.mix.classes()[0].class.name())
            .unwrap();
        assert_ne!(
            base.structure_fingerprint(),
            CostModel::new(&f.schema, &f.system, &f.scheme, &smaller).structure_fingerprint()
        );
        // So is a system change.
        let mut other_system = f.system;
        other_system.num_disks += 1;
        assert_ne!(
            base.structure_fingerprint(),
            CostModel::new(&f.schema, &other_system, &f.scheme, &f.mix).structure_fingerprint()
        );
        // And it is deterministic.
        assert_eq!(
            base.structure_fingerprint(),
            CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix).structure_fingerprint()
        );
    }

    #[test]
    fn empty_chunk_is_a_noop() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = model.tables();
        let mut batch = ChunkBatch::new();
        assert!(evaluate(&tables, &mut batch, PerQueryDetail::Full).is_empty());
    }
}
