//! Type-erased sketches: the engine's uniform query representation.
//!
//! The cluster transports summaries as wire bytes along every tree edge —
//! exactly what the real system does over gRPC — so internally it handles
//! queries through the object-safe [`ErasedSketch`] interface. Vizketch
//! authors never see this: they implement the typed
//! [`hillview_sketch::Sketch`] trait and [`erase`] wraps it in the one
//! adapter that does the rest (paper §5.5: developers "implement the
//! summarize and merge functions ... the architecture handles all such
//! issues in a uniform and transparent manner").
//!
//! Summaries cross this layer as bytes and merge in exactly one place,
//! [`ErasedSketch::fold_bytes`]: every part decoded once, merged by value
//! into a running summary that starts at the identity, the result encoded
//! once. Every fold of a tree — leaf pieces into a worker, each partial
//! tick, workers into the root — is a call to it.

use crate::error::EngineResult;
use bytes::Bytes;
use hillview_net::Wire;
use hillview_sketch::{Scope, Sketch, Summary, TableView};
use std::sync::Arc;

/// Object-safe sketch interface operating on wire bytes.
pub trait ErasedSketch: Send + Sync + 'static {
    /// Sketch name (diagnostics, cache keys).
    fn name(&self) -> &'static str;
    /// Summarize the rows of one partition that `scope` selects, to wire
    /// bytes (see [`hillview_sketch::Sketch::summarize`]).
    fn summarize_bytes(&self, view: &TableView, scope: Scope<'_>, seed: u64)
        -> EngineResult<Bytes>;
    /// Summarize one whole partition to wire bytes.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1(b)/9(a) removes it.
    fn summarize_to_bytes(&self, view: &TableView, seed: u64) -> EngineResult<Bytes> {
        self.summarize_bytes(view, Scope::ALL, seed)
    }
    /// Summarize the rows of one whole partition that satisfy `predicate`.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1(b)/9(a) removes it.
    fn summarize_filtered_to_bytes(
        &self,
        view: &TableView,
        predicate: &hillview_columnar::Predicate,
        seed: u64,
    ) -> EngineResult<Bytes> {
        let filter = Some(predicate);
        self.summarize_bytes(view, Scope { rows: None, filter }, seed)
    }
    /// The identity summary, wire-encoded.
    fn identity_bytes(&self) -> Bytes;
    /// Fold wire-encoded summaries, in order, into the identity
    /// ([`hillview_sketch::Summary::merge`] from
    /// [`hillview_sketch::Sketch::identity`]).
    fn fold_bytes(&self, parts: &[Bytes]) -> EngineResult<Bytes>;
    /// Merge two wire-encoded summaries: the fold of `[a, b]`. The identity
    /// is a left unit bit for bit, so these are the bytes of `b` merged
    /// into `a`.
    ///
    /// Public only for the frozen `benchmark/`; ROADMAP 1(b)/9(a) removes it.
    fn merge_bytes(&self, a: &Bytes, b: &Bytes) -> EngineResult<Bytes> {
        self.fold_bytes(&[a.clone(), b.clone()])
    }
    /// The form of a summary that crosses a network link
    /// ([`hillview_sketch::Summary::compact`]). A summary that does not
    /// override it comes back as the same bytes, undecoded.
    fn compact_bytes(&self, summary: Bytes) -> EngineResult<Bytes> {
        Ok(summary)
    }
    /// The sketch's cacheable parameter identity
    /// ([`hillview_sketch::Sketch::cache_identity`]): `Some(bytes)` when
    /// the summary is a pure, seed-independent function of the data and
    /// the bytes encode every result-shaping parameter; `None` disables
    /// the sketch-result cache for this query.
    fn cache_identity(&self) -> Option<Vec<u8>>;
}

/// Adapter from a typed [`Sketch`] to [`ErasedSketch`]; [`erase`] builds it.
struct Erased<S>(S);

impl<S: Sketch> ErasedSketch for Erased<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn summarize_bytes(
        &self,
        view: &TableView,
        scope: Scope<'_>,
        seed: u64,
    ) -> EngineResult<Bytes> {
        Ok(self.0.summarize(view, scope, seed)?.to_bytes())
    }

    fn fold_bytes(&self, parts: &[Bytes]) -> EngineResult<Bytes> {
        let mut acc = self.0.identity();
        for part in parts {
            acc.merge(S::Summary::from_bytes(part.clone())?);
        }
        Ok(acc.to_bytes())
    }

    fn compact_bytes(&self, summary: Bytes) -> EngineResult<Bytes> {
        if !S::Summary::COMPACTS {
            return Ok(summary);
        }
        Ok(S::Summary::from_bytes(summary)?.compact().to_bytes())
    }

    fn identity_bytes(&self) -> Bytes {
        self.0.identity().to_bytes()
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        self.0.cache_identity()
    }
}

/// Convenience: erase a typed sketch.
pub fn erase<S: Sketch>(sketch: S) -> Arc<dyn ErasedSketch> {
    Arc::new(Erased(sketch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::count::{CountSketch, CountSummary};

    fn view() -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..10).map(Some))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn erased_summarize_and_merge_round_trip() {
        let e = erase(CountSketch::rows());
        let a = e.summarize_to_bytes(&view(), 0).unwrap();
        let b = e.summarize_to_bytes(&view(), 0).unwrap();
        let merged = e.merge_bytes(&a, &b).unwrap();
        let s = CountSummary::from_bytes(merged).unwrap();
        assert_eq!(s.rows, 20);
    }

    #[test]
    fn identity_is_merge_unit_through_bytes() {
        let e = erase(CountSketch::rows());
        let a = e.summarize_to_bytes(&view(), 0).unwrap();
        let m = e.merge_bytes(&a, &e.identity_bytes()).unwrap();
        assert_eq!(m, a);
    }

    #[test]
    fn fold_is_the_merge_chain_decoded_once() {
        use hillview_sketch::moments::MomentsSketch;
        use hillview_sketch::quantile::QuantileSketch;
        let order = hillview_columnar::SortOrder::ascending(&["X"]);
        let sketches = [
            erase(CountSketch::rows()),
            erase(MomentsSketch::new("X", 3)),
            erase(QuantileSketch::new(order, 1.0, 8, 4)),
        ];
        for e in sketches {
            let parts: Vec<Bytes> = (0..4)
                .map(|seed| e.summarize_to_bytes(&view(), seed).unwrap())
                .collect();
            let chain = parts
                .iter()
                .fold(e.identity_bytes(), |acc, p| e.merge_bytes(&acc, p).unwrap());
            assert_eq!(e.fold_bytes(&parts).unwrap(), chain, "{}", e.name());
            assert_eq!(e.fold_bytes(&[]).unwrap(), e.identity_bytes());
        }
    }

    #[test]
    fn only_an_overriding_summary_is_decoded_to_compact() {
        use hillview_sketch::quantile::{QuantileSketch, QuantileSummary};
        // Not even valid count bytes: handed on untouched.
        let junk = Bytes::from_static(&[0xFF; 6]);
        let same = erase(CountSketch::rows())
            .compact_bytes(junk.clone())
            .unwrap();
        assert_eq!(same.as_ref().as_ptr(), junk.as_ref().as_ptr());

        let order = hillview_columnar::SortOrder::ascending(&["X"]);
        let e = erase(QuantileSketch::new(order, 1.0, 100, 4));
        let full = e.summarize_to_bytes(&view(), 0).unwrap();
        let compact = e.compact_bytes(full.clone()).unwrap();
        assert_eq!(QuantileSummary::from_bytes(full).unwrap().keys.len(), 10);
        assert_eq!(
            QuantileSummary::from_bytes(compact.clone())
                .unwrap()
                .keys
                .len(),
            4
        );
        assert_eq!(e.compact_bytes(compact.clone()).unwrap(), compact);
        assert!(e.compact_bytes(junk).is_err());
    }

    #[test]
    fn corrupt_bytes_error_cleanly() {
        let e = erase(CountSketch::rows());
        let bad = Bytes::from_static(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(e.merge_bytes(&bad, &e.identity_bytes()).is_err());
    }

    #[test]
    fn sketch_errors_propagate() {
        let e = erase(CountSketch::of_column("Nope"));
        assert!(matches!(
            e.summarize_to_bytes(&view(), 0),
            Err(EngineError::Sketch(_))
        ));
    }
}
