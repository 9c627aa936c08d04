// Fixture: the impl's type is named in fused_equivalence,
// scan_equivalence, merge_laws and wire_totality (supplied alongside in
// the test workspace), so no finding.
pub struct CoveredSketch;

impl Sketch for CoveredSketch {
    type Summary = ();

    fn summarize(&self, _view: &TableView, _scope: Scope<'_>, _seed: u64) -> SketchResult<()> {
        Ok(())
    }
}
