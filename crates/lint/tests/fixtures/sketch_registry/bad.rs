// Fixture (virtual path crates/sketch/src/…): a Sketch impl absent from
// all three equivalence suites and from the decoder suite must fire four
// times.
pub struct UncoveredSketch;

impl Sketch for UncoveredSketch {
    type Summary = ();

    fn summarize(&self, _view: &TableView, _scope: Scope<'_>, _seed: u64) -> SketchResult<()> {
        Ok(())
    }
}
