//! `TrellisSummary`'s decoder is total and canonical — the one `impl
//! Sketch` outside `hillview-sketch`, put to that crate's `wire_totality`
//! battery — and its heat maps draw on one expansion budget per frame, not
//! one each.

#[path = "../../sketch/tests/totality/mod.rs"]
mod totality;

use hillview_data::{generate_flights, FlightsConfig};
use hillview_net::{Wire, WireWriter, MAX_COUNTS};
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::heatmap::HeatmapSummary;
use hillview_sketch::{Scope, Sketch, SketchError, TableView};
use hillview_viz::trellis::{TrellisSketch, TrellisSummary};
use std::sync::Arc;
use totality::{bomb, refused, total_and_canonical, zero_run};

fn sketch(groups: usize, bx: usize, by: usize) -> TrellisSketch {
    TrellisSketch {
        col_w: Arc::from("Month"),
        col_x: Arc::from("Distance"),
        col_y: Arc::from("AirTime"),
        buckets_w: BucketSpec::numeric(1.0, 13.0, groups),
        buckets_x: BucketSpec::numeric(0.0, 3_000.0, bx),
        buckets_y: BucketSpec::numeric(0.0, 400.0, by),
        rate: 1.0,
    }
}

#[test]
fn trellis_is_total_and_canonical() {
    let flights = TableView::full(Arc::new(generate_flights(&FlightsConfig::new(3_000, 7))));
    let trellis = sketch(4, 20, 10);
    let summaries = [
        trellis.identity(),
        trellis.summarize(&flights, Scope::ALL, 11).unwrap(),
        TrellisSummary {
            groups: Vec::new(),
            dropped: u64::MAX,
        },
        TrellisSummary {
            groups: vec![HeatmapSummary::zero(0, 0), HeatmapSummary::zero(2, 0)],
            dropped: 0,
        },
    ];
    total_and_canonical("trellis", &summaries);
    // A group count one above the groups that follow: the last one is read
    // out of `dropped` and whatever is not there.
    let mut short = summaries[1].to_bytes().to_vec();
    short[0] += 1;
    refused::<TrellisSummary>("a group count past its groups", &short);

    // Each group is within the budget; together they are past it. The
    // first is decoded (80 bytes of cells), the second refused unallocated.
    let group = |w: &mut WireWriter, bx: usize, by: usize| {
        w.put_varint(bx as u64);
        w.put_varint(by as u64);
        for b in [zero_run((bx * by) as u64), vec![0; 3]].concat() {
            w.put_u8(b);
        }
    };
    let mut w = WireWriter::new();
    w.put_varint(2);
    group(&mut w, 5, 2);
    group(&mut w, MAX_COUNTS / 4, 4);
    w.put_varint(0);
    bomb::<TrellisSummary>("groups past the budget together", &w.finish(), 4 << 10);
    // One group fewer cells, and the frame is a summary.
    let mut w = WireWriter::new();
    w.put_varint(2);
    group(&mut w, 5, 2);
    group(&mut w, MAX_COUNTS / 4 - 3, 4);
    w.put_varint(0);
    assert!(TrellisSummary::from_bytes(w.finish()).is_ok());
    bomb::<TrellisSummary>("2^27 groups", &[0x80, 0x80, 0x80, 0x40, 0, 0, 0], 4 << 10);

    // And a trellis that large is refused where it is configured.
    assert!(matches!(
        sketch(16, 1 << 10, (1 << 8) + 1).summarize(&flights, Scope::ALL, 0),
        Err(SketchError::BadConfig(_))
    ));
}
