//! Run the whole implemented TPC-H query suite against both engines:
//! the UoT (block-streaming) engine and the MonetDB-style operator-at-a-time
//! baseline, verifying they agree and showing their timings.
//!
//! ```text
//! cargo run --release --example tpch_demo
//! ```

use uot::baseline::BaselineEngine;
use uot::engine::{Engine, EngineConfig, Uot};
use uot::storage::BlockFormat;
use uot::tpch::{all_queries, build_query, TpchConfig, TpchDb};

fn main() {
    println!("generating TPC-H data (SF 0.02)...");
    let db = TpchDb::generate(
        TpchConfig::scale(0.02)
            .with_block_bytes(64 * 1024)
            .with_format(BlockFormat::Column),
    );
    println!(
        "lineitem: {} rows, orders: {} rows\n",
        db.lineitem().num_rows(),
        db.orders().num_rows()
    );
    let engine = Engine::new(
        EngineConfig::parallel(2)
            .with_block_bytes(64 * 1024)
            .with_uot(Uot::LOW),
    );
    let baseline = BaselineEngine::new();
    println!(
        "{:<6} {:>6} {:>14} {:>14} {:>8}",
        "query", "rows", "uot engine ms", "baseline ms", "agree"
    );
    for q in all_queries() {
        let plan = build_query(q, &db).expect("plan builds");
        let r = engine.execute(plan.clone()).expect("uot engine runs");
        let b = baseline.execute(&plan).expect("baseline runs");
        // Both engines sum exactly, so their sorted rows must be identical.
        let agree = r.sorted_rows() == b.sorted_rows();
        println!(
            "{:<6} {:>6} {:>14.2} {:>14.2} {:>8}",
            q.label(),
            r.num_rows(),
            r.metrics.wall_time.as_secs_f64() * 1e3,
            b.metrics.wall_time.as_secs_f64() * 1e3,
            agree
        );
        assert!(agree, "{} rows differ from the baseline", q.label());
    }
    println!("\nall queries agree across the two execution models");
}
