//! The paper's headline scenario: a multi-staged ELT/data-preparation
//! pipeline, run twice —
//!
//! * **baseline** (pre-AOT IDAA): every stage result is materialized in a
//!   DB2 table and re-loaded to the accelerator for the next stage;
//! * **accelerator-only tables**: every stage writes an AOT via
//!   `INSERT … SELECT`, so intermediate data never crosses the link.
//!
//! The printed per-stage table shows rows, bytes moved — the quantity the
//! paper sets out to minimize — link messages, and simulated wire time.
//!
//! Run with: `cargo run --release --example elt_pipeline`

use idaa::analytics::{Pipeline, PipelineMode};
use idaa::{Idaa, SYSADM};

fn build_system(rows: usize) -> idaa::Result<(Idaa, idaa::Session)> {
    let idaa = Idaa::default();
    let mut s = idaa.session(SYSADM);
    idaa.execute(
        &mut s,
        "CREATE TABLE TXNS (ID INT NOT NULL, CUST INT, KIND VARCHAR(8), AMOUNT DOUBLE, \
         TS TIMESTAMP)",
    )?;
    let mut batch = Vec::new();
    for i in 0..rows {
        batch.push(format!(
            "({i}, {}, '{}', {}.5E0, TIMESTAMP '2015-06-0{} 0{}:00:00')",
            i % 997,
            ["DEBIT", "CREDIT", "FEE"][i % 3],
            (i * 7) % 1000,
            (i % 9) + 1,
            i % 10,
        ));
        if batch.len() == 1000 {
            idaa.execute(&mut s, &format!("INSERT INTO TXNS VALUES {}", batch.join(", ")))?;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        idaa.execute(&mut s, &format!("INSERT INTO TXNS VALUES {}", batch.join(", ")))?;
    }
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('TXNS')")?;
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('TXNS')")?;
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE")?;
    Ok((idaa, s))
}

fn pipeline() -> Pipeline {
    Pipeline::new()
        // Stage 1: cleanse — keep only customer debits/credits, derive sign.
        .stage(
            "STG_CLEAN",
            "SELECT id, cust, amount, CASE kind WHEN 'DEBIT' THEN -1 ELSE 1 END AS SIGN \
             FROM txns WHERE kind <> 'FEE'",
        )
        // Stage 2: transform — signed amounts.
        .stage(
            "STG_SIGNED",
            "SELECT cust, amount * sign AS FLOW FROM stg_clean",
        )
        // Stage 3: aggregate per customer.
        .stage(
            "STG_CUST",
            "SELECT cust, COUNT(*) AS N, SUM(flow) AS NET, AVG(flow) AS AVG_FLOW \
             FROM stg_signed GROUP BY cust",
        )
        // Stage 4: feature filter for the mining step.
        .stage(
            "STG_FEATURES",
            "SELECT cust, n, net, avg_flow FROM stg_cust WHERE n > 5",
        )
}

fn main() -> idaa::Result<()> {
    const ROWS: usize = 50_000;
    println!("base table: {ROWS} transaction rows\n");

    for mode in [PipelineMode::MaterializeInDb2, PipelineMode::AcceleratorOnly] {
        let (idaa, mut s) = build_system(ROWS)?;
        let p = pipeline();
        let report = p.run(&idaa, &mut s, mode)?;
        println!("=== {mode:?} ===");
        println!(
            "{:<14} {:>9} {:>14} {:>10} {:>10}",
            "stage", "rows", "bytes_moved", "link_msgs", "wire_ms"
        );
        for st in &report.stages {
            println!(
                "{:<14} {:>9} {:>14} {:>10} {:>10.2}",
                st.output,
                st.rows,
                st.link.total_bytes(),
                st.link.total_messages(),
                st.link.wire_time.as_secs_f64() * 1000.0,
            );
        }
        println!(
            "{:<14} {:>9} {:>14} {:>10} {:>10.2}\n",
            "TOTAL",
            "",
            report.link.total_bytes(),
            report.link.total_messages(),
            report.link.wire_time.as_secs_f64() * 1000.0,
        );
    }
    println!(
        "The AOT mode ships only statement text per stage; the baseline ships every\n\
         intermediate result twice (accelerator → DB2, then DB2 → accelerator on reload)."
    );
    Ok(())
}
