//! Model-checking property tests for the storage substrates: the host
//! heap against a simple map model, and the accelerator's MVCC registry
//! against the declarative visibility rule.

use idaa::accel::{Snapshot, TxnRegistry, TxnStatus};
use idaa::common::{ColumnDef, Schema};
use idaa::host::storage::HeapTable;
use idaa::{DataType, Value};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(i32),
    /// Delete the n-th live row (modulo count).
    Delete(usize),
    /// Update the n-th live row (modulo count) to the value.
    Update(usize, i32),
}

fn arb_heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    proptest::collection::vec(
        prop_oneof![
            (-1000i32..1000).prop_map(HeapOp::Insert),
            (0usize..64).prop_map(HeapOp::Delete),
            (0usize..64, -1000i32..1000).prop_map(|(i, v)| HeapOp::Update(i, v)),
        ],
        1..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slotted heap behaves exactly like a RID→row map, through
    /// arbitrary interleavings of inserts, deletes, updates and slot reuse.
    #[test]
    fn heap_matches_map_model(ops in arb_heap_ops()) {
        let schema = Schema::new(vec![ColumnDef::new("V", DataType::Integer)]).unwrap();
        let heap = HeapTable::new(&schema);
        let mut model: HashMap<idaa::host::Rid, i32> = HashMap::new();
        for op in ops {
            match op {
                HeapOp::Insert(v) => {
                    let rid = heap.insert(vec![Value::Int(v)]);
                    prop_assert!(model.insert(rid, v).is_none(), "RID reused while live");
                }
                HeapOp::Delete(nth) => {
                    if model.is_empty() { continue; }
                    let mut keys: Vec<_> = model.keys().copied().collect();
                    keys.sort();
                    let rid = keys[nth % keys.len()];
                    let old = heap.delete(rid).unwrap();
                    prop_assert_eq!(&old[0], &Value::Int(model.remove(&rid).unwrap()));
                }
                HeapOp::Update(nth, v) => {
                    if model.is_empty() { continue; }
                    let mut keys: Vec<_> = model.keys().copied().collect();
                    keys.sort();
                    let rid = keys[nth % keys.len()];
                    let old = heap.update(rid, vec![Value::Int(v)]).unwrap();
                    prop_assert_eq!(&old[0], &Value::Int(model[&rid]));
                    model.insert(rid, v);
                }
            }
            prop_assert_eq!(heap.len(), model.len());
        }
        // Final full-scan equivalence.
        let mut scanned: Vec<(idaa::host::Rid, i32)> = heap
            .scan()
            .into_iter()
            .map(|(rid, row)| (rid, row[0].as_i64().unwrap() as i32))
            .collect();
        scanned.sort();
        let mut expect: Vec<(idaa::host::Rid, i32)> = model.into_iter().collect();
        expect.sort();
        prop_assert_eq!(scanned, expect);
    }
}

#[derive(Debug, Clone)]
enum TxnOp {
    Begin(u8),
    Prepare(u8),
    Commit(u8),
    Abort(u8),
}

fn arb_txn_ops() -> impl Strategy<Value = Vec<TxnOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u8..12).prop_map(TxnOp::Begin),
            (1u8..12).prop_map(TxnOp::Prepare),
            (1u8..12).prop_map(TxnOp::Commit),
            (1u8..12).prop_map(TxnOp::Abort),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MVCC visibility satisfies the declarative rule for any sequence of
    /// transaction state transitions and any snapshot point: DB2 numbers the
    /// commits 1, 2, … in order, and the snapshot reads at `at`.
    #[test]
    fn mvcc_visibility_matches_declarative_rule(
        ops in arb_txn_ops(),
        me in 1u64..12,
        at in 0u64..80,
    ) {
        let reg = TxnRegistry::default();
        // Shadow model: txn → (status, commit LSN).
        let mut model: HashMap<u64, TxnStatus> = HashMap::new();
        let mut lsn = 0;
        for op in &ops {
            match op {
                TxnOp::Begin(t) => {
                    reg.begin(*t as u64);
                    model.insert(*t as u64, TxnStatus::Active);
                }
                TxnOp::Prepare(t) => {
                    // Only meaningful for known transactions; the registry
                    // registers unknowns, mirror that.
                    reg.prepare(*t as u64);
                    model.insert(*t as u64, TxnStatus::Prepared);
                }
                TxnOp::Commit(t) => {
                    lsn += 1;
                    reg.commit(*t as u64, lsn);
                    // A re-commit keeps the first LSN.
                    if !matches!(model.get(&(*t as u64)), Some(TxnStatus::Committed(_))) {
                        model.insert(*t as u64, TxnStatus::Committed(lsn));
                    }
                }
                TxnOp::Abort(t) => {
                    reg.abort(*t as u64);
                    model.insert(*t as u64, TxnStatus::Aborted);
                }
            }
        }
        let snap = Snapshot { seq: at, me };
        // Declarative rule, evaluated purely on the model:
        let visible_creation = |t: u64| -> bool {
            t == me
                || matches!(model.get(&t), Some(TxnStatus::Committed(seq)) if *seq <= snap.seq)
        };
        // One view answers the whole grid, so every step changes the
        // memoized creator or deleter.
        let mut view = reg.view(&snap);
        for creator in 0u64..14 {
            for deleter in 0u64..14 {
                let expect = visible_creation(creator)
                    && !(deleter != 0 && (deleter == me || visible_creation(deleter)));
                prop_assert_eq!(
                    view.visible(creator, deleter),
                    expect,
                    "creator={} deleter={} me={}", creator, deleter, me
                );
            }
        }
    }

    /// Snapshots are stable: later commits never become visible to an
    /// earlier snapshot.
    #[test]
    fn snapshots_are_stable(pre in 0u8..6, post in 1u8..6) {
        let reg = TxnRegistry::default();
        for t in 0..pre {
            let id = 100 + t as u64;
            reg.begin(id);
            reg.commit(id, 1 + t as u64);
        }
        let snap = Snapshot { seq: pre as u64, me: 999 };
        for t in 0..pre {
            prop_assert!(reg.view(&snap).visible(100 + t as u64, 0));
        }
        for t in 0..post {
            let id = 200 + t as u64;
            reg.begin(id);
            reg.commit(id, 1 + pre as u64 + t as u64);
            prop_assert!(!reg.view(&snap).visible(id, 0), "post-snapshot commit leaked in");
        }
    }
}
