//! Value traces: the common input format of the model checkers.

use std::collections::HashMap;

use crate::op::{LocId, Value};

/// The initial value every location holds before any write.
pub(crate) const INIT_VALUE: Value = 0;

/// One memory event of a thread, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemEvent {
    pub loc: LocId,
    pub value: Value,
    pub is_write: bool,
}

impl MemEvent {
    pub fn write(loc: LocId, value: Value) -> Self {
        MemEvent { loc, value, is_write: true }
    }
    pub fn read(loc: LocId, value: Value) -> Self {
        MemEvent { loc, value, is_write: false }
    }
}

/// A thread's memory events in program order.
pub type ThreadTrace = Vec<MemEvent>;

/// Map from `(loc, value)` to the identity of the write that produced
/// the value.
pub(crate) type WriteMap = HashMap<(LocId, Value), (usize, usize)>;

/// Checks the unique-write-value convention and that every read returns
/// either the initial value or some written value. Returns a map from
/// `(loc, value)` to the write's identity.
pub(crate) fn validate(traces: &[ThreadTrace]) -> Result<WriteMap, String> {
    let mut writes: WriteMap = HashMap::new();
    for (t, trace) in traces.iter().enumerate() {
        let mut w_idx = 0;
        for ev in trace {
            if ev.is_write {
                if ev.value == INIT_VALUE {
                    return Err(format!("thread {t} writes the reserved initial value 0"));
                }
                if writes.insert((ev.loc, ev.value), (t, w_idx)).is_some() {
                    return Err(format!(
                        "duplicate write value {} to v{} (thread {t})",
                        ev.value, ev.loc.0
                    ));
                }
                w_idx += 1;
            }
        }
    }
    for (t, trace) in traces.iter().enumerate() {
        for ev in trace {
            if !ev.is_write && ev.value != INIT_VALUE && !writes.contains_key(&(ev.loc, ev.value)) {
                return Err(format!(
                    "thread {t} reads value {} from v{} that nobody wrote",
                    ev.value, ev.loc.0
                ));
            }
        }
    }
    Ok(writes)
}

/// Project a set of traces onto a single location (used by the Cache
/// Consistency checker: CC = SC per location).
pub(crate) fn project_loc(traces: &[ThreadTrace], loc: LocId) -> Vec<ThreadTrace> {
    traces.iter().map(|t| t.iter().copied().filter(|e| e.loc == loc).collect()).collect()
}

/// All locations mentioned anywhere in the traces.
pub(crate) fn locations(traces: &[ThreadTrace]) -> Vec<LocId> {
    let mut locs: Vec<LocId> = traces.iter().flat_map(|t| t.iter().map(|e| e.loc)).collect();
    locs.sort_unstable();
    locs.dedup();
    locs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::LocId as L;

    #[test]
    fn validate_accepts_well_formed() {
        let traces = vec![
            vec![MemEvent::write(L(0), 1), MemEvent::write(L(1), 1)],
            vec![MemEvent::read(L(0), 1), MemEvent::read(L(1), 0)],
        ];
        assert!(validate(&traces).is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_write_values() {
        let traces = vec![vec![MemEvent::write(L(0), 1), MemEvent::write(L(0), 1)]];
        assert!(validate(&traces).is_err());
    }

    #[test]
    fn validate_rejects_out_of_thin_air_reads() {
        let traces = vec![vec![MemEvent::read(L(0), 9)]];
        assert!(validate(&traces).is_err());
    }

    #[test]
    fn validate_rejects_writing_init_value() {
        let traces = vec![vec![MemEvent::write(L(0), 0)]];
        assert!(validate(&traces).is_err());
    }

    #[test]
    fn projection_keeps_order() {
        let traces = vec![vec![
            MemEvent::write(L(0), 1),
            MemEvent::write(L(1), 2),
            MemEvent::write(L(0), 3),
        ]];
        let p = project_loc(&traces, L(0));
        assert_eq!(p[0], vec![MemEvent::write(L(0), 1), MemEvent::write(L(0), 3)]);
        assert_eq!(locations(&traces), vec![L(0), L(1)]);
    }
}
