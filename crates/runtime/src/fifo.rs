//! The multiple-reader, multiple-writer FIFO of the paper's Fig. 9,
//! written against the PMC annotations — and therefore correct on *all*
//! back-ends (Section VI-B runs it on the DSM architecture, where the
//! pointers are polled from fast local memory).
//!
//! Every slot `buf[i]` and every pointer is an independently locked
//! shared object, exactly as in the paper. Pointers are monotone (the
//! paper's code shows the `%N` variant and notes that overflow checks are
//! elided; we keep the raw pointer monotone and take `%N` only for slot
//! indexing, which is the intended semantics of the comparisons
//! `rp < wp - N` / `wp <= rp`).

use pmc_soc_sim::trace::{span_begin, span_end, span_kind};

use crate::ctx::PmcCtx;
use crate::pod::Pod;
use crate::system::{Obj, ObjVec, System};

/// A bounded FIFO with `N` slots, any number of writers, `R` readers;
/// every reader sees every element (broadcast semantics, as in the
/// paper: "Wait until all readers got buf\[wp\]").
pub struct MFifo<T> {
    write_ptr: Obj<u32>,
    read_ptr: ObjVec<u32>,
    buf: ObjVec<T>,
    depth: u32,
}

impl<T> Clone for MFifo<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MFifo<T> {}

impl<T: Pod> MFifo<T> {
    pub(crate) fn alloc(sys: &mut System, name: &str, depth: u32, readers: u32) -> Self {
        assert!(depth > 0 && readers > 0);
        MFifo {
            write_ptr: sys.alloc::<u32>(&format!("{name}.write_ptr")),
            read_ptr: sys.alloc_vec::<u32>(&format!("{name}.read_ptr"), readers),
            buf: sys.alloc_vec::<T>(&format!("{name}.buf"), depth),
            depth,
        }
    }

    /// Push an element (paper Fig. 9, `push()`), blocking until every
    /// reader has consumed the slot being overwritten.
    pub fn push(&self, ctx: &PmcCtx<'_, '_>, data: T) {
        // Telemetry: the whole (possibly blocking) push, identified by
        // the FIFO's write-pointer object.
        let fifo_id = self.write_ptr.id;
        ctx.with_cpu(|cpu| cpu.trace_event(span_begin(span_kind::FIFO_PUSH), fifo_id, 0, 0));
        let wp = ctx.scope_x(self.write_ptr);
        let wp_raw = wp.read();
        let slot = wp_raw % self.depth;
        // Wait until all readers got buf[slot] (lines 9–15).
        for i in 0..self.read_ptr.len() {
            let mut backoff = 16u64;
            loop {
                let rp = ctx.scope_ro(self.read_ptr.at(i)).read();
                // Reader i must have consumed index wp_raw - depth.
                if (rp as i64) > (wp_raw as i64) - (self.depth as i64) {
                    break;
                }
                ctx.compute(backoff);
                backoff = (backoff * 2).min(256);
            }
        }
        ctx.fence(); // ≺ℓ → ≺F boundary (line 16)
        ctx.scope_x(self.buf.at(slot)).write(data); // lines 17–19
        ctx.fence(); // line 20
        wp.write(wp_raw + 1);
        wp.flush(); // line 22: make the new count visible
        wp.close();
        ctx.with_cpu(|cpu| cpu.trace_event(span_end(span_kind::FIFO_PUSH), fifo_id, 0, 0));
    }

    /// Pop the next element for `reader` (paper Fig. 9, `pop()`).
    pub fn pop(&self, ctx: &PmcCtx<'_, '_>, reader: u32) -> T {
        let fifo_id = self.write_ptr.id;
        ctx.with_cpu(|cpu| cpu.trace_event(span_begin(span_kind::FIFO_POP), fifo_id, 0, 0));
        let rp_obj = self.read_ptr.at(reader);
        let rp_raw = ctx.scope_ro(rp_obj).read(); // lines 27–29
        let slot = rp_raw % self.depth;
        // Wait until data is written (lines 30–34).
        let mut backoff = 16u64;
        loop {
            let wp = ctx.scope_ro(self.write_ptr).read();
            if wp > rp_raw {
                break;
            }
            ctx.compute(backoff);
            backoff = (backoff * 2).min(256);
        }
        ctx.fence(); // line 35
        let data = ctx.scope_x(self.buf.at(slot)).read(); // lines 36–38
        ctx.fence(); // line 39
        let rp = ctx.scope_x(rp_obj); // lines 40–43
        rp.write(rp_raw + 1);
        rp.flush();
        rp.close();
        ctx.with_cpu(|cpu| cpu.trace_event(span_end(span_kind::FIFO_POP), fifo_id, 0, 0));
        data
    }
}

#[cfg(test)]
mod tests {
    use crate::system::{BackendKind, LockKind, System};
    use pmc_soc_sim::SocConfig;
    use std::sync::Mutex;

    /// One writer, two readers: every reader receives the full sequence,
    /// in order, on every back-end (the paper's portability claim).
    #[test]
    fn spsc_broadcast_order_on_all_backends() {
        for backend in BackendKind::ALL {
            let n_items = 40u32;
            let mut sys = System::new(SocConfig::small(3), backend, LockKind::Sdram);
            let fifo = sys.alloc_fifo::<u32>("f", 4, 2);
            let got: Mutex<Vec<Vec<u32>>> = Mutex::new(vec![Vec::new(); 2]);
            let got_ref = &got;
            sys.run(vec![
                Box::new(move |ctx| {
                    for i in 0..n_items {
                        fifo.push(ctx, i * 3 + 1);
                    }
                }),
                Box::new(move |ctx| {
                    for _ in 0..n_items {
                        let v = fifo.pop(ctx, 0);
                        got_ref.lock().unwrap()[0].push(v);
                    }
                }),
                Box::new(move |ctx| {
                    for _ in 0..n_items {
                        let v = fifo.pop(ctx, 1);
                        got_ref.lock().unwrap()[1].push(v);
                    }
                }),
            ]);
            let got = got.lock().unwrap();
            let expect: Vec<u32> = (0..n_items).map(|i| i * 3 + 1).collect();
            assert_eq!(got[0], expect, "{backend:?} reader 0");
            assert_eq!(got[1], expect, "{backend:?} reader 1");
        }
    }

    /// Multiple writers: readers see a serialisation of all pushes (no
    /// loss, no duplication, no tearing).
    #[test]
    fn mpmc_no_loss_no_tear() {
        for backend in [BackendKind::Swcc, BackendKind::Dsm] {
            let per_writer = 20u32;
            let mut sys = System::new(SocConfig::small(4), backend, LockKind::Sdram);
            // u64 elements: tearing would mix halves.
            let fifo = sys.alloc_fifo::<u64>("f", 4, 1);
            let got: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let got_ref = &got;
            sys.run(vec![
                Box::new(move |ctx| {
                    for i in 0..per_writer {
                        let v = 0xAAAA_0000u64 + i as u64;
                        fifo.push(ctx, v << 16 | v & 0xffff);
                    }
                }),
                Box::new(move |ctx| {
                    for i in 0..per_writer {
                        let v = 0xBBBB_0000u64 + i as u64;
                        fifo.push(ctx, v << 16 | v & 0xffff);
                    }
                }),
                Box::new(move |ctx| {
                    for _ in 0..2 * per_writer {
                        let v = fifo.pop(ctx, 0);
                        // Tear check: the halves must match the encoding.
                        let low = v & 0xffff;
                        let high = v >> 16;
                        assert_eq!(high & 0xffff, low, "{backend:?}: torn element {v:#x}");
                        got_ref.lock().unwrap().push(v);
                    }
                }),
                Box::new(|_ctx| {}),
            ]);
            let got = got.lock().unwrap();
            assert_eq!(got.len(), (2 * per_writer) as usize);
            // Per-writer FIFO order holds.
            let a_seq: Vec<u64> = got.iter().copied().filter(|v| v >> 32 == 0xAAAA).collect();
            let b_seq: Vec<u64> = got.iter().copied().filter(|v| v >> 32 == 0xBBBB).collect();
            assert!(a_seq.windows(2).all(|w| w[0] < w[1]), "{backend:?} writer A order");
            assert!(b_seq.windows(2).all(|w| w[0] < w[1]), "{backend:?} writer B order");
        }
    }
}
