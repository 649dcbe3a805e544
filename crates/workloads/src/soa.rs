//! Structure-of-arrays trace buffer and its replay cursor.
//!
//! [`TraceBuffer`] materializes the first `n` µops of any [`TraceSource`]
//! into parallel per-field arrays: sequential replay walks nine dense
//! streams the hardware prefetcher follows perfectly, instead of
//! re-running the synthetic generator's RNG for every µop of every
//! workload. [`TraceCursor`] replays a shared (`Arc`ed) buffer as a
//! [`TraceSource`], cycling past the end — which is the thread-restart
//! rule: the detailed core resets its trace after `trace_len` fetched
//! µops, so a buffer of `trace_len` µops with modular wrap is
//! stream-identical to the generator it captured (`tests/trace_replay.rs`
//! pins this equivalence end to end).
//!
//! Cursors are cheap to clone (an `Arc` bump and an index), so one
//! memoized buffer per benchmark serves every workload the benchmark
//! appears in — the `StudyContext` trace cache in `mps-harness` builds
//! each benchmark's buffer exactly once per study.

use crate::uop::{Reg, TraceSource, Uop, UopKind};
use std::sync::Arc;

/// Encoding of "no register" in the packed operand arrays.
const NO_REG: u8 = 0xFF;

#[inline]
fn reg_byte(r: Option<Reg>) -> u8 {
    r.map_or(NO_REG, |x| x)
}

#[inline]
fn reg_from(b: u8) -> Option<Reg> {
    if b == NO_REG {
        None
    } else {
        Some(b)
    }
}

/// The columns of a trace, one entry per µop, as
/// [`TraceBuffer::from_columns`] takes them. Register operands are bytes,
/// `0xFF` for none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceColumns {
    /// µop kinds.
    pub kind: Vec<UopKind>,
    /// First source registers.
    pub src0: Vec<u8>,
    /// Second source registers.
    pub src1: Vec<u8>,
    /// Destination registers.
    pub dst: Vec<u8>,
    /// Memory addresses.
    pub addr: Vec<u64>,
    /// Access sizes.
    pub size: Vec<u8>,
    /// Program counters.
    pub pc: Vec<u64>,
    /// Branch outcomes.
    pub taken: Vec<bool>,
    /// Branch targets.
    pub target: Vec<u64>,
}

/// A captured µop trace in structure-of-arrays layout.
///
/// Each [`Uop`] field lives in its own dense array; `uop(i)` reassembles
/// the `i`-th µop. The buffer is immutable after capture and is normally
/// shared behind an [`Arc`] via [`TraceBuffer::cursor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    kind: Vec<UopKind>,
    src0: Vec<u8>,
    src1: Vec<u8>,
    dst: Vec<u8>,
    addr: Vec<u64>,
    size: Vec<u8>,
    pc: Vec<u64>,
    taken: Vec<bool>,
    target: Vec<u64>,
}

impl TraceBuffer {
    /// Captures the first `n` µops of `source` (after a reset), leaving
    /// the source reset again.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn capture(source: &mut dyn TraceSource, n: u64) -> Self {
        assert!(n > 0, "cannot capture an empty trace");
        let n = n as usize;
        let mut buf = TraceBuffer {
            kind: Vec::with_capacity(n),
            src0: Vec::with_capacity(n),
            src1: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            addr: Vec::with_capacity(n),
            size: Vec::with_capacity(n),
            pc: Vec::with_capacity(n),
            taken: Vec::with_capacity(n),
            target: Vec::with_capacity(n),
        };
        source.reset();
        for _ in 0..n {
            let u = source.next_uop();
            buf.kind.push(u.kind);
            buf.src0.push(reg_byte(u.srcs[0]));
            buf.src1.push(reg_byte(u.srcs[1]));
            buf.dst.push(reg_byte(u.dst));
            buf.addr.push(u.addr);
            buf.size.push(u.size);
            buf.pc.push(u.pc);
            buf.taken.push(u.taken);
            buf.target.push(u.target);
        }
        source.reset();
        buf
    }

    /// A buffer over `columns`, taken as they are: the constructor for
    /// decoders, which fill each column in one pass over their input.
    /// `None` unless every column holds the same, non-zero number of µops.
    pub fn from_columns(columns: TraceColumns) -> Option<Self> {
        let TraceColumns {
            kind,
            src0,
            src1,
            dst,
            addr,
            size,
            pc,
            taken,
            target,
        } = columns;
        let n = kind.len();
        let lens = [
            src0.len(),
            src1.len(),
            dst.len(),
            addr.len(),
            size.len(),
            pc.len(),
            taken.len(),
            target.len(),
        ];
        if n == 0 || lens.iter().any(|&len| len != n) {
            return None;
        }
        Some(TraceBuffer {
            kind,
            src0,
            src1,
            dst,
            addr,
            size,
            pc,
            taken,
            target,
        })
    }

    /// Number of captured µops (one cycle of the replay).
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the buffer is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Reassembles the `i`-th captured µop.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn uop(&self, i: usize) -> Uop {
        Uop {
            kind: self.kind[i],
            srcs: [reg_from(self.src0[i]), reg_from(self.src1[i])],
            dst: reg_from(self.dst[i]),
            addr: self.addr[i],
            size: self.size[i],
            pc: self.pc[i],
            taken: self.taken[i],
            target: self.target[i],
        }
    }

    /// A replay cursor over this shared buffer, positioned at µop 0.
    pub fn cursor(self: &Arc<Self>) -> TraceCursor {
        TraceCursor {
            buf: Arc::clone(self),
            pos: 0,
        }
    }
}

/// A cycling replay cursor over a shared [`TraceBuffer`].
///
/// Cloning is an `Arc` bump; every clone starts from the *current*
/// position, matching how `SyntheticTrace: Clone` snapshots generator
/// state (BADCO training clones its trace argument).
#[derive(Debug, Clone)]
pub struct TraceCursor {
    buf: Arc<TraceBuffer>,
    pos: usize,
}

impl TraceCursor {
    /// A cursor at µop 0 of `buf`.
    pub fn new(buf: Arc<TraceBuffer>) -> Self {
        TraceCursor { buf, pos: 0 }
    }

    /// The underlying shared buffer.
    pub fn buffer(&self) -> &Arc<TraceBuffer> {
        &self.buf
    }
}

impl TraceSource for TraceCursor {
    #[inline]
    fn next_uop(&mut self) -> Uop {
        let u = self.buf.uop(self.pos);
        self.pos += 1;
        if self.pos == self.buf.len() {
            self.pos = 0;
        }
        u
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::benchmark_by_name;

    #[test]
    fn capture_matches_generator_exactly() {
        let bench = benchmark_by_name("gcc").unwrap();
        let mut original = bench.trace();
        let buf = Arc::new(TraceBuffer::capture(&mut original, 5_000));
        assert_eq!(buf.len(), 5_000);
        let mut cursor = buf.cursor();
        original.reset();
        for i in 0..5_000 {
            assert_eq!(cursor.next_uop(), original.next_uop(), "µop {i}");
        }
    }

    #[test]
    fn cursor_cycles_like_thread_restart() {
        let bench = benchmark_by_name("hmmer").unwrap();
        let buf = Arc::new(TraceBuffer::capture(&mut bench.trace(), 100));
        let mut cursor = buf.cursor();
        let first: Vec<Uop> = (0..100).map(|_| cursor.next_uop()).collect();
        let second: Vec<Uop> = (0..100).map(|_| cursor.next_uop()).collect();
        assert_eq!(first, second, "replay must cycle");
        cursor.reset();
        assert_eq!(cursor.next_uop(), first[0]);
    }

    #[test]
    fn wrap_matches_generator_reset() {
        // The generator's thread-restart rule is reset-after-trace_len;
        // the cursor's is modular wrap. The streams must agree across the
        // boundary.
        let bench = benchmark_by_name("mcf").unwrap();
        let n = 257;
        let buf = Arc::new(TraceBuffer::capture(&mut bench.trace(), n));
        let mut cursor = buf.cursor();
        let mut generator = bench.trace();
        for pass in 0..3 {
            generator.reset();
            for i in 0..n {
                assert_eq!(
                    cursor.next_uop(),
                    generator.next_uop(),
                    "pass {pass} µop {i}"
                );
            }
        }
    }

    #[test]
    fn clones_replay_independently() {
        let bench = benchmark_by_name("soplex").unwrap();
        let buf = Arc::new(TraceBuffer::capture(&mut bench.trace(), 64));
        let mut a = buf.cursor();
        for _ in 0..10 {
            a.next_uop();
        }
        let mut b = a.clone();
        // Both continue from µop 10 and do not disturb each other.
        let ua = a.next_uop();
        let ub = b.next_uop();
        assert_eq!(ua, ub);
        a.next_uop();
        assert_eq!(b.next_uop(), buf.uop(11), "b is unaffected by a");
    }

    #[test]
    fn from_columns_rebuilds_a_capture() {
        let bench = benchmark_by_name("gcc").unwrap();
        let buf = TraceBuffer::capture(&mut bench.trace(), 300);
        let columns = TraceColumns {
            kind: buf.kind.clone(),
            src0: buf.src0.clone(),
            src1: buf.src1.clone(),
            dst: buf.dst.clone(),
            addr: buf.addr.clone(),
            size: buf.size.clone(),
            pc: buf.pc.clone(),
            taken: buf.taken.clone(),
            target: buf.target.clone(),
        };
        assert_eq!(TraceBuffer::from_columns(columns.clone()), Some(buf));
        let mut short = columns;
        short.pc.pop();
        assert_eq!(TraceBuffer::from_columns(short), None, "ragged columns");
        assert_eq!(TraceBuffer::from_columns(TraceColumns::default()), None);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_capture_panics() {
        let bench = benchmark_by_name("gcc").unwrap();
        TraceBuffer::capture(&mut bench.trace(), 0);
    }
}
