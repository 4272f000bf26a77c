//! The trace interface the core consumes.

use crate::insn::MicroOp;

/// A source of micro-operations in program order.
///
/// Implementations include the per-benchmark statistical generators in the
/// `specgen` crate and simple vector-backed traces for tests.
pub trait TraceSource {
    /// Produces the next instruction, or `None` at end of trace.
    fn next_op(&mut self) -> Option<MicroOp>;

    /// Produces the next run of at most `max` instructions (at least one
    /// unless the trace has ended or `max` is 0), advancing past them.
    ///
    /// A source backed by a buffer lends a slice of it. The default
    /// produces one op through [`TraceSource::next_op`], parked in
    /// `spare`.
    fn next_ops<'a>(&'a mut self, max: u64, spare: &'a mut MicroOp) -> &'a [MicroOp] {
        next_op_into(self, max, spare)
    }
}

/// The default [`TraceSource::next_ops`]: one op from `next_op`, parked
/// in `spare`, or none at the end of the trace or when `max` is 0.
/// Buffered sources fall back to it past their buffer.
pub fn next_op_into<'a, T: TraceSource + ?Sized>(
    trace: &mut T,
    max: u64,
    spare: &'a mut MicroOp,
) -> &'a [MicroOp] {
    if max == 0 {
        return &[];
    }
    match trace.next_op() {
        Some(op) => {
            *spare = op;
            std::slice::from_ref(spare)
        }
        None => &[],
    }
}

/// A trace backed by a vector, for tests and microbenchmarks.
#[derive(Debug, Clone)]
pub struct VecTrace {
    ops: Vec<MicroOp>,
    pos: usize,
    /// Loop the vector forever instead of ending.
    repeat: bool,
}

impl VecTrace {
    /// A trace that plays `ops` once.
    pub fn new(ops: Vec<MicroOp>) -> Self {
        VecTrace {
            ops,
            pos: 0,
            repeat: false,
        }
    }

    /// A trace that loops `ops` forever.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty (an empty loop would never produce an op).
    pub fn looping(ops: Vec<MicroOp>) -> Self {
        assert!(!ops.is_empty(), "looping trace needs at least one op");
        VecTrace {
            ops,
            pos: 0,
            repeat: true,
        }
    }
}

impl TraceSource for VecTrace {
    fn next_op(&mut self) -> Option<MicroOp> {
        if self.pos >= self.ops.len() {
            if self.repeat {
                self.pos = 0;
            } else {
                return None;
            }
        }
        let op = self.ops[self.pos];
        self.pos += 1;
        Some(op)
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_op(&mut self) -> Option<MicroOp> {
        (**self).next_op()
    }

    fn next_ops<'a>(&'a mut self, max: u64, spare: &'a mut MicroOp) -> &'a [MicroOp] {
        (**self).next_ops(max, spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::MicroOp;

    #[test]
    fn vec_trace_ends() {
        let mut t = VecTrace::new(vec![MicroOp::alu(0, 1, None, None)]);
        assert!(t.next_op().is_some());
        assert!(t.next_op().is_none());
    }

    #[test]
    fn looping_trace_repeats() {
        let mut t = VecTrace::looping(vec![MicroOp::alu(0, 1, None, None)]);
        for _ in 0..10 {
            assert!(t.next_op().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_looping_trace_panics() {
        VecTrace::looping(vec![]);
    }
}
