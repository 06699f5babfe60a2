//! A small instruction-stream model.
//!
//! SimpleScalar traces (the paper's input) interleave instruction fetches
//! with data accesses; the instruction stream of a loop kernel is a tight
//! sequential walk over the loop body with occasional calls into helper
//! routines. [`CodeWalker`] models exactly that: 4-byte sequential fetches
//! through a body region, wrapping at the end (the backward branch), with
//! optional excursions to helper bodies.

use dew_trace::Record;

/// Sequential instruction-fetch generator over a loop body.
///
/// # Examples
///
/// The walker is private; its fetches show in the JPEG surrogate, whose
/// MCU loop walks a 24-instruction body from `0x40_0000` and wraps:
///
/// ```
/// use dew_trace::AccessKind;
/// use dew_workloads::mediabench::App;
///
/// let trace = App::JpegEncode.generate(200, 1);
/// let pcs: Vec<u64> = trace
///     .iter()
///     .filter(|r| r.kind == AccessKind::InstrFetch)
///     .map(|r| r.addr)
///     .take(26)
///     .collect();
/// let body: Vec<u64> = (0..24).map(|i| 0x40_0000 + 4 * i).collect();
/// assert_eq!(pcs[..24], body[..]);
/// assert_eq!(pcs[24..], [0x40_0000, 0x40_0004]);
/// ```
#[derive(Debug, Clone)]
pub struct CodeWalker {
    base: u64,
    body_bytes: u64,
    pc: u64,
}

impl CodeWalker {
    /// A walker over `instructions` 4-byte instructions starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    #[must_use]
    pub fn new(base: u64, instructions: u64) -> Self {
        assert!(instructions > 0, "a loop body has at least one instruction");
        CodeWalker {
            base,
            body_bytes: instructions * 4,
            pc: base,
        }
    }

    /// Emits the next instruction fetch, advancing (and wrapping) the PC.
    pub fn fetch(&mut self) -> Record {
        let r = Record::ifetch(self.pc);
        self.pc += 4;
        if self.pc >= self.base + self.body_bytes {
            self.pc = self.base;
        }
        r
    }

    /// Emits `n` consecutive fetches into `out`.
    pub fn fetch_into(&mut self, n: usize, out: &mut Vec<Record>) {
        for _ in 0..n {
            out.push(self.fetch());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dew_trace::AccessKind;

    #[test]
    fn fetches_are_sequential_and_wrap() {
        let base = 0x40_0000;
        let mut w = CodeWalker::new(base, 3);
        let addrs: Vec<u64> = (0..7).map(|_| w.fetch().addr).collect();
        assert_eq!(
            addrs,
            [base, base + 4, base + 8, base, base + 4, base + 8, base]
        );
    }

    #[test]
    fn fetch_kind_is_ifetch() {
        let mut w = CodeWalker::new(0x1000, 1);
        assert_eq!(w.fetch().kind, AccessKind::InstrFetch);
    }

    #[test]
    fn fetch_into_appends() {
        let mut w = CodeWalker::new(0x1000, 2);
        let mut out = Vec::new();
        w.fetch_into(3, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].addr, 0x1000);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_instructions_panics() {
        let _ = CodeWalker::new(0x1000, 0);
    }
}
