//! Architectural state of one hart: integer/FP/vector register files, pc,
//! and the vector configuration established by `vsetvli`.

use chimera_isa::{Eew, FReg, FpWidth, VReg, VType, XReg, VLEN};

/// Bytes per vector register.
pub const VLENB: usize = (VLEN / 8) as usize;

/// One hart's architectural state.
#[derive(Debug, Clone)]
pub struct Hart {
    /// Integer registers; index 0 is hard-wired zero (enforced by
    /// [`Hart::set_x`]).
    x: [u64; 32],
    /// FP registers as raw bits (f32 values are NaN-boxed).
    f: [u64; 32],
    /// Vector registers.
    v: [[u8; VLENB]; 32],
    /// Program counter.
    pub pc: u64,
    /// Current vector length (elements), set by `vsetvli`.
    pub vl: u64,
    /// Current vector type, set by `vsetvli`.
    pub vtype: Option<VType>,
}

impl Default for Hart {
    fn default() -> Self {
        Hart {
            x: [0; 32],
            f: [0; 32],
            v: [[0; VLENB]; 32],
            pc: 0,
            vl: 0,
            vtype: None,
        }
    }
}

impl Hart {
    /// Creates a hart with all registers zero.
    pub fn new() -> Self {
        Hart::default()
    }

    /// Reads an integer register (`zero` reads 0).
    #[inline]
    pub fn get_x(&self, r: XReg) -> u64 {
        self.x[r.index() as usize]
    }

    /// Snapshot of the whole integer register file (differential testing).
    pub fn xregs(&self) -> [u64; 32] {
        self.x
    }

    /// Raw pointer to the integer register file, for the JIT tier's
    /// register contract (`r13` in emitted traces). Templates never write
    /// index 0, preserving the `zero` invariant `set_x` enforces.
    pub(crate) fn x_ptr(&mut self) -> *mut u64 {
        self.x.as_mut_ptr()
    }

    /// Raw pointer to the FP register file (`JitCtx::fregs`); same
    /// contract as [`Hart::x_ptr`].
    pub(crate) fn f_ptr(&mut self) -> *mut u64 {
        self.f.as_mut_ptr()
    }

    /// Writes an integer register (writes to `zero` are discarded).
    #[inline]
    pub fn set_x(&mut self, r: XReg, v: u64) {
        if r != XReg::ZERO {
            self.x[r.index() as usize] = v;
        }
    }

    /// Reads an FP register's raw bits.
    #[inline]
    pub fn get_f(&self, r: FReg) -> u64 {
        self.f[r.index() as usize]
    }

    /// Writes an FP register's raw bits.
    #[inline]
    pub fn set_f(&mut self, r: FReg, v: u64) {
        self.f[r.index() as usize] = v;
    }

    /// Reads an FP register as f64.
    #[inline]
    pub fn get_d(&self, r: FReg) -> f64 {
        f64::from_bits(self.get_f(r))
    }

    /// Writes an FP register as f64.
    #[inline]
    pub fn set_d(&mut self, r: FReg, v: f64) {
        self.set_f(r, v.to_bits());
    }

    /// Reads an FP register as an operand of `width`: its value bits,
    /// honouring NaN-boxing ([`FpWidth::unbox`]).
    #[inline]
    pub fn get_fp(&self, width: FpWidth, r: FReg) -> u64 {
        width.unbox(self.get_f(r))
    }

    /// Writes value bits of `width` to an FP register, NaN-boxing a single.
    #[inline]
    pub fn set_fp(&mut self, width: FpWidth, r: FReg, v: u64) {
        self.set_f(r, width.nan_box(v));
    }

    /// Reads an FP register as f32, honouring NaN-boxing (an improperly
    /// boxed value reads as canonical NaN, as the spec requires).
    #[inline]
    pub fn get_s(&self, r: FReg) -> f32 {
        f32::from_bits(self.get_fp(FpWidth::S, r) as u32)
    }

    /// Writes an FP register as a NaN-boxed f32.
    #[inline]
    pub fn set_s(&mut self, r: FReg, v: f32) {
        self.set_fp(FpWidth::S, r, v.to_bits() as u64);
    }

    /// Borrows a vector register's bytes.
    #[inline]
    pub fn get_v(&self, r: VReg) -> &[u8; VLENB] {
        &self.v[r.index() as usize]
    }

    /// Mutably borrows a vector register's bytes.
    #[inline]
    pub fn get_v_mut(&mut self, r: VReg) -> &mut [u8; VLENB] {
        &mut self.v[r.index() as usize]
    }

    /// Reads element `i` of a vector register at the given element width,
    /// zero-extended to u64.
    pub fn v_elem(&self, r: VReg, eew: Eew, i: usize) -> u64 {
        let b = self.get_v(r);
        let w = eew.bytes() as usize;
        let off = i * w;
        let mut buf = [0u8; 8];
        buf[..w].copy_from_slice(&b[off..off + w]);
        u64::from_le_bytes(buf)
    }

    /// Writes element `i` of a vector register at the given element width
    /// (truncating `val`).
    pub fn set_v_elem(&mut self, r: VReg, eew: Eew, i: usize, val: u64) {
        let w = eew.bytes() as usize;
        let off = i * w;
        let bytes = val.to_le_bytes();
        self.get_v_mut(r)[off..off + w].copy_from_slice(&bytes[..w]);
    }

    /// The maximum vector length for an element width under LMUL grouping.
    pub fn vlmax(vtype: VType) -> u64 {
        (VLEN as u64 / vtype.sew.bits() as u64) * vtype.lmul as u64
    }

    /// The `gp` register value (the SMILE trampoline's pivot).
    #[inline]
    pub fn gp(&self) -> u64 {
        self.get_x(XReg::GP)
    }

    /// A 64-bit FNV-1a digest of the complete architectural state: pc,
    /// both scalar register files, every vector register, and the vector
    /// configuration. The many-hart determinism gates compare these
    /// checksums across host worker counts, so the digest must cover
    /// everything a divergent schedule could perturb.
    pub fn state_hash(&self) -> u64 {
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, self.pc);
        for &x in &self.x {
            h = fnv1a(h, x);
        }
        for &f in &self.f {
            h = fnv1a(h, f);
        }
        for v in &self.v {
            for chunk in v.chunks_exact(8) {
                h = fnv1a(h, u64::from_le_bytes(chunk.try_into().unwrap()));
            }
        }
        h = fnv1a(h, self.vl);
        match self.vtype {
            None => fnv1a(h, u64::MAX),
            Some(vt) => {
                let packed = (vt.sew.bits() as u64) << 32
                    | (vt.lmul as u64) << 2
                    | (vt.ta as u64) << 1
                    | vt.ma as u64;
                fnv1a(h, packed)
            }
        }
    }
}

/// One word-at-a-time FNV-1a step (a digest, not the byte-exact FNV).
#[inline]
fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_hardwired() {
        let mut h = Hart::new();
        h.set_x(XReg::ZERO, 99);
        assert_eq!(h.get_x(XReg::ZERO), 0);
        h.set_x(XReg::A0, 7);
        assert_eq!(h.get_x(XReg::A0), 7);
    }

    #[test]
    fn nan_boxing() {
        let mut h = Hart::new();
        h.set_s(FReg::FA0, 1.5);
        assert_eq!(h.get_s(FReg::FA0), 1.5);
        // A raw f64 write leaves an improperly boxed f32: reads as NaN.
        h.set_d(FReg::FA0, 1.5);
        assert!(h.get_s(FReg::FA0).is_nan());
    }

    #[test]
    fn vector_element_access() {
        let mut h = Hart::new();
        let v1 = VReg::of(1);
        h.set_v_elem(v1, Eew::E64, 2, 0xdead_beef_0123_4567);
        assert_eq!(h.v_elem(v1, Eew::E64, 2), 0xdead_beef_0123_4567);
        h.set_v_elem(v1, Eew::E16, 0, 0x1234);
        assert_eq!(h.v_elem(v1, Eew::E16, 0), 0x1234);
        // E64 element 0 now has the E16 write in its low bytes.
        assert_eq!(h.v_elem(v1, Eew::E64, 0) & 0xffff, 0x1234);
    }

    #[test]
    fn vlmax_matches_vlen() {
        let vt = |sew, lmul| VType {
            sew,
            lmul,
            ta: true,
            ma: true,
        };
        assert_eq!(Hart::vlmax(vt(Eew::E64, 1)), 4); // 256/64
        assert_eq!(Hart::vlmax(vt(Eew::E32, 1)), 8);
        assert_eq!(Hart::vlmax(vt(Eew::E8, 8)), 256);
    }
}
