//! Executable-memory arena for the template JIT, plus the host-capability
//! probe.
//!
//! The workspace is dependency-free, so the arena speaks to the kernel
//! directly: `mmap`/`mprotect`/`munmap` via inline-asm syscalls on
//! x86-64 Linux. The whole arena is W^X-toggled as one unit — writable
//! only inside [`Arena::with_writable`], executable the rest of the time.
//! A toggle is two `mprotect` calls of several microseconds each, far
//! more than compiling the trace it installs, so the tier calls
//! `with_writable` from exactly one place — its batched publication
//! routine — and the shared epilogue is written before the mapping is
//! first sealed. A refused flip is reported, not asserted: the tier then
//! retires itself and the run continues on the engine. On any other
//! target, or when the host refuses executable anonymous pages (hardened
//! kernels, seccomp sandboxes, W^X-enforcing containers),
//! [`jit_available`] is `false` and `ExecMode::Jit` transparently degrades
//! to the micro-op engine semantics with zero JIT counters.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod native {
    use std::arch::asm;

    const SYS_MMAP: u64 = 9;
    const SYS_MPROTECT: u64 = 10;
    const SYS_MUNMAP: u64 = 11;
    const PROT_READ: u64 = 1;
    const PROT_WRITE: u64 = 2;
    const PROT_EXEC: u64 = 4;
    const MAP_PRIVATE_ANON: u64 = 0x22;

    unsafe fn sys_mmap(len: usize, prot: u64) -> i64 {
        let ret: i64;
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MMAP => ret,
                in("rdi") 0u64,
                in("rsi") len as u64,
                in("rdx") prot,
                in("r10") MAP_PRIVATE_ANON,
                in("r8") -1i64,
                in("r9") 0u64,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    unsafe fn sys_mprotect(addr: usize, len: usize, prot: u64) -> i64 {
        let ret: i64;
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MPROTECT => ret,
                in("rdi") addr as u64,
                in("rsi") len as u64,
                in("rdx") prot,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    unsafe fn sys_munmap(addr: usize, len: usize) -> i64 {
        let ret: i64;
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MUNMAP => ret,
                in("rdi") addr as u64,
                in("rsi") len as u64,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// A W^X-toggled anonymous mapping.
    #[derive(Debug)]
    pub struct Arena {
        base: usize,
        len: usize,
        cursor: usize,
        /// End of the preamble: where [`Arena::reset`] rewinds to.
        floor: usize,
        /// Test hook: the number of flips the "kernel" still grants.
        #[cfg(test)]
        pub flips_left: Option<u32>,
    }

    // The arena is plain owned memory; the raw base is never shared.
    unsafe impl Send for Arena {}

    impl Arena {
        /// Maps `len` bytes read+write, writes `preamble` at offset 0
        /// (it survives every [`Arena::reset`]) and seals the mapping
        /// executable. Returns `None` when the kernel refuses either step.
        pub fn new(len: usize, preamble: &[u8]) -> Option<Arena> {
            assert!(preamble.len() <= len);
            let ret = unsafe { sys_mmap(len, PROT_READ | PROT_WRITE) };
            if ret < 0 || ret as u64 >= u64::MAX - 4096 {
                return None;
            }
            let base = ret as usize;
            // SAFETY: a fresh private read+write mapping of `len` bytes,
            // at least as long as `preamble` (asserted above).
            unsafe {
                std::ptr::copy_nonoverlapping(preamble.as_ptr(), base as *mut u8, preamble.len())
            };
            if unsafe { sys_mprotect(base, len, PROT_READ | PROT_EXEC) } != 0 {
                unsafe { sys_munmap(base, len) };
                return None;
            }
            Some(Arena {
                base,
                len,
                cursor: preamble.len(),
                floor: preamble.len(),
                #[cfg(test)]
                flips_left: None,
            })
        }

        /// Absolute address of an arena offset.
        pub fn addr(&self, off: usize) -> usize {
            debug_assert!(off < self.len);
            self.base + off
        }

        /// Flips the arena writable, runs `f`, and seals it executable
        /// again — one W^X toggle. All code writes (allocation, patching,
        /// restores) go through here, so the mapping is never writable
        /// while guest traces may execute. `None` means the kernel refused
        /// a flip it granted at map time: the mapping may no longer be
        /// executable, so the caller must never enter it again.
        pub fn with_writable<R>(&mut self, f: impl FnOnce(&mut ArenaWriter<'_>) -> R) -> Option<R> {
            if !self.protect(PROT_READ | PROT_WRITE) {
                return None;
            }
            let r = f(&mut ArenaWriter { arena: self });
            self.protect(PROT_READ | PROT_EXEC).then_some(r)
        }

        /// One `mprotect` of the whole arena; `false` when refused.
        fn protect(&mut self, prot: u64) -> bool {
            #[cfg(test)]
            if let Some(left) = self.flips_left.as_mut() {
                if *left == 0 {
                    return false;
                }
                *left -= 1;
            }
            unsafe { sys_mprotect(self.base, self.len, prot) == 0 }
        }

        /// Drops every allocation but the preamble (the bytes stay
        /// mapped; the cursor rewinds).
        pub fn reset(&mut self) {
            self.cursor = self.floor;
        }
    }

    impl Drop for Arena {
        fn drop(&mut self) {
            unsafe { sys_munmap(self.base, self.len) };
        }
    }

    /// Write access to an arena inside [`Arena::with_writable`].
    #[derive(Debug)]
    pub struct ArenaWriter<'a> {
        arena: &'a mut Arena,
    }

    impl ArenaWriter<'_> {
        /// Appends `code` at the cursor; returns its offset, or `None`
        /// when the arena is full (the caller flushes every trace and
        /// retries).
        pub fn alloc(&mut self, code: &[u8]) -> Option<usize> {
            // 16-byte-align every trace so entry points don't straddle
            // fetch-block boundaries.
            let off = (self.arena.cursor + 15) & !15;
            if off + code.len() > self.arena.len {
                return None;
            }
            self.write_at(off, code);
            self.arena.cursor = off + code.len();
            Some(off)
        }

        /// Overwrites bytes at a previously allocated offset (exit-site
        /// patching and unpatching).
        pub fn write_at(&mut self, off: usize, bytes: &[u8]) {
            assert!(off + bytes.len() <= self.arena.len);
            let dst = (self.arena.base + off) as *mut u8;
            unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len()) };
        }
    }

    /// Calls a compiled trace entry: `extern "sysv64" fn(ctx, trace) ->
    /// status`.
    ///
    /// # Safety
    ///
    /// `addr` must be the external entry of a live trace in a sealed
    /// arena, and `ctx` must point to a fully initialized `JitCtx` whose
    /// raw pointers (cpu, mem, xregs, stamp/block tables) are valid for
    /// the duration of the call.
    pub unsafe fn call_entry(addr: usize, ctx: *mut u8, trace: u32) -> u64 {
        let f: extern "sysv64" fn(*mut u8, u32) -> u64 = unsafe { std::mem::transmute(addr) };
        f(ctx, trace)
    }

    /// One-time host probe: map a page, emit `mov eax, 0x2a; ret`, seal
    /// it executable and run it. Any refusal (or a wrong answer) marks
    /// the JIT unavailable for the process lifetime.
    pub fn probe() -> bool {
        let Some(a) = Arena::new(4096, &[0xb8, 0x2a, 0x00, 0x00, 0x00, 0xc3]) else {
            return false;
        };
        let f: extern "sysv64" fn() -> u32 = unsafe { std::mem::transmute(a.addr(0)) };
        f() == 0x2a
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod native {
    //! Portable stub: no executable pages, no JIT. Every entry point is
    //! either unreachable (guarded by [`super::jit_available`]) or a
    //! no-op.

    /// Stub arena: never constructible.
    #[derive(Debug)]
    pub struct Arena {}

    impl Arena {
        /// Always `None` on non-x86-64-Linux hosts.
        pub fn new(_len: usize, _preamble: &[u8]) -> Option<Arena> {
            None
        }
        pub fn addr(&self, _off: usize) -> usize {
            unreachable!("stub arena")
        }
        pub fn with_writable<R>(
            &mut self,
            _f: impl FnOnce(&mut ArenaWriter<'_>) -> R,
        ) -> Option<R> {
            unreachable!("stub arena")
        }
        pub fn reset(&mut self) {}
    }

    /// Stub writer (never constructed).
    #[derive(Debug)]
    pub struct ArenaWriter<'a> {
        _arena: &'a mut Arena,
    }

    impl ArenaWriter<'_> {
        pub fn alloc(&mut self, _code: &[u8]) -> Option<usize> {
            None
        }
        pub fn write_at(&mut self, _off: usize, _bytes: &[u8]) {}
    }

    /// # Safety
    ///
    /// Never called on stub targets ([`super::jit_available`] is false).
    pub unsafe fn call_entry(_addr: usize, _ctx: *mut u8, _trace: u32) -> u64 {
        unreachable!("jit entry on a host without executable pages")
    }

    pub fn probe() -> bool {
        false
    }
}

pub(super) use native::{call_entry, Arena};

/// Whether this process can emit and execute host code: x86-64 Linux with
/// working anonymous executable pages. Probed once; the result is stable
/// for the process lifetime. When false, `ExecMode::Jit` runs with the
/// micro-op engine's exact semantics and zero JIT counters.
pub fn jit_available() -> bool {
    static PROBE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PROBE.get_or_init(native::probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_stable() {
        assert_eq!(jit_available(), jit_available());
    }

    #[test]
    fn arena_allocates_and_executes_when_available() {
        if !jit_available() {
            return;
        }
        let mut a = Arena::new(4096, &[]).expect("probe passed, arena must map");
        // mov eax, edi; add eax, 1; ret  — a tiny callable.
        let off = a
            .with_writable(|w| w.alloc(&[0x89, 0xf8, 0x83, 0xc0, 0x01, 0xc3]))
            .expect("the kernel grants the flips")
            .expect("arena has room");
        let f: extern "sysv64" fn(u32) -> u32 = unsafe { std::mem::transmute(a.addr(off)) };
        assert_eq!(f(41), 42);
        // Patching under the W toggle: turn `add eax, 1` into `add eax, 2`.
        a.with_writable(|w| w.write_at(off + 2, &[0x83, 0xc0, 0x02]))
            .expect("the kernel grants the flips");
        assert_eq!(f(40), 42);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn refused_flip_is_reported_and_preamble_survives_reset() {
        if !jit_available() {
            return;
        }
        // mov eax, 7; ret — the preamble is callable and outlives resets.
        let mut a = Arena::new(4096, &[0xb8, 0x07, 0x00, 0x00, 0x00, 0xc3]).expect("arena");
        a.with_writable(|w| assert_eq!(w.alloc(&[0xc3]), Some(16)))
            .expect("the kernel grants the flips");
        a.reset();
        let f: extern "sysv64" fn() -> u32 = unsafe { std::mem::transmute(a.addr(0)) };
        assert_eq!(f(), 7);
        // Refuse the flip back to executable, then the flip to writable:
        // both are reported, and the closure never runs for the second.
        a.flips_left = Some(1);
        assert_eq!(a.with_writable(|_| ()), None);
        assert_eq!(
            a.with_writable(|_| unreachable!("no write access")),
            None::<()>
        );
    }

    #[test]
    fn arena_full_returns_none() {
        if !jit_available() {
            return;
        }
        let mut a = Arena::new(4096, &[]).expect("arena");
        let big = vec![0xcc; 4096];
        a.with_writable(|w| {
            assert!(w.alloc(&big).is_some());
            assert!(w.alloc(&[0xc3]).is_none());
        })
        .expect("the kernel grants the flips");
        a.reset();
        a.with_writable(|w| assert!(w.alloc(&[0xc3]).is_some()))
            .expect("the kernel grants the flips");
    }
}
