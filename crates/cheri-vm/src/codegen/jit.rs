//! The executable-memory allocator and the native block body.
//!
//! # ABI
//!
//! Every emitted block body is an `extern "C"` function
//!
//! ```text
//! fn(regs: *mut u64, vm: *mut Vm, ctx: *mut TrapCtx) -> u64
//! ```
//!
//! returning the next pc after the terminal, or [`SENTINEL`] after a trap
//! with the trapping pc and cause parked in `ctx`. Inline code touches
//! only the guest register file through `regs`; trampolined ops call
//! [`flat_shim`], which reconstitutes `&mut Vm` and runs the single
//! interpreter arm (`exec_flat`) every other backend shares.
//!
//! # W^X lifecycle
//!
//! [`CodeBuf`] bump-allocates blocks into dual-mapped chunks: each chunk
//! is an anonymous `memfd` mapped twice, once `PROT_READ|PROT_WRITE` (the
//! write view the assembler copies finished blocks into) and once
//! `PROT_READ|PROT_EXEC` (the execute view block bodies run from). No
//! mapping is ever writable and executable at once, and neither view's
//! protections ever change — W^X holds with zero syscalls per compiled
//! block, which is what keeps engine boot cheap enough for per-request
//! sandbox VMs (protection flipping costs a page-table update per block
//! on every boot). Cloning an engine (VM snapshot/fork) *seals* the
//! buffer: the original retires its current chunk and opens a fresh one
//! for future blocks, so bytes a clone may be executing on another thread
//! are never rewritten. Chunks are reference-counted by the bodies
//! compiled into them; when the last body drops — and with it the last
//! pointer into the chunk — the chunk is parked in a small process-wide
//! pool for the next engine, or unmapped when the pool is full.

use super::emit;
use crate::backend::BlockRepr;
use crate::ir::FlatOp;
use crate::machine::Vm;
use crate::trap::TrapCause;
use std::arch::asm;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The "this block trapped" return value. A guest can also jump to this
/// pc (it then traps on the next fetch), so [`NativeBody::exec`] tells a
/// trap from a jump by the parked cause; the value only short-circuits
/// the rest of a block after a trampolined op.
pub(super) const SENTINEL: u64 = u64::MAX;

/// `TrapCtx::inline_cause` value for an inline overflow trap (the only
/// trap emitted code raises without going through the shim).
const INLINE_OVERFLOW: u64 = 1;

/// x86-64 Linux page size. Fixed (not queried): 4 KiB is the only base
/// page size the architecture's mmap grants on this platform.
const PAGE: usize = 4096;

/// Default chunk size; blocks are a few hundred bytes, so one chunk
/// serves a whole program in the common case.
const CHUNK_BYTES: usize = 256 * 1024;

/// Trap-exit scratch shared between emitted code, the shim and
/// [`NativeBody::exec`]. `#[repr(C)]` because emitted code stores to the
/// first two fields by byte offset (0 and 8).
#[repr(C)]
#[derive(Default)]
struct TrapCtx {
    trap_pc: u64,
    /// Non-zero when inline code raised the trap ([`INLINE_OVERFLOW`]);
    /// zero when `cause` was filled in by the shim.
    inline_cause: u64,
    cause: Option<TrapCause>,
}

type BlockFn = unsafe extern "C" fn(*mut u64, *mut Vm, *mut TrapCtx) -> u64;

// ---------------------------------------------------------------------
// Raw mapping syscalls. Written directly against the x86-64 Linux
// syscall ABI so the crate stays dependency-free.
// ---------------------------------------------------------------------

const PROT_READ: usize = 1;
const PROT_WRITE: usize = 2;
const PROT_EXEC: usize = 4;
const MAP_SHARED: usize = 0x01;
const MFD_CLOEXEC: usize = 1;
const SYS_CLOSE: usize = 3;
const SYS_MMAP: usize = 9;
const SYS_MUNMAP: usize = 11;
const SYS_FTRUNCATE: usize = 77;
const SYS_MEMFD_CREATE: usize = 319;

/// `mmap(NULL, len, prot, MAP_SHARED, fd, 0)` — one view of a memfd.
///
/// # Safety
///
/// `fd` must be a live memfd of at least `len` bytes. The returned
/// pointer carries no lifetime — the caller owns the view and must pair
/// it with [`munmap`].
unsafe fn mmap_fd(len: usize, prot: usize, fd: isize) -> *mut u8 {
    let ret: isize;
    // SAFETY: correct x86-64 Linux syscall clobber set (rcx/r11); mmap
    // reads no memory through its arguments.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_MMAP as isize => ret,
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") prot,
            in("r10") MAP_SHARED,
            in("r8") fd,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    assert!(ret > 0, "mmap for JIT code buffer failed: errno {}", -ret);
    ret as *mut u8
}

/// Creates a `len`-byte chunk backing and maps it twice: a read+write
/// view for the assembler and a read+execute view for execution. The
/// backing memfd is closed before returning (the mappings keep the pages
/// alive), so no file descriptor outlives this call.
fn map_dual_views(len: usize) -> (*mut u8, *mut u8) {
    let fd: isize;
    // SAFETY: memfd_create reads the name as a NUL-terminated string; the
    // literal below is NUL-terminated and outlives the call. Correct
    // syscall clobber set.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_MEMFD_CREATE as isize => fd,
            in("rdi") c"cheri-jit".as_ptr(),
            in("rsi") MFD_CLOEXEC,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    assert!(
        fd >= 0,
        "memfd_create for JIT code buffer failed: errno {}",
        -fd
    );
    let ret: isize;
    // SAFETY: sizes the fresh memfd; correct clobber set.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_FTRUNCATE as isize => ret,
            in("rdi") fd,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    assert!(
        ret == 0,
        "ftruncate for JIT code buffer failed: errno {}",
        -ret
    );
    // SAFETY: `fd` is a live memfd of exactly `len` bytes; ownership of
    // both views passes to the caller.
    let (rw, rx) = unsafe {
        (
            mmap_fd(len, PROT_READ | PROT_WRITE, fd),
            mmap_fd(len, PROT_READ | PROT_EXEC, fd),
        )
    };
    // SAFETY: closing the memfd; the two mappings keep the pages alive.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_CLOSE as isize => _,
            in("rdi") fd,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    (rw, rx)
}

/// `munmap(addr, len)`
///
/// # Safety
///
/// `addr..addr+len` must be exactly a mapping from [`mmap_fd`] with no
/// live references (in particular, no executing code) into it.
unsafe fn munmap(addr: *mut u8, len: usize) {
    let ret: isize;
    // SAFETY: correct syscall clobber set; precondition is the caller's.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_MUNMAP as isize => ret,
            in("rdi") addr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    debug_assert!(ret == 0, "munmap failed: errno {}", -ret);
}

const fn page_round(n: usize) -> usize {
    (n + PAGE - 1) & !(PAGE - 1)
}

// ---------------------------------------------------------------------
// CodeBuf
// ---------------------------------------------------------------------

/// Retired standard-size chunks waiting for reuse as `(rw, rx)` view
/// pairs (their length is always [`CHUNK_BYTES`]). Mapping syscalls are
/// the dominant cost of booting an engine, so retiring a chunk parks its
/// views here — zero syscalls on retire, zero on reuse, and the pages
/// stay faulted in. Overwriting the stale code is safe: the last pointer
/// into it died with the retiring handle.
static POOL: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

/// Upper bound on pooled chunks (1 MiB of parked backing pages).
const POOL_CAP: usize = 4;

/// One dual-view chunk of executable memory; on drop (i.e. when the last
/// compiled body in it is dropped) it is recycled through [`POOL`] or
/// unmapped.
struct Chunk {
    /// The write view: the assembler's copy target, never executable.
    rw: *mut u8,
    /// The execute view: where entry points live, never writable.
    rx: *mut u8,
    len: usize,
}

/// SAFETY: a `Chunk` is an owning handle to a pair of memfd views; the
/// addresses are valid from any thread, and all writing through `rw` is
/// serialized by the owning [`CodeBuf`]'s mutex (and stops entirely once
/// the chunk is sealed or retired).
unsafe impl Send for Chunk {}
/// SAFETY: see the `Send` impl; shared access only ever *executes*
/// through `rx`, and the bytes of already-compiled bodies are never
/// rewritten while any handle to the chunk survives.
unsafe impl Sync for Chunk {}

impl Drop for Chunk {
    fn drop(&mut self) {
        // The last handle is going away, so no entry pointer into the
        // chunk can survive — its pages may serve the next engine as-is.
        if self.len == CHUNK_BYTES {
            if let Ok(mut pool) = POOL.lock() {
                if pool.len() < POOL_CAP {
                    pool.push((self.rw as usize, self.rx as usize));
                    return;
                }
            }
        }
        // SAFETY: both views came from `map_dual_views` and the chunk is
        // not in the pool, so this is the sole surviving handle.
        unsafe {
            munmap(self.rw, self.len);
            munmap(self.rx, self.len);
        }
    }
}

impl fmt::Debug for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Chunk(rw {:p}, rx {:p}, {} bytes)",
            self.rw, self.rx, self.len
        )
    }
}

#[derive(Debug, Default)]
struct BufState {
    current: Option<Arc<Chunk>>,
    /// Offset of the next free byte in `current`.
    bump: usize,
}

/// The per-engine W^X bump allocator for emitted code.
#[derive(Debug, Default)]
pub(crate) struct CodeBuf {
    inner: Mutex<BufState>,
}

impl CodeBuf {
    /// Copies `code` into executable memory and returns its entry address
    /// plus the keep-alive handle for the chunk holding it.
    fn alloc(&self, code: &[u8]) -> (usize, Arc<Chunk>) {
        let mut st = self.inner.lock().expect("CodeBuf lock");
        // 16-byte entry alignment.
        let need = (code.len() + 15) & !15;
        let fits = st.current.as_ref().is_some_and(|c| st.bump + need <= c.len);
        if !fits {
            let len = page_round(need.max(CHUNK_BYTES));
            let pooled = (len == CHUNK_BYTES)
                .then(|| POOL.lock().ok().and_then(|mut p| p.pop()))
                .flatten();
            let (rw, rx) = match pooled {
                Some((rw, rx)) => (rw as *mut u8, rx as *mut u8),
                None => map_dual_views(len),
            };
            st.current = Some(Arc::new(Chunk { rw, rx, len }));
            st.bump = 0;
        }
        let chunk = Arc::clone(st.current.as_ref().expect("chunk just ensured"));
        let at = st.bump;
        // SAFETY: `[at, at + code.len())` lies inside the chunk's write
        // view. The chunk is unsealed, so the only code pointers into it
        // belong to this engine's bodies — all at offsets below `at` —
        // and `at` only ever grows, so no byte an entry pointer can reach
        // is ever rewritten. (A recycled pooled chunk starts over at
        // offset 0, but it arrives with zero surviving pointers.)
        unsafe {
            std::ptr::copy_nonoverlapping(code.as_ptr(), chunk.rw.add(at), code.len());
        }
        st.bump = at + need;
        (chunk.rx as usize + at, chunk)
    }
}

impl Clone for CodeBuf {
    /// An engine clone (VM snapshot/fork) gets an empty buffer — and the
    /// original *seals* its current chunk, so pages the clone may now be
    /// executing on another thread are never flipped writable again.
    /// Already-compiled bodies keep their chunks alive through their own
    /// `Arc`s on both sides.
    fn clone(&self) -> CodeBuf {
        let mut st = self.inner.lock().expect("CodeBuf lock");
        st.current = None;
        st.bump = 0;
        CodeBuf::default()
    }
}

// ---------------------------------------------------------------------
// The shim and the body
// ---------------------------------------------------------------------

/// The interpreter trampoline: runs one micro-op through
/// [`Vm::exec_flat`], returning the next pc or parking the trap in `ctx`
/// and returning [`SENTINEL`].
///
/// # Safety
///
/// Called only from emitted block bodies, which guarantee: `vm` is the
/// live `*mut Vm` the body was entered with (reconstituting `&mut Vm` is
/// sound because the body holds no Rust reference across the call — the
/// pinned register-file pointer in `r12` is dormant while the shim runs);
/// `op` points into the body's own `Arc<[FlatOp]>` storage; `ctx` is the
/// body's stack-local [`TrapCtx`]. `exec_flat` never unwinds (all its
/// failure paths are `Result`s), so no panic crosses the `extern "C"`
/// boundary.
unsafe extern "C" fn flat_shim(vm: *mut Vm, op: *const FlatOp, pc: u64, ctx: *mut TrapCtx) -> u64 {
    // SAFETY: contract above.
    let (vm, op) = unsafe { (&mut *vm, &*op) };
    match vm.exec_flat(op, pc) {
        Ok(next) => next,
        Err(cause) => {
            // SAFETY: `ctx` is the caller's live stack slot.
            unsafe {
                (*ctx).trap_pc = pc;
                (*ctx).inline_cause = 0;
                (*ctx).cause = Some(cause);
            }
            SENTINEL
        }
    }
}

/// A block compiled to native code. Cheap to clone: clones share the
/// emitted code (kept alive by `_chunk`) and the micro-op storage the
/// code points into.
#[derive(Clone, Debug)]
pub(crate) struct NativeBody {
    entry: usize,
    /// Keeps the executable chunk mapped while any clone can run it.
    _chunk: Arc<Chunk>,
    /// The block's micro-ops; emitted code embeds `*const FlatOp`s into
    /// this allocation for the trampolined long tail.
    _ops: Arc<[FlatOp]>,
}

impl BlockRepr for NativeBody {
    type Cx = CodeBuf;

    fn compile(ops: &[FlatOp], start: u64, cx: &CodeBuf) -> NativeBody {
        // Pin the micro-ops to their final allocation *before* emitting:
        // the code embeds their addresses.
        let ops: Arc<[FlatOp]> = ops.into();
        let code = emit::emit_block(&ops, start, flat_shim as *const () as usize);
        let (entry, chunk) = cx.alloc(&code);
        NativeBody {
            entry,
            _chunk: chunk,
            _ops: ops,
        }
    }

    // `entry` is unused: the emitted code bakes the block's start pc into
    // every fall-through and trap-pc immediate at compile time.
    fn exec(&self, vm: &mut Vm, _entry: u64) -> Result<u64, (u64, TrapCause)> {
        let mut ctx = TrapCtx::default();
        let vm_ptr: *mut Vm = vm;
        // SAFETY: `entry` is the entry point `compile` received back from
        // the allocator for code emitted by `emit_block`, still mapped
        // read+execute (kept alive by `_chunk`). The emitted code obeys
        // the ABI at the top of this module: it dereferences only the
        // register file (derived from the same `*mut Vm` it is passed, so
        // the shim's reborrow cannot invalidate it), the trap context,
        // and its own `_ops` storage.
        let next = unsafe {
            let f: BlockFn = std::mem::transmute(self.entry);
            let regs = &raw mut (*vm_ptr).regs;
            f(regs.cast::<u64>(), vm_ptr, &mut ctx)
        };
        // Whether the block trapped is decided by the parked cause, not by
        // the return value: a guest control transfer to pc `u64::MAX`
        // returns the sentinel's value as a genuine next pc.
        if ctx.inline_cause == INLINE_OVERFLOW {
            Err((ctx.trap_pc, TrapCause::IntegerOverflow))
        } else if let Some(cause) = ctx.cause {
            Err((ctx.trap_pc, cause))
        } else {
            Ok(next)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codebuf_allocates_executes_and_seals() {
        let buf = CodeBuf::default();
        // mov rax, rdi; ret — an identity function on the first argument.
        let (entry, _chunk) = buf.alloc(&[0x48, 0x89, 0xF8, 0xC3]);
        let f: unsafe extern "C" fn(u64) -> u64 = unsafe { std::mem::transmute(entry) };
        assert_eq!(unsafe { f(42) }, 42);

        // Bump allocation: a second block lands in the same chunk,
        // 16-byte aligned, and the first stays runnable.
        let (entry2, _c2) = buf.alloc(&[0x48, 0x89, 0xF8, 0x48, 0xFF, 0xC0, 0xC3]); // rax = rdi + 1
        assert_eq!(entry2 - entry, 16);
        let g: unsafe extern "C" fn(u64) -> u64 = unsafe { std::mem::transmute(entry2) };
        assert_eq!(unsafe { g(41) }, 42);
        assert_eq!(unsafe { f(7) }, 7);

        // Sealing on clone: the clone starts empty, the original opens a
        // fresh chunk, and old entries still run.
        let forked = buf.clone();
        let (entry3, _c3) = buf.alloc(&[0x48, 0x89, 0xF8, 0xC3]);
        assert!(
            entry3.abs_diff(entry) >= CHUNK_BYTES,
            "post-seal alloc must not reuse the sealed chunk"
        );
        let (fork_entry, _c4) = forked.alloc(&[0x48, 0x89, 0xF8, 0xC3]);
        let h: unsafe extern "C" fn(u64) -> u64 = unsafe { std::mem::transmute(fork_entry) };
        assert_eq!(unsafe { h(9) }, 9);
        assert_eq!(unsafe { f(7) }, 7, "sealed chunk still executable");
    }

    #[test]
    fn retired_chunks_recycle_writable() {
        // Drop every handle to a chunk, then allocate again: whether the
        // fresh buffer gets the recycled chunk (pool hit) or a new
        // mapping, its pages must be writable for the copy and executable
        // after the flip.
        for round in 0..3u64 {
            let buf = CodeBuf::default();
            let (entry, chunk) = buf.alloc(&[0x48, 0x89, 0xF8, 0xC3]); // mov rax, rdi; ret
            let f: unsafe extern "C" fn(u64) -> u64 = unsafe { std::mem::transmute(entry) };
            assert_eq!(unsafe { f(round) }, round);
            drop(buf);
            drop(chunk);
        }
    }
}
