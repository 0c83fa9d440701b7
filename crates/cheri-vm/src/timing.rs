//! Decoupled cache timing: the cache model replays the machine's access
//! stream, on a worker thread when the host has a core to spare, while the
//! machine runs ahead.
//!
//! The machine does not call the [`Hierarchy`] per access. It appends a
//! record — its own clock at the access, the address, the length and the
//! kind — to a fixed-size chunk. A consumer replays the records in order
//! and keeps `charged`, the sum of the charges it applied since the
//! machine last folded them into its clock. A record is issued at
//! `at + charged`, which is exactly the clock an inline model saw: the
//! machine's clock then was its own clock plus every earlier charge. So
//! cycles and every [`cheri_cache::CacheStats`] field are bit-identical to
//! charging inline, under every hierarchy knob (MSHRs, store buffers,
//! prefetch, fetch charging, shared edges).
//!
//! Nothing leaves the machine's thread until the first chunk fills. Then,
//! on a host with at least two cores, a worker thread takes the model and
//! replays full chunks while the machine fills the next; on one core the
//! chunk is replayed inline. Either way it is the same replay loop. At
//! most [`CHUNKS`] chunks are alive at once: one filling, one queued, one
//! replaying.
//!
//! A core attached to shared edges ([`cheri_cache::SharedHierarchy`])
//! replays each access as it is recorded, on the machine's thread. The
//! contention model orders the cores' reservations by when they happen,
//! so a core's model must not lag behind the core.
//!
//! The machine syncs — joins the worker, replays the partial chunk and
//! folds `charged` into its clock — wherever a simulated number is read:
//! at every exit of `Vm::run`, after every `Vm::step`, and before the
//! guest reads the clock. Between syncs the model belongs to the replay,
//! so [`CacheTiming::hierarchy`] is only valid on a synced machine.

use cheri_cache::{Hierarchy, SharedHierarchy};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, JoinHandle};

/// Records per chunk (64 KiB). On a 2-core host, chunks of 1024 or 2048
/// records ran the Olden kernels 20–40% slower than 4096.
const CHUNK: usize = 4096;

/// Chunks alive at once while a worker runs.
const CHUNKS: usize = 3;

/// The worker's stack: the replay loop needs a few frames, not the 2 MiB
/// default.
const WORKER_STACK: usize = 64 << 10;

/// Record kinds, the low two bits of [`Rec::key`].
const READ: u64 = 0;
const WRITE: u64 = 1;
const FETCH: u64 = 2;

/// The longest access whose length fits the six length bits of
/// [`Rec::key`]. Data accesses are at most a capability wide; only a long
/// fetched block needs the escape.
const SHORT: u64 = 63;

/// One access: 16 bytes, so a chunk crosses to the worker in as few cache
/// lines as possible.
#[derive(Clone, Copy, Debug)]
struct Rec {
    /// The machine's clock at the access, without cache charges.
    at: u64,
    /// `addr << 8 | len << 2 | kind`. A length outside `1..=SHORT` is 0
    /// here and rides in the `at` of an extra record that follows.
    key: u64,
}

/// The consumer side: the model plus the charges it applied since the
/// machine last synced.
#[derive(Clone, Debug)]
struct Replay {
    hier: Hierarchy,
    charged: u64,
}

impl Replay {
    /// The one replay loop, inline and on the worker alike.
    fn apply(&mut self, recs: &[Rec]) {
        let mut recs = recs.iter();
        while let Some(r) = recs.next() {
            let now = r.at + self.charged;
            let addr = r.key >> 8;
            let len = match (r.key >> 2) & SHORT {
                0 => recs.next().expect("a long access has a length record").at,
                len => len,
            };
            self.charged += match r.key & 3 {
                READ => self.hier.access_at(now, addr, len, false),
                WRITE => self.hier.access_at(now, addr, len, true),
                _ => self.hier.access_fetch(now, addr, len),
            };
        }
    }
}

/// A worker thread that holds the model and replays full chunks.
#[derive(Debug)]
struct Worker {
    /// Full chunks toward the worker; dropped to tell it to finish.
    full: Option<Sender<Vec<Rec>>>,
    /// Replayed chunks coming back for reuse. Behind a `Mutex` only so
    /// the machine stays `Sync`; it is reached through `get_mut`.
    empty: Mutex<Receiver<Vec<Rec>>>,
    /// Chunks created so far, the filling one included.
    chunks: usize,
    handle: Option<JoinHandle<Replay>>,
}

impl Worker {
    fn spawn(mut replay: Replay) -> Worker {
        let (full, full_rx) = channel::<Vec<Rec>>();
        let (empty_tx, empty) = channel();
        let handle = thread::Builder::new()
            .name("cheri-vm-cache".into())
            .stack_size(WORKER_STACK)
            .spawn(move || {
                for mut chunk in full_rx {
                    replay.apply(&chunk);
                    chunk.clear();
                    // Fails only once the machine is syncing, when no more
                    // chunks are needed.
                    let _ = empty_tx.send(chunk);
                }
                replay
            })
            .expect("spawn the cache-model worker");
        Worker {
            full: Some(full),
            empty: Mutex::new(empty),
            chunks: 1,
            handle: Some(handle),
        }
    }

    /// Hands `chunk` to the worker and returns an empty one, waiting for
    /// the worker only when all [`CHUNKS`] are taken. `None` when the
    /// worker is gone (it panicked).
    fn swap(&mut self, chunk: Vec<Rec>) -> Option<Vec<Rec>> {
        self.full.as_ref()?.send(chunk).ok()?;
        let empty = self.empty.get_mut().unwrap_or_else(PoisonError::into_inner);
        match empty.try_recv() {
            Ok(chunk) => Some(chunk),
            Err(TryRecvError::Empty) if self.chunks < CHUNKS => {
                self.chunks += 1;
                Some(Vec::with_capacity(CHUNK))
            }
            Err(TryRecvError::Empty) => empty.recv().ok(),
            Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Lets the worker replay what it was sent, then takes the model back.
    /// A panic on the worker is re-raised here.
    fn join(mut self) -> Replay {
        drop(self.full.take());
        let handle = self.handle.take().expect("a worker is joined once");
        handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

impl Drop for Worker {
    /// A machine dropped mid-run (say, while a panic unwinds) still joins
    /// its worker.
    fn drop(&mut self) {
        drop(self.full.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Whether a worker can run beside the machine. Asked once per process.
#[cfg(not(test))]
fn second_core() -> bool {
    static MULTI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MULTI.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// Unit tests take the worker path on every host.
#[cfg(test)]
fn second_core() -> bool {
    true
}

/// The cache model of a machine, fed by deferred access records.
pub(crate) struct CacheTiming {
    /// The chunk the machine is filling.
    buf: Vec<Rec>,
    /// Hand the chunk off once it holds this many records: one short of
    /// [`CHUNK`], so a two-record access always fits, or 1 once shared
    /// edges are attached.
    limit: usize,
    /// The model while it is on the machine's thread; `None` while a
    /// worker holds it. Exactly one of `home` and `worker` is `Some`.
    home: Option<Replay>,
    worker: Option<Worker>,
    /// Test oracle: the machine syncs after every access, which is the
    /// inline model (every record replays at once, with nothing pending).
    #[cfg(test)]
    pub(crate) eager: bool,
}

impl CacheTiming {
    pub(crate) fn new(hier: Hierarchy) -> CacheTiming {
        CacheTiming {
            buf: Vec::with_capacity(CHUNK),
            limit: CHUNK - 1,
            home: Some(Replay { hier, charged: 0 }),
            worker: None,
            #[cfg(test)]
            eager: false,
        }
    }

    /// Records a data access issued at the machine's clock `at`.
    #[inline]
    pub(crate) fn data(&mut self, at: u64, addr: u64, len: u64, write: bool) {
        self.push(at, addr, len, if write { WRITE } else { READ });
    }

    /// Records an instruction-fetch transaction issued at `at`.
    #[inline]
    pub(crate) fn fetch(&mut self, at: u64, addr: u64, len: u64) {
        self.push(at, addr, len, FETCH);
    }

    #[inline]
    fn push(&mut self, at: u64, addr: u64, len: u64, kind: u64) {
        // Every access lies inside the machine's memory or code image,
        // host allocations far smaller than 2^56 bytes, so the address
        // survives the shift.
        debug_assert!(addr < 1 << 56, "access at {addr:#x}");
        if !(1..=SHORT).contains(&len) {
            return self.push_long(at, addr, len, kind);
        }
        self.buf.push(Rec {
            at,
            key: addr << 8 | len << 2 | kind,
        });
        if self.buf.len() >= self.limit {
            self.hand_off();
        }
    }

    /// [`CacheTiming::push`] for a length the tag cannot hold. Kept out of
    /// line so the inlined access path stays small: inlined into every
    /// load and store handler, it measured slower even on cache-less
    /// machines.
    #[cold]
    #[inline(never)]
    fn push_long(&mut self, at: u64, addr: u64, len: u64, kind: u64) {
        self.buf.push(Rec {
            at,
            key: addr << 8 | kind,
        });
        self.buf.push(Rec { at: len, key: 0 });
        if self.buf.len() >= self.limit {
            self.hand_off();
        }
    }

    /// Passes a full chunk to the worker (spawning it on the first full
    /// chunk when the host has a second core), or replays it inline.
    #[cold]
    #[inline(never)]
    fn hand_off(&mut self) {
        // A core on shared edges (limit 1) keeps its model on its thread.
        if self.worker.is_none() && self.limit > 1 && second_core() {
            let replay = self
                .home
                .take()
                .expect("the model is home without a worker");
            self.worker = Some(Worker::spawn(replay));
        }
        match &mut self.worker {
            Some(w) => match w.swap(std::mem::take(&mut self.buf)) {
                Some(next) => self.buf = next,
                None => {
                    // Only a panic stops the worker early: re-raise it.
                    self.join();
                    unreachable!("the cache-model worker stopped without a panic");
                }
            },
            None => {
                self.sync_inline();
            }
        }
    }

    fn join(&mut self) {
        if let Some(w) = self.worker.take() {
            self.home = Some(w.join());
        }
    }

    fn sync_inline(&mut self) -> &mut Replay {
        let home = self
            .home
            .as_mut()
            .expect("the model is home without a worker");
        home.apply(&self.buf);
        self.buf.clear();
        home
    }

    /// Drains every record — the worker's first, then the partial chunk —
    /// and returns the cycles charged since the last sync, for the machine
    /// to fold into its clock.
    pub(crate) fn sync(&mut self) -> u64 {
        self.join();
        std::mem::take(&mut self.sync_inline().charged)
    }

    /// Attaches the model to `shared` contended edges. Valid on a synced
    /// machine only.
    pub(crate) fn attach_shared(&mut self, shared: SharedHierarchy) {
        debug_assert!(self.buf.is_empty(), "cache model changed before a sync");
        let home = self
            .home
            .as_mut()
            .expect("cache model changed before a sync");
        home.hier.attach_shared(shared);
        self.limit = 1;
    }

    /// The model. Valid on a synced machine only.
    pub(crate) fn hierarchy(&self) -> &Hierarchy {
        debug_assert!(self.buf.is_empty(), "cache model read before a sync");
        &self
            .home
            .as_ref()
            .expect("cache model read before a sync")
            .hier
    }
}

impl Clone for CacheTiming {
    /// Clones a synced model.
    fn clone(&self) -> CacheTiming {
        CacheTiming {
            limit: self.limit,
            ..CacheTiming::new(self.hierarchy().clone())
        }
    }
}

/// Prints the pending record count, not the records.
impl fmt::Debug for CacheTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheTiming")
            .field("pending", &self.buf.len())
            .field("home", &self.home)
            .field("worker", &self.worker.is_some())
            .finish()
    }
}

/// Decoupled timing is exact. Runs spanning many chunks — with `clock()`
/// read mid-run, a trap mid-chunk and fuel slices that end mid-chunk,
/// under every hierarchy knob and both capability formats — must match
/// the inline model, in which the machine syncs after every access, run
/// in the same slices. Under the default knobs both must also match a
/// `Vm::step` loop, which syncs after every instruction and never fills a
/// chunk. The other knobs are compared against the inline model only:
/// fetch charging is per block, and under `mshrs`/store buffers a run
/// sliced mid-block already charged differently from single-stepping
/// before timing was deferred.
#[cfg(test)]
mod tests {
    use super::CHUNK;
    use crate::{sys, TrapCause, Vm, VmConfig, VmTrap};
    use cheri_cache::{CacheStats, HierarchyConfig, PrefetchPolicy};
    use cheri_cap::CapFormat;
    use cheri_isa::{Instr, Op, Program, A0, V0};

    /// Loop iterations. Each does four data accesses: about eight chunks.
    const ITERATIONS: i32 = 8_000;

    /// The iteration the trapping guest faults in: not a chunk boundary.
    const TRAP_AT: i32 = 5_555;

    /// Fuel per slice in the sliced runs: slices end mid-chunk.
    const SLICE: u64 = 7_919;

    /// A loop that strides one cache line per iteration over 256 KiB (four
    /// times the L2), with a legacy store and load and a capability store
    /// and load per line, printing `clock()` every 1,000 iterations. With
    /// `trap_at`, that iteration also loads through a null pointer.
    fn guest(trap_at: Option<i32>) -> Program {
        let (i, n, base, addr, countdown, tmp, fault) = (8, 9, 10, 11, 12, 13, 14);
        let mut code = vec![
            Instr::li(i, 0),
            Instr::li(n, ITERATIONS),
            Instr::li(base, 0x10_0000),
            Instr::li(countdown, 1_000),
            Instr::li(fault, trap_at.unwrap_or(-1)),
        ];
        let top = code.len() as i32;
        code.extend([
            Instr::i2(Op::Sll, addr, i, 6),
            Instr::i2(Op::Andi, addr, addr, 0x3_ffc0),
            Instr::r3(Op::Addu, addr, addr, base),
            Instr::mem(Op::Sd, i, addr, 0),
            Instr::mem(Op::Ld, tmp, addr, 8),
            Instr::cmod(Op::CIncOffset, 5, 0, addr),
            Instr::mem(Op::Csc, 11, 5, 32),
            Instr::mem(Op::Clc, 6, 5, 32),
        ]);
        // if i == fault: load through null
        let skip_fault = code.len() as i32 + 2;
        code.extend([
            Instr::new(Op::Bne, 0, i, fault, skip_fault),
            Instr::mem(Op::Ld, tmp, 0, 0),
        ]);
        // if --countdown == 0: print clock() and a space, reset
        let skip_print = code.len() as i32 + 8;
        code.extend([
            Instr::i2(Op::Addiu, countdown, countdown, -1),
            Instr::new(Op::Bne, 0, countdown, 0, skip_print),
            Instr::syscall(sys::CLOCK),
            Instr::r3(Op::Addu, A0, V0, 0),
            Instr::syscall(sys::PUTINT),
            Instr::li(A0, b' ' as i32),
            Instr::syscall(sys::PUTCHAR),
            Instr::li(countdown, 1_000),
        ]);
        code.extend([
            Instr::i2(Op::Addiu, i, i, 1),
            Instr::new(Op::Bne, 0, i, n, top),
            Instr::li(A0, 0),
            Instr::syscall(sys::EXIT),
        ]);
        let mut p = Program::new();
        p.code = code;
        p
    }

    /// Everything simulated the deferred model could get wrong.
    #[derive(Debug, PartialEq)]
    struct Fingerprint {
        outcome: Result<i64, VmTrap>,
        cycles: u64,
        instret: u64,
        fetch_cycles: u64,
        cache: Option<CacheStats>,
        output: String,
        regs: Vec<u64>,
        pc: u64,
    }

    fn fingerprint(vm: &Vm, outcome: Result<i64, VmTrap>) -> Fingerprint {
        let stats = vm.stats();
        Fingerprint {
            outcome,
            cycles: stats.cycles,
            instret: stats.instret,
            fetch_cycles: stats.fetch_cycles,
            cache: stats.cache,
            output: vm.output_string(),
            regs: (0..32).map(|r| vm.reg(r)).collect(),
            pc: vm.pc(),
        }
    }

    fn boot(p: &Program, cfg: VmConfig, eager: bool) -> Vm {
        let mut vm = Vm::new(p.clone(), cfg);
        if eager {
            vm.set_eager_timing();
        }
        vm
    }

    /// `run` in `fuel`-instruction slices until exit or a trap other than
    /// running out of fuel.
    fn run(p: &Program, cfg: VmConfig, fuel: u64, eager: bool) -> Fingerprint {
        let mut vm = boot(p, cfg, eager);
        let outcome = loop {
            match vm.run(fuel) {
                Err(VmTrap {
                    cause: TrapCause::OutOfFuel,
                    ..
                }) => continue,
                other => break other.map(|s| s.code),
            }
        };
        fingerprint(&vm, outcome)
    }

    /// One instruction at a time. The guest's last instruction is its only
    /// `exit`.
    fn stepped(p: &Program, cfg: VmConfig) -> Fingerprint {
        let exit_pc = p.code.len() as u64 - 1;
        let mut vm = boot(p, cfg, false);
        let outcome = loop {
            let at_exit = vm.pc() == exit_pc;
            if let Err(trap) = vm.step() {
                break Err(trap);
            }
            if at_exit {
                break Ok(vm.reg(A0) as i64);
            }
        };
        fingerprint(&vm, outcome)
    }

    fn configs() -> Vec<(&'static str, VmConfig)> {
        let fpga = HierarchyConfig::fpga_softcore();
        let knobs = [
            ("default", VmConfig::fpga()),
            (
                "mshrs4+sb2",
                VmConfig::fpga().with_cache(fpga.with_mshrs(4).with_store_buffer(2)),
            ),
            (
                "prefetch",
                VmConfig::fpga().with_cache(fpga.with_prefetch(PrefetchPolicy::Stride)),
            ),
            ("fetch", VmConfig::fpga().with_fetch_charging(true)),
        ];
        let mut out = Vec::new();
        for (name, cfg) in knobs {
            for format in [CapFormat::Cap256, CapFormat::Cap128] {
                out.push((name, cfg.with_cap_format(format)));
            }
        }
        out
    }

    /// The worker's channel ends must not cost the machine `Sync`: the
    /// sandbox shares snapshots across worker threads.
    #[test]
    fn machines_stay_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Vm>();
        check::<crate::VmSnapshot>();
    }

    #[test]
    fn deferred_timing_matches_the_inline_model() {
        for (trap_at, exits) in [(None, true), (Some(TRAP_AT), false)] {
            let p = guest(trap_at);
            for (name, cfg) in configs() {
                let what = format!("{name}/{:?}/trap at {trap_at:?}", cfg.cap_format);
                let oracle = run(&p, cfg, u64::MAX, true);
                match &oracle.outcome {
                    Ok(0) => assert!(exits, "{what}"),
                    Err(VmTrap {
                        cause: TrapCause::NullGuard { .. },
                        ..
                    }) => assert!(!exits, "{what}"),
                    other => panic!("{what}: {other:?}"),
                }
                let accesses = oracle.cache.map_or(0, |c| c.l1_hits + c.l1_misses);
                assert!(accesses > 4 * CHUNK as u64, "{what}: {accesses} accesses");
                assert!(oracle.output.matches(' ').count() >= 5, "{what}: clock()");
                assert_eq!(run(&p, cfg, u64::MAX, false), oracle, "{what}: run");
                let sliced = run(&p, cfg, SLICE, true);
                assert_eq!(run(&p, cfg, SLICE, false), sliced, "{what}: sliced");
                if name == "default" {
                    assert_eq!(sliced, oracle, "{what}: sliced");
                    assert_eq!(stepped(&p, cfg), oracle, "{what}: stepped");
                }
            }
        }
    }
}
