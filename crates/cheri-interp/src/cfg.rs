//! Control-flow-graph recovery over the flat execution IR.
//!
//! The lowering emits structured control flow as branches over a linear op
//! vector; this module recovers basic blocks and edges from the branch
//! targets so dataflow analyses (`cheri-lint`) can run a worklist over the
//! function. Blocks are per-function: every function occupies a contiguous
//! pc range (see [`IrProgram::func_range`]), branch targets never leave it,
//! and `Call` is *not* a block terminator — calls return inline, and the
//! analysis treats them as opaque value producers.

use crate::ir::{IrProgram, Op};

/// A basic block: a maximal straight-line run of ops.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// First pc of the block (inclusive).
    pub start: usize,
    /// One past the last pc of the block (exclusive).
    pub end: usize,
    /// Successor blocks, as indices into [`Cfg::blocks`]. Conditional
    /// branches list the *taken* edge first, then fall-through.
    pub succs: Vec<usize>,
    /// `true` when some predecessor edge is a back edge (the block is a
    /// loop head — dataflow should widen here).
    pub is_loop_head: bool,
}

/// The control-flow graph of one lowered function.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// The function's entry pc.
    pub entry: usize,
    /// Blocks in ascending pc order; block 0 contains the entry.
    pub blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// Recovers the CFG of function `fid` from branch targets.
    pub fn build(prog: &IrProgram, fid: u32) -> Cfg {
        let (lo, hi) = prog.func_range(fid);
        // Leaders: the entry, every branch target, and every op after a
        // terminator (branch or return).
        let mut starts: Vec<usize> = vec![lo];
        for pc in lo..hi {
            match &prog.code[pc] {
                Op::Jump { target } | Op::JumpIfZero { target } | Op::JumpIfNonZero { target } => {
                    starts.push(*target as usize);
                    if pc + 1 < hi {
                        starts.push(pc + 1);
                    }
                }
                Op::Ret { .. } if pc + 1 < hi => {
                    starts.push(pc + 1);
                }
                _ => {}
            }
        }
        starts.sort_unstable();
        starts.dedup();
        starts.retain(|&pc| pc < hi);
        let block_of = |pc: usize| -> usize {
            match starts.binary_search(&pc) {
                Ok(i) => i,
                Err(i) => i - 1,
            }
        };
        let mut blocks: Vec<BasicBlock> = starts
            .iter()
            .enumerate()
            .map(|(i, &start)| BasicBlock {
                start,
                end: starts.get(i + 1).copied().unwrap_or(hi),
                succs: Vec::new(),
                is_loop_head: false,
            })
            .collect();
        for (i, b) in blocks.iter_mut().enumerate() {
            let last = b.end - 1;
            b.succs = match &prog.code[last] {
                Op::Jump { target } => vec![block_of(*target as usize)],
                Op::JumpIfZero { target } | Op::JumpIfNonZero { target } => {
                    let mut v = vec![block_of(*target as usize)];
                    if b.end < hi {
                        v.push(i + 1);
                    }
                    v
                }
                Op::Ret { .. } => Vec::new(),
                _ if b.end < hi => vec![i + 1],
                _ => Vec::new(),
            };
        }
        for i in 0..blocks.len() {
            for k in 0..blocks[i].succs.len() {
                let s = blocks[i].succs[k];
                // The lowering only emits backward branches for loops, so a
                // target at or before the source marks a loop head.
                if blocks[s].start <= blocks[i].start {
                    blocks[s].is_loop_head = true;
                }
            }
        }
        Cfg { entry: lo, blocks }
    }

    /// The block containing `pc`, if any: a binary search over the
    /// ascending, contiguous blocks.
    pub fn block_at(&self, pc: usize) -> Option<usize> {
        let i = self.blocks.partition_point(|b| b.start <= pc);
        i.checked_sub(1).filter(|&i| pc < self.blocks[i].end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TargetInfo;
    use crate::lower;

    /// Predecessor lists, derived from the successor edges.
    fn preds(cfg: &Cfg) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); cfg.blocks.len()];
        for (i, b) in cfg.blocks.iter().enumerate() {
            for &s in &b.succs {
                preds[s].push(i);
            }
        }
        preds
    }

    fn cfg_of(src: &str, name: &str) -> (IrProgram, Cfg) {
        let unit = cheri_c::parse(src).expect("parses");
        let prog = lower(&unit, TargetInfo::lp64());
        let fid = prog.func_by_name(name).expect("function exists");
        let cfg = Cfg::build(&prog, fid);
        (prog, cfg)
    }

    #[test]
    fn straight_line_has_no_branches() {
        // One reachable block ending in Ret, plus the unreachable
        // scope-exit tail the lowering emits after `return`.
        let (_, cfg) = cfg_of("int main(void) { int x = 1; return x; }", "main");
        assert!(cfg.blocks[0].succs.is_empty());
        assert!(cfg.blocks.iter().all(|b| !b.is_loop_head));
        assert!(preds(&cfg).iter().skip(1).all(Vec::is_empty));
    }

    #[test]
    fn if_else_diamonds() {
        let (_, cfg) = cfg_of(
            "int main(void) { int x = 1; if (x) { x = 2; } else { x = 3; } return x; }",
            "main",
        );
        assert_eq!(cfg.blocks[0].succs.len(), 2, "conditional entry");
        assert!(cfg.blocks.iter().all(|b| !b.is_loop_head));
        // The join block has two predecessors.
        assert!(preds(&cfg).iter().any(|p| p.len() == 2));
    }

    #[test]
    fn loops_have_back_edges_and_heads() {
        let (_, cfg) = cfg_of(
            "int main(void) { int s = 0; for (int i = 0; i < 5; i++) { s = s + i; } return s; }",
            "main",
        );
        let preds = preds(&cfg);
        let heads: Vec<usize> = (0..cfg.blocks.len())
            .filter(|&i| cfg.blocks[i].is_loop_head)
            .collect();
        assert_eq!(heads.len(), 1, "exactly one loop head");
        assert!(preds[heads[0]].len() >= 2, "entry edge plus back edge");
    }

    #[test]
    fn blocks_tile_the_function() {
        let (prog, cfg) = cfg_of(
            "int f(int n) { int s = 0; while (n) { if (n < 3) { break; } n--; s++; } return s; }\
             int main(void) { return f(9); }",
            "f",
        );
        let fid = prog.func_by_name("f").unwrap();
        let (lo, hi) = prog.func_range(fid);
        let mut covered = lo;
        for b in &cfg.blocks {
            assert_eq!(b.start, covered, "blocks are contiguous");
            assert!(b.end > b.start);
            covered = b.end;
        }
        assert_eq!(covered, hi, "blocks cover the whole function");
        // Every successor index is valid.
        for b in &cfg.blocks {
            assert!(b.succs.iter().all(|&s| s < cfg.blocks.len()));
        }
        assert_eq!(cfg.block_at(lo), Some(0));
        assert_eq!(cfg.block_at(hi), None);
    }
}
