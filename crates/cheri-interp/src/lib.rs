//! The paper's "simple abstract machine interpreter" (§5): a direct AST
//! interpreter for mini-C whose **pointer semantics are pluggable**.
//!
//! "In addition to the x86 and MIPS baselines, the original CHERIv2
//! implementation, and our CHERIv3 variant, we implemented a translator for
//! C code into a simple abstract machine interpreter. This runs very slowly
//! but allows us to quickly modify the abstract machine and run the test
//! cases extracted from the idioms to see which fail." — §5
//!
//! The interpreter compiles the typed AST **once per target layout** into a
//! flat execution IR ([`lower`] → [`IrProgram`]) and dispatches over that in
//! its hot loop; all seven models share the lowering for their layout (see
//! [`LoweredUnit`] and [`run_main_all`], which also fans the independent
//! model runs out across threads). Every pointer decision still goes
//! through the active model's [`Rules`].
//!
//! Seven interpretations of the C abstract machine are provided, matching
//! Table 3. They differ only in the row [`ModelKind::rules`] gives each:
//! the interpreter executes that row, and the static lint (`cheri-lint`)
//! reads the same row over its abstract facts.
//!
//! | model | [`Repr`] | other rules | failure mode |
//! |---|---|---|---|
//! | [`ModelKind::Pdp11`] | `Addr`: plain 64-bit integer | — | none (memory unsafe) |
//! | [`ModelKind::HardBound`] | `Fat` + shadow table | — | fails **closed** |
//! | [`ModelKind::Mpx`] | `Fat` + look-aside table | `fail_open`, `narrows_fields` | fails **open** |
//! | [`ModelKind::Relaxed`] | `Addr` | `live_check` | object lookup |
//! | [`ModelKind::Strict`] | `Fat`, exact provenance | — | fails closed |
//! | [`ModelKind::CheriV2`] | `Cap` (no offset) | `const_enforced` | traps |
//! | [`ModelKind::CheriV3`] | `Cap` | `offset` | traps at deref |
//!
//! # Example
//!
//! ```
//! use cheri_interp::{run_main, ModelKind};
//!
//! let unit = cheri_c::parse(
//!     "int main(void) { int a[4]; int *p = a + 9; p = p - 7; return *p = 7; }"
//! ).unwrap();
//! // The out-of-bounds *intermediate* (idiom II) is fine on CHERIv3...
//! assert_eq!(run_main(&unit, ModelKind::CheriV3).unwrap().exit_code, 7);
//! // ...but unrepresentable on CHERIv2, whose pointer add consumes bounds.
//! assert!(run_main(&unit, ModelKind::CheriV2).is_err());
//! ```

mod cfg;
mod ir;
mod layout;
mod lower;
mod machine;
mod model;
mod models;
mod par;
mod value;

pub use cfg::{BasicBlock, Cfg};
pub use ir::{
    BinMeta, Builtin, ConstOrigin, IrFunc, IrGlobal, IrProgram, Op, OpInfo, SlotDef, TyId,
};
pub use layout::{align_of, field_offset, size_of, TargetInfo};
pub use lower::lower;
pub use machine::{run_main, run_main_all, ExecResult, Interp, LoweredUnit, RtError};
pub use model::{ModelError, ModelKind, Repr, Rules};
pub use par::{fan_out_ordered, fan_out_workers};
pub use value::{IntValue, Prov, PtrVal, Value};
