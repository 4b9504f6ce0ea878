//! # lambda-vm
//!
//! A sandboxed, metered bytecode function runtime — the reproduction's
//! substitute for WebAssembly.
//!
//! The LambdaObjects paper embeds untrusted application functions directly
//! into the storage process using WebAssembly, relying on three properties
//! (§4.2): software fault isolation, metering ("checks can be added to limit
//! the amount of computation a function invocation is allowed to perform"),
//! and near-native dispatch. This crate reproduces the first two with a
//! from-scratch stack-bytecode VM, and stands in for the third with one
//! plain [`interpreter`](interp) that decodes each instruction as it runs
//! it — the same VM on the aggregated and the disaggregated side, so the
//! comparison between them stays fair:
//!
//! * untrusted code can only touch its own operand stack/locals and talk to
//!   the outside world through a narrow, capability-style [`Host`]
//!   interface (the paper's "key-value API and some utility functions",
//!   §3);
//! * a [`validator`](validate) checks stack discipline, jump targets and —
//!   crucially for the consistency model — that functions declared
//!   *read-only* contain no mutating host calls, so they can safely run on
//!   backup replicas;
//! * execution is metered exactly, one instruction at a time, by **fuel**
//!   and a **memory ceiling** ([`Limits`]); exhaustion aborts the
//!   invocation with an error instead of wedging the storage node;
//! * an [`assembler`] compiles a small textual assembly language into
//!   modules, playing the role of the paper's "functions in a format
//!   specific to the implementation, e.g., as ELF binaries" (§3);
//! * trusted, pre-registered **native functions** are also supported
//!   ([`native`]), mirroring the paper's note that "a similar design could
//!   be achieved by placing containers or virtual machines executing
//!   conventional binaries on the same node" (§4.2).
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use lambda_vm::{assemble, Interpreter, Limits, NullHost, VmValue};
//!
//! let module = assemble(
//!     r#"
//!     fn add(2) {
//!         load 0
//!         load 1
//!         add
//!         ret
//!     }
//!     "#,
//! )?;
//! let mut host = NullHost::default();
//! let out = Interpreter::new(Limits::default()).execute(
//!     &module,
//!     "add",
//!     vec![VmValue::Int(2), VmValue::Int(40)],
//!     &mut host,
//! )?;
//! assert_eq!(out, VmValue::Int(42));
//! # Ok(())
//! # }
//! ```

pub mod assembler;
pub mod bytecode;
pub mod disasm;
pub mod host;
pub mod interp;
pub mod native;
pub mod validate;
pub mod value;

pub use assembler::{assemble, AssembleError};
pub use bytecode::{FunctionDef, Instr, Module};
pub use disasm::disassemble;
pub use host::{Host, HostError, NullHost};
pub use interp::{ExecutionReport, Interpreter, VmError, HOST_CALL_BASE_FUEL};
pub use native::{NativeCtx, NativeFn, NativeRegistry};
pub use validate::{validate_module, ValidateError};
pub use value::VmValue;

/// Resource ceilings for one function invocation.
///
/// Mirrors WebAssembly-style metering: `fuel` bounds executed instructions
/// (host calls cost more than plain ops), `memory_bytes` bounds the live
/// bytes held in operand stacks, locals and intermediate buffers, and
/// `call_depth` bounds recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum fuel units; every instruction consumes at least one.
    pub fuel: u64,
    /// Maximum live bytes across stacks and locals.
    pub memory_bytes: usize,
    /// Maximum nested VM call depth.
    pub call_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { fuel: 10_000_000, memory_bytes: 64 << 20, call_depth: 128 }
    }
}

impl Limits {
    /// Small limits for tests that must hit the ceilings quickly.
    pub fn tiny() -> Self {
        Limits { fuel: 2_000, memory_bytes: 64 << 10, call_depth: 8 }
    }
}
