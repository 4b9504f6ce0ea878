//! Property tests for the validator's edge cases — and for the execution
//! boundaries that the interpreter must get right even when the validator
//! lets a construct through.
//!
//! Covered: jump targets that land past the end of a function (rejected)
//! vs exactly at the end (accepted, executes as an implicit return); jumps
//! that land in the *middle of a common instruction pair* (`load;load`,
//! `add;store`); operand indices that point past the constant pool /
//! locals / function table ("truncated operand" analogs — all rejected
//! before the interpreter sees them); the call-depth boundary; and empty
//! function bodies.

use proptest::prelude::*;

use lambda_vm::host::MemoryHost;
use lambda_vm::{
    validate_module, FunctionDef, Instr, Interpreter, Limits, Module, VmError, VmValue,
};

fn module_with(code: Vec<Instr>, arity: u8, locals: u16) -> Module {
    Module {
        constants: vec![b"c0".to_vec(), b"c1".to_vec()],
        functions: vec![FunctionDef {
            name: "f".into(),
            arity,
            locals,
            read_only: false,
            deterministic: false,
            public: true,
            code,
        }],
    }
}

/// Run `module::f(args)` on a fresh host.
fn run_f(module: &Module, args: Vec<VmValue>, limits: Limits) -> Result<VmValue, VmError> {
    Interpreter::new(limits).execute(module, "f", args, &mut MemoryHost::default())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A jump target strictly past `code.len()` points "into the middle of
    /// nothing" — the validator must reject it, for both jump flavours, at
    /// the offending pc.
    #[test]
    fn out_of_range_jump_targets_rejected(excess in 1u32..50, conditional in any::<bool>()) {
        let code = vec![
            Instr::PushBool(true),
            if conditional {
                Instr::JumpIfFalse(3 + excess)
            } else {
                Instr::Jump(3 + excess)
            },
            Instr::Ret,
        ];
        let m = module_with(code, 0, 0);
        let e = validate_module(&m).expect_err("target past end must be rejected");
        prop_assert_eq!(e.at, Some(1));
    }

    /// `Jump(code.len())` — exactly one past the last instruction — is the
    /// legal loop-exit encoding and must execute as an implicit unit
    /// return.
    #[test]
    fn jump_to_end_is_implicit_return(pad in 0usize..6) {
        let mut code = vec![Instr::Jump(0)]; // patched below
        for _ in 0..pad {
            code.push(Instr::PushInt(1));
            code.push(Instr::Pop);
        }
        let end = (code.len()) as u32;
        code[0] = Instr::Jump(end);
        let m = module_with(code, 0, 0);
        validate_module(&m).expect("jump-to-end is valid");
        let out = run_f(&m, vec![], Limits::default());
        prop_assert_eq!(out, Ok(VmValue::Unit));
    }

    /// Operand indices past their tables — constant pool, locals, function
    /// table — are the stack-VM analog of truncated operands. All must be
    /// rejected statically, never reaching the interpreter.
    #[test]
    fn truncated_operand_analogs_rejected(excess in 0u32..40) {
        let cases: Vec<Vec<Instr>> = vec![
            vec![Instr::PushConst(2 + excess), Instr::Ret],
            vec![Instr::Trap(2 + excess)],
            vec![Instr::PushInt(1), Instr::Store((4 + excess) as u16), Instr::Ret],
            vec![Instr::Load((4 + excess) as u16), Instr::Ret],
            vec![Instr::Call(1 + excess), Instr::Ret],
        ];
        for code in cases {
            let m = module_with(code, 0, 4);
            let e = validate_module(&m).expect_err("out-of-table operand must be rejected");
            prop_assert!(e.at.is_some(), "error must be anchored to a pc");
            prop_assert!(!e.message.is_empty());
        }
    }

    /// Call-depth boundary: `f(n)` recurses n times, needing n+1 frames.
    /// With `call_depth = d`, n = d-1 must succeed and n = d must fail
    /// with CallDepthExceeded.
    #[test]
    fn call_depth_boundary_is_exact(depth in 1usize..12) {
        let code = vec![
            Instr::Load(0),
            Instr::PushInt(0),
            Instr::Le,
            Instr::JumpIfFalse(6),
            Instr::PushInt(0),
            Instr::Ret,
            // 6: recurse on n-1
            Instr::Load(0),
            Instr::PushInt(1),
            Instr::Sub,
            Instr::Call(0),
            Instr::Ret,
        ];
        let m = module_with(code, 1, 1);
        validate_module(&m).expect("recursive module is valid");
        let limits = Limits { fuel: 100_000, memory_bytes: 1 << 20, call_depth: depth };
        let ok = run_f(&m, vec![VmValue::Int(depth as i64 - 1)], limits);
        prop_assert_eq!(ok, Ok(VmValue::Int(0)));
        let too_deep = run_f(&m, vec![VmValue::Int(depth as i64)], limits);
        prop_assert_eq!(too_deep, Err(VmError::CallDepthExceeded));
    }

    /// Empty function bodies validate and return Unit — including through
    /// a call, which exercises the implicit return in a callee frame.
    #[test]
    fn empty_bodies_return_unit(arity in 0u8..3, extra_locals in 0u16..4) {
        let locals = arity as u16 + extra_locals;
        let mut m = module_with(vec![], arity, locals);
        m.functions.push(FunctionDef {
            name: "caller".into(),
            arity: 0,
            locals: arity as u16,
            read_only: false,
            deterministic: false,
            public: true,
            code: (0..arity)
                .map(|i| Instr::PushInt(i as i64))
                .chain([Instr::Call(0), Instr::Ret])
                .collect(),
        });
        validate_module(&m).expect("empty bodies are valid");
        let args = (0..arity).map(|i| VmValue::Int(i as i64)).collect();
        prop_assert_eq!(run_f(&m, args, Limits::default()), Ok(VmValue::Unit));
        let through_call = Interpreter::new(Limits::default()).execute(
            &m,
            "caller",
            vec![],
            &mut MemoryHost::default(),
        );
        prop_assert_eq!(through_call, Ok(VmValue::Unit));
    }

    /// A branch landing on the *second* instruction of a `load;load` pair
    /// must run exactly that instruction onward, not the whole pair.
    #[test]
    fn jump_into_middle_of_load_load_pair(x in -50i64..50, y in -50i64..50, cond in any::<bool>()) {
        let code = vec![
            Instr::PushInt(x),
            Instr::Store(1),
            Instr::PushInt(y),
            Instr::Store(2),
            Instr::PushInt(100), // dummy: jumped path's stand-in for the first load
            Instr::Load(0),
            Instr::JumpIfFalse(9),
            Instr::Pop,          // fallthrough drops the dummy
            Instr::Load(1),      // pair first half
            Instr::Load(2),      // pair second half AND branch target
            Instr::Add,
            Instr::Ret,
        ];
        let m = module_with(code, 1, 3);
        validate_module(&m).expect("mid-pair branch target is valid bytecode");
        let out = run_f(&m, vec![VmValue::Bool(cond)], Limits::default());
        let expected = if cond { x + y } else { 100 + y };
        prop_assert_eq!(out, Ok(VmValue::Int(expected)));
    }

    /// Same shape for an `add;store` pair — the branch lands on the store.
    #[test]
    fn jump_into_middle_of_add_store_pair(a in -50i64..50, b in -50i64..50, cond in any::<bool>()) {
        let code = vec![
            Instr::PushInt(a),
            Instr::Load(0),
            Instr::JumpIfFalse(5),
            Instr::PushInt(b),
            Instr::Add,          // pair first half
            Instr::Store(1),     // pair second half AND branch target
            Instr::Load(1),
            Instr::Ret,
        ];
        let m = module_with(code, 1, 2);
        validate_module(&m).expect("mid-pair branch target is valid bytecode");
        let out = run_f(&m, vec![VmValue::Bool(cond)], Limits::default());
        let expected = if cond { a + b } else { a };
        prop_assert_eq!(out, Ok(VmValue::Int(expected)));
    }
}
