//! Disassembler: turn a [`Module`] back into assembler-compatible text.
//!
//! Used for debugging deployed types, for auditing what bytecode a node is
//! about to execute, and as a round-trip test oracle for the assembler —
//! `assemble(disassemble(m))` must behave identically to `m`. The
//! interpreter fuzz suite (`tests/diff_interp.rs`) leans on both uses:
//! round-tripped fuzz modules must stay fixed points *and* run
//! identically to the originals, and every failure report embeds the
//! disassembly of the offending module.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::bytecode::{FunctionDef, HostFn, Instr, Module};

/// Render `module` as assembly text accepted by
/// [`assemble`](crate::assembler::assemble).
pub fn disassemble(module: &Module) -> String {
    let mut out = String::new();
    for (i, f) in module.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        disassemble_function(module, f, &mut out);
    }
    out
}

fn escape_bytes(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() + 2);
    s.push('"');
    for &b in bytes {
        match b {
            b'\n' => s.push_str("\\n"),
            b'\t' => s.push_str("\\t"),
            b'\\' => s.push_str("\\\\"),
            b'"' => s.push_str("\\\""),
            0x20..=0x7e => s.push(b as char),
            other => {
                let _ = write!(s, "\\x{other:02x}");
            }
        }
    }
    s.push('"');
    s
}

fn host_mnemonic(hf: HostFn) -> &'static str {
    match hf {
        HostFn::Get => "host.get",
        HostFn::Put => "host.put",
        HostFn::Delete => "host.delete",
        HostFn::Push => "host.push",
        HostFn::Scan => "host.scan",
        HostFn::Count => "host.count",
        HostFn::Invoke => "host.invoke",
        HostFn::InvokeMany => "host.invoke_many",
        HostFn::SelfId => "host.self",
        HostFn::Time => "host.time",
        HostFn::Log => "host.log",
        HostFn::Abort => "host.abort",
    }
}

fn disassemble_function(module: &Module, f: &FunctionDef, out: &mut String) {
    // Header.
    let mut flags = String::new();
    if f.locals > f.arity as u16 {
        let _ = write!(flags, " locals={}", f.locals);
    }
    if f.read_only {
        flags.push_str(" ro");
    }
    if f.deterministic {
        flags.push_str(" det");
    }
    if !f.public {
        flags.push_str(" priv");
    }
    let _ = writeln!(out, "fn {}({}){flags} {{", f.name, f.arity);

    // Jump targets become labels.
    let targets: BTreeSet<u32> = f
        .code
        .iter()
        .filter_map(|i| match i {
            Instr::Jump(t) | Instr::JumpIfFalse(t) => Some(*t),
            _ => None,
        })
        .collect();
    let label = |t: u32| format!("L{t}");

    let constant = |idx: u32| -> String {
        module
            .constants
            .get(idx as usize)
            .map(|c| escape_bytes(c))
            .unwrap_or_else(|| format!("\"<bad const {idx}>\""))
    };

    for (pc, instr) in f.code.iter().enumerate() {
        if targets.contains(&(pc as u32)) {
            let _ = writeln!(out, "{}:", label(pc as u32));
        }
        let line = match instr {
            Instr::PushInt(v) => format!("push.i {v}"),
            Instr::PushBool(true) => "true".into(),
            Instr::PushBool(false) => "false".into(),
            Instr::PushUnit => "unit".into(),
            Instr::PushConst(i) => format!("push.s {}", constant(*i)),
            Instr::Dup => "dup".into(),
            Instr::Pop => "pop".into(),
            Instr::Swap => "swap".into(),
            Instr::Load(i) => format!("load {i}"),
            Instr::Store(i) => format!("store {i}"),
            Instr::Add => "add".into(),
            Instr::Sub => "sub".into(),
            Instr::Mul => "mul".into(),
            Instr::Div => "div".into(),
            Instr::Mod => "mod".into(),
            Instr::Eq => "eq".into(),
            Instr::Lt => "lt".into(),
            Instr::Le => "le".into(),
            Instr::Not => "not".into(),
            Instr::Concat => "concat".into(),
            Instr::Len => "len".into(),
            Instr::IntToBytes => "itob".into(),
            Instr::BytesToInt => "btoi".into(),
            Instr::MakeList(n) => format!("mklist {n}"),
            Instr::Index => "index".into(),
            Instr::Append => "append".into(),
            Instr::Jump(t) => format!("jmp {}", label(*t)),
            Instr::JumpIfFalse(t) => format!("jz {}", label(*t)),
            Instr::Call(i) => {
                let name = module
                    .functions
                    .get(*i as usize)
                    .map(|f| f.name.as_str())
                    .unwrap_or("<bad fn>");
                format!("call {name}")
            }
            Instr::Ret => "ret".into(),
            Instr::Host(hf) => host_mnemonic(*hf).into(),
            Instr::Trap(i) => format!("trap {}", constant(*i)),
        };
        let _ = writeln!(out, "    {line}");
    }
    // A label may point one past the last instruction (loop exits).
    if targets.contains(&(f.code.len() as u32)) {
        let _ = writeln!(out, "{}:", label(f.code.len() as u32));
    }
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::assemble;
    use crate::host::MemoryHost;
    use crate::interp::Interpreter;
    use crate::value::VmValue;
    use crate::Limits;

    fn sample_source() -> &'static str {
        r#"
        fn abs(1) ro det {
            load 0
            push.i 0
            lt
            jz positive
            push.i 0
            load 0
            sub
            ret
        positive:
            load 0
            ret
        }
        fn weird(0) locals=2 priv {
            push.s "bytes\n\"quoted\"\x00\xff"
            store 1
            load 1
            len
            ret
        }
        fn main(1) {
            load 0
            call abs
            ret
        }
        "#
    }

    #[test]
    fn round_trip_is_a_fixed_point() {
        let m1 = assemble(sample_source()).unwrap();
        let text1 = disassemble(&m1);
        let m2 = assemble(&text1).unwrap();
        let text2 = disassemble(&m2);
        assert_eq!(text1, text2, "disassemble∘assemble must be a fixed point");
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let m1 = assemble(sample_source()).unwrap();
        let m2 = assemble(&disassemble(&m1)).unwrap();
        let interp = Interpreter::new(Limits::default());
        for n in [-5i64, 0, 17] {
            let mut h1 = MemoryHost::default();
            let mut h2 = MemoryHost::default();
            let a = interp.execute(&m1, "main", vec![VmValue::Int(n)], &mut h1).unwrap();
            let b = interp.execute(&m2, "main", vec![VmValue::Int(n)], &mut h2).unwrap();
            assert_eq!(a, b, "behaviour diverged for input {n}");
        }
    }

    #[test]
    fn round_trip_preserves_flags_and_binary_constants() {
        let m1 = assemble(sample_source()).unwrap();
        let m2 = assemble(&disassemble(&m1)).unwrap();
        let (_, w1) = m1.function("weird").unwrap();
        let (_, w2) = m2.function("weird").unwrap();
        assert_eq!(w1.public, w2.public);
        assert_eq!(w1.locals, w2.locals);
        let (_, a1) = m1.function("abs").unwrap();
        let (_, a2) = m2.function("abs").unwrap();
        assert!(a2.read_only && a2.deterministic);
        assert_eq!(a1.code, a2.code);
        // The binary constant survived the escape round-trip.
        let mut h = MemoryHost::default();
        let len =
            Interpreter::new(Limits::default()).execute(&m2, "weird", vec![], &mut h).unwrap();
        assert_eq!(len, VmValue::Int("bytes\n\"quoted\"".len() as i64 + 2));
    }

    #[test]
    fn escape_bytes_covers_edge_cases() {
        assert_eq!(escape_bytes(b"plain"), "\"plain\"");
        assert_eq!(escape_bytes(b"a\"b"), "\"a\\\"b\"");
        assert_eq!(escape_bytes(&[0x00, 0xff]), "\"\\x00\\xff\"");
        assert_eq!(escape_bytes(b"tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn double_round_trip_is_stable() {
        let m = assemble(sample_source()).unwrap();
        let t1 = disassemble(&m);
        let t2 = disassemble(&assemble(&t1).unwrap());
        assert_eq!(t1, t2);
    }
}
