//! Seeded fuzzing of the interpreter.
//!
//! Every generated-and-validated module is executed under a sweep of fuel /
//! memory / call-depth limits. For each program the suite checks that:
//!
//! * nothing panics;
//! * two runs under the same limits are identical: the `Result` (value or
//!   error), the [`ExecutionReport`], the full ordered host-call trace and
//!   the final host state;
//! * limits only ever stop a run: under tighter limits a run either ends
//!   exactly as it does under generous ones, or fails with a limit error
//!   after a prefix of the same host calls;
//! * metering is exact: a run that succeeds using fuel `f` succeeds again
//!   with the identical report at a limit of `f` and fails with
//!   `FuelExhausted` at `f - 1`; likewise `peak_memory` and `MemoryLimit`;
//! * fuzzed modules round-trip through the disassembler as fixed points;
//! * suspending changes nothing observable: a program that reaches
//!   `host.invoke` / `host.invoke_many` gives the same result, report and
//!   host-call trace through `start` / `resume`, fed the same answers, as
//!   through `execute`, and the exact fuel and memory boundaries hold for
//!   budgets that run out after a resume.
//!
//! Any failure names the offending disassembly.
//!
//! Deterministic by construction (seeded [`SmallRng`]); override with
//! `DIFF_FUZZ_SEED` / `DIFF_FUZZ_PROGRAMS` to widen a local run.

use lambda_vm::bytecode::{FunctionDef, HostFn, Instr};
use lambda_vm::host::MemoryHost;
use lambda_vm::{
    assemble, disassemble, validate_module, ExecutionReport, Host, HostError, Interpreter, Limits,
    Module, Step, VmError, VmValue,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Tracing host: records every capability call so two runs' host-call
// *sequences* (not just end states) can be compared.
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct TraceHost {
    inner: MemoryHost,
    trace: Vec<String>,
}

impl Host for TraceHost {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, HostError> {
        self.trace.push(format!("get {key:?}"));
        self.inner.get(key)
    }
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), HostError> {
        self.trace.push(format!("put {key:?} {value:?}"));
        self.inner.put(key, value)
    }
    fn delete(&mut self, key: &[u8]) -> Result<(), HostError> {
        self.trace.push(format!("delete {key:?}"));
        self.inner.delete(key)
    }
    fn push(&mut self, field: &[u8], value: &[u8]) -> Result<(), HostError> {
        self.trace.push(format!("push {field:?} {value:?}"));
        self.inner.push(field, value)
    }
    fn scan(
        &mut self,
        field: &[u8],
        limit: usize,
        newest_first: bool,
    ) -> Result<Vec<Vec<u8>>, HostError> {
        self.trace.push(format!("scan {field:?} {limit} {newest_first}"));
        self.inner.scan(field, limit, newest_first)
    }
    fn count(&mut self, field: &[u8]) -> Result<u64, HostError> {
        self.trace.push(format!("count {field:?}"));
        self.inner.count(field)
    }
    fn invoke(
        &mut self,
        object: &[u8],
        method: &str,
        args: Vec<VmValue>,
    ) -> Result<VmValue, HostError> {
        self.trace.push(format!("invoke {object:?} {method} {args:?}"));
        // Answered with the target's id, so that answers carry bytes.
        self.inner.invoke(object, method, args).map(|_| VmValue::Bytes(object.to_vec()))
    }
    fn self_id(&self) -> Vec<u8> {
        self.inner.self_id()
    }
    fn now_millis(&mut self) -> i64 {
        self.trace.push("time".to_string());
        self.inner.now_millis()
    }
    fn log(&mut self, msg: &str) {
        self.trace.push(format!("log {msg}"));
        self.inner.log(msg);
    }
}

fn seeded_host() -> TraceHost {
    let mut inner = MemoryHost { time: 1_234, ..MemoryHost::default() };
    inner.fields.insert(b"name".to_vec(), b"ada".to_vec());
    inner.fields.insert(b"k1".to_vec(), b"\x07\x00\x00\x00\x00\x00\x00\x00".to_vec());
    for i in 0..5u8 {
        inner
            .collections
            .entry(b"timeline".to_vec())
            .or_default()
            .push(format!("post-{i}").into_bytes());
    }
    TraceHost { inner, trace: Vec::new() }
}

// ---------------------------------------------------------------------------
// Runs and checks
// ---------------------------------------------------------------------------

fn fuzz_seed() -> u64 {
    std::env::var("DIFF_FUZZ_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(0x0001_a4bd_a0b1_ec75)
}

fn fuzz_programs() -> usize {
    std::env::var("DIFF_FUZZ_PROGRAMS").ok().and_then(|s| s.parse().ok()).unwrap_or(120)
}

fn big_limits() -> Limits {
    Limits { fuel: 1_000_000, memory_bytes: 1 << 20, call_depth: 16 }
}

/// Everything observable about one execution.
type Observed = (Result<(VmValue, ExecutionReport), VmError>, Vec<String>, MemoryHost);

fn observe(module: &Module, entry: &str, args: &[VmValue], limits: Limits) -> Observed {
    let mut host = seeded_host();
    let r = Interpreter::new(limits).execute_with_report(module, entry, args.to_vec(), &mut host);
    (r, host.trace, host.inner)
}

/// [`observe`] through `start` / `resume`, each nested call answered as
/// `execute` answers it; also how many times the body stopped.
fn observe_stepped(
    module: &Module,
    entry: &str,
    args: &[VmValue],
    limits: Limits,
) -> (Observed, usize) {
    let mut host = seeded_host();
    let module = Arc::new(module.clone());
    let mut step = Interpreter::new(limits).start(module, entry, args.to_vec(), &mut host);
    let mut stops = 0;
    let r = loop {
        match step {
            Err(e) => break Err(e),
            Ok(Step::Done(value, report)) => break Ok((value, report)),
            Ok(Step::Suspended(body)) => {
                stops += 1;
                let answer = body.call().clone().answer_from(&mut host);
                step = body.resume(answer, &mut host);
            }
        }
    };
    ((r, host.trace, host.inner), stops)
}

/// A program that reaches a nested call runs the same through `start` /
/// `resume` as through `execute` (`full`), and its exact fuel and memory
/// boundaries hold there too. Returns whether the program stopped at one.
fn check_suspension(module: &Module, entry: &str, args: &[VmValue], full: &Observed) -> bool {
    let big = big_limits();
    let (stepped, stops) = observe_stepped(module, entry, args, big);
    if stops == 0 {
        return false;
    }
    let ctx = |limits| context(module, args, limits, "suspension");
    assert_eq!(stepped, *full, "start/resume diverged from execute {}", ctx(big));
    let Ok((_, report)) = &full.0 else { return true };
    let (f, p) = (report.fuel_used, report.peak_memory);
    let at_fuel = Limits { fuel: f, ..big };
    assert_eq!(
        observe_stepped(module, entry, args, at_fuel).0,
        *full,
        "fuel = used {}",
        ctx(at_fuel)
    );
    let short = Limits { fuel: f - 1, ..big };
    let (starved, _) = observe_stepped(module, entry, args, short);
    assert_eq!(starved.0, Err(VmError::FuelExhausted), "fuel = used - 1 {}", ctx(short));
    if p > 0 {
        let at_mem = Limits { memory_bytes: p, ..big };
        let (seen, _) = observe_stepped(module, entry, args, at_mem);
        assert_eq!(seen, *full, "memory = peak {}", ctx(at_mem));
        let short = Limits { memory_bytes: p - 1, ..big };
        let (starved, _) = observe_stepped(module, entry, args, short);
        assert_eq!(starved.0, Err(VmError::MemoryLimit), "memory = peak - 1 {}", ctx(short));
    }
    true
}

fn context(module: &Module, args: &[VmValue], limits: Limits, label: &str) -> String {
    format!("[{label}] limits={limits:?}\nargs={args:?}\n{}", disassemble(module))
}

/// Execute `module` twice under `limits` on fresh hosts and assert that
/// the two runs are identical in every observable respect.
fn run_twice(
    module: &Module,
    entry: &str,
    args: &[VmValue],
    limits: Limits,
    label: &str,
) -> Observed {
    let first = observe(module, entry, args, limits);
    let second = observe(module, entry, args, limits);
    assert_eq!(first, second, "two runs diverged {}", context(module, args, limits, label));
    first
}

/// A run under limits no looser than `big_limits()` either ends exactly as
/// the unlimited run `full` did, or stops with a limit error (or `full`'s
/// own error) after a prefix of `full`'s host calls.
fn assert_only_stopped(seen: &Observed, full: &Observed, ctx: impl Fn() -> String) {
    match &seen.0 {
        Ok(_) => assert_eq!(seen, full, "a limited run finished differently {}", ctx()),
        Err(e) => {
            let limit_error = matches!(
                e,
                VmError::FuelExhausted | VmError::MemoryLimit | VmError::CallDepthExceeded
            );
            assert!(
                limit_error || full.0.as_ref().err() == Some(e),
                "a limited run failed with {e:?}, the full run with {:?} {}",
                full.0,
                ctx()
            );
            assert!(
                full.1.starts_with(&seen.1),
                "a limited run's host calls are not a prefix of the full run's {}",
                ctx()
            );
        }
    }
}

/// Full sweep for one program: generous limits first, then the exact fuel
/// and memory boundaries of a successful run, then fuel, memory and
/// call-depth ceilings, each run twice; and the suspension check. Returns
/// whether the program stopped at a nested call.
fn check_program(module: &Module, entry: &str, args: &[VmValue]) -> bool {
    let big = big_limits();
    let full = run_twice(module, entry, args, big, "big");
    let suspended = check_suspension(module, entry, args, &full);

    let mut fuels = vec![3, 17];
    let mut mems = vec![64, 300];
    if let Ok((_, report)) = &full.0 {
        let (f, p) = (report.fuel_used, report.peak_memory);
        let at_fuel = Limits { fuel: f, ..big };
        let ctx = || context(module, args, at_fuel, "fuel-boundary");
        assert_eq!(observe(module, entry, args, at_fuel), full, "fuel = used {}", ctx());
        let short = observe(module, entry, args, Limits { fuel: f - 1, ..big });
        assert_eq!(short.0, Err(VmError::FuelExhausted), "fuel = used - 1 {}", ctx());
        if p > 0 {
            let at_mem = Limits { memory_bytes: p, ..big };
            let ctx = || context(module, args, at_mem, "memory-boundary");
            assert_eq!(observe(module, entry, args, at_mem), full, "memory = peak {}", ctx());
            let short = observe(module, entry, args, Limits { memory_bytes: p - 1, ..big });
            assert_eq!(short.0, Err(VmError::MemoryLimit), "memory = peak - 1 {}", ctx());
        }
        fuels.extend([f, f - 1, f / 2]);
        mems.extend([p, p.saturating_sub(1), p / 2]);
    }
    fuels.sort_unstable();
    fuels.dedup();
    mems.sort_unstable();
    mems.dedup();
    let sweeps = fuels
        .into_iter()
        .filter(|&fuel| fuel > 0)
        .map(|fuel| (Limits { fuel, ..big }, "fuel-sweep"))
        .chain(
            mems.into_iter().map(|memory_bytes| (Limits { memory_bytes, ..big }, "memory-sweep")),
        )
        .chain([1, 2, 5].map(|call_depth| (Limits { call_depth, ..big }, "depth-sweep")));
    for (limits, label) in sweeps {
        let seen = run_twice(module, entry, args, limits, label);
        assert_only_stopped(&seen, &full, || context(module, args, limits, label));
    }
    suspended
}

// ---------------------------------------------------------------------------
// Program generators
// ---------------------------------------------------------------------------

const ALL_HOST_FNS: [HostFn; 12] = [
    HostFn::Get,
    HostFn::Put,
    HostFn::Delete,
    HostFn::Push,
    HostFn::Scan,
    HostFn::Count,
    HostFn::Invoke,
    HostFn::InvokeMany,
    HostFn::SelfId,
    HostFn::Time,
    HostFn::Log,
    HostFn::Abort,
];

fn constant_pool() -> Vec<Vec<u8>> {
    vec![b"name".to_vec(), b"timeline".to_vec(), b"k1".to_vec(), b"\x01\x02".to_vec()]
}

/// Uniform-ish instruction soup. Weights favour the opcodes ReTwis bodies
/// run most (loads, stores, compare+branch, host calls).
fn random_instr(rng: &mut SmallRng, code_len: usize) -> Instr {
    match rng.gen_range(0..24u32) {
        0 => Instr::PushInt(rng.gen_range(-4..100i64)),
        1 => Instr::PushBool(rng.gen_range(0..2) == 1),
        2 => Instr::PushUnit,
        3 => Instr::PushConst(rng.gen_range(0..4u32)),
        4 | 5 => Instr::Load(rng.gen_range(0..6u16)),
        6 | 7 => Instr::Store(rng.gen_range(0..6u16)),
        8 => [Instr::Add, Instr::Sub, Instr::Mul][rng.gen_range(0..3usize)].clone(),
        9 => [Instr::Div, Instr::Mod][rng.gen_range(0..2usize)].clone(),
        10 => [Instr::Eq, Instr::Lt, Instr::Le][rng.gen_range(0..3usize)].clone(),
        11 => [Instr::Not, Instr::Dup, Instr::Pop, Instr::Swap][rng.gen_range(0..4usize)].clone(),
        12 => [Instr::Concat, Instr::Len][rng.gen_range(0..2usize)].clone(),
        13 => [Instr::IntToBytes, Instr::BytesToInt][rng.gen_range(0..2usize)].clone(),
        14 => Instr::MakeList(rng.gen_range(0..4u16)),
        15 => [Instr::Index, Instr::Append][rng.gen_range(0..2usize)].clone(),
        16 => Instr::Jump(rng.gen_range(0..code_len as u32 + 1)),
        17 | 18 => Instr::JumpIfFalse(rng.gen_range(0..code_len as u32 + 1)),
        19 => Instr::Call(rng.gen_range(0..2u32)),
        20 => Instr::Ret,
        21 | 22 => Instr::Host(ALL_HOST_FNS[rng.gen_range(0..ALL_HOST_FNS.len())]),
        _ => Instr::Trap(rng.gen_range(0..4u32)),
    }
}

fn random_module(rng: &mut SmallRng) -> Module {
    let len0 = rng.gen_range(1..14usize);
    let len1 = rng.gen_range(1..8usize);
    let code0 = (0..len0).map(|_| random_instr(rng, len0)).collect();
    let code1 = (0..len1).map(|_| random_instr(rng, len1)).collect();
    Module {
        constants: constant_pool(),
        functions: vec![
            FunctionDef {
                name: "f0".into(),
                arity: 1,
                locals: 6,
                read_only: false,
                deterministic: false,
                public: true,
                code: code0,
            },
            FunctionDef {
                name: "f1".into(),
                arity: 0,
                locals: 3,
                read_only: false,
                deterministic: false,
                public: false,
                code: code1,
            },
        ],
    }
}

fn random_args(rng: &mut SmallRng) -> Vec<VmValue> {
    let v = match rng.gen_range(0..5u32) {
        0 => VmValue::Int(rng.gen_range(-3..40i64)),
        1 => VmValue::Bytes(vec![rng.gen_range(0..255u8); 3]),
        2 => VmValue::Bool(rng.gen_range(0..2) == 1),
        3 => VmValue::List(vec![VmValue::Int(1), VmValue::Bytes(b"x".to_vec())]),
        _ => VmValue::Unit,
    };
    vec![v]
}

/// A counted loop: `load;load;add;store` accumulate, `push.i;store`
/// initialisation and an `lt;jz` head with a back-edge.
fn tmpl_sum_loop(rng: &mut SmallRng) -> (Module, Vec<VmValue>) {
    let n = rng.gen_range(1..30i64);
    let code = vec![
        Instr::PushInt(0),
        Instr::Store(1),
        Instr::PushInt(0),
        Instr::Store(2),
        // 4: loop head
        Instr::Load(2),
        Instr::PushInt(n),
        Instr::Lt,
        Instr::JumpIfFalse(17),
        Instr::Load(1),
        Instr::Load(2),
        Instr::Add,
        Instr::Store(1),
        Instr::Load(2),
        Instr::PushInt(1),
        Instr::Add,
        Instr::Store(2),
        Instr::Jump(4),
        // 17: exit
        Instr::Load(1),
        Instr::Ret,
    ];
    (single_fn_module(code), vec![VmValue::Unit])
}

/// Bytes-concatenation loop: grows memory, exercising the memory ceiling
/// and the per-byte fuel charge of `concat`.
fn tmpl_concat_loop(rng: &mut SmallRng) -> (Module, Vec<VmValue>) {
    let n = rng.gen_range(1..12i64);
    let code = vec![
        Instr::PushConst(0),
        Instr::Store(1),
        Instr::PushInt(0),
        Instr::Store(2),
        // 4: loop head
        Instr::Load(2),
        Instr::PushInt(n),
        Instr::Lt,
        Instr::JumpIfFalse(17),
        Instr::Load(1),
        Instr::PushConst(1),
        Instr::Concat,
        Instr::Store(1),
        Instr::Load(2),
        Instr::PushInt(1),
        Instr::Add,
        Instr::Store(2),
        Instr::Jump(4),
        // 17: exit
        Instr::Load(1),
        Instr::Len,
        Instr::Ret,
    ];
    (single_fn_module(code), vec![VmValue::Unit])
}

/// Host-call-dense body: get/scan/count/self/time plus a mutation, so the
/// exactly-once base-fuel charge and trace ordering are stressed.
fn tmpl_host_heavy(rng: &mut SmallRng) -> (Module, Vec<VmValue>) {
    let limit = rng.gen_range(1..6i64);
    let code = vec![
        Instr::PushConst(0),
        Instr::Host(HostFn::Get),
        Instr::Pop,
        Instr::PushConst(1),
        Instr::PushInt(limit),
        Instr::PushInt(1),
        Instr::Host(HostFn::Scan),
        Instr::Pop,
        Instr::PushConst(1),
        Instr::Host(HostFn::Count),
        Instr::Pop,
        Instr::Host(HostFn::SelfId),
        Instr::Pop,
        Instr::Host(HostFn::Time),
        Instr::Pop,
        Instr::PushConst(1),
        Instr::Load(0),
        Instr::Host(HostFn::Push),
        Instr::Pop,
        Instr::PushConst(2),
        Instr::Host(HostFn::Get),
        Instr::Ret,
    ];
    (single_fn_module(code), vec![VmValue::Bytes(b"hello".to_vec())])
}

/// Naive recursive fib: stresses `call`/`ret` frame save-restore and the
/// call-depth sweep.
fn tmpl_fib(rng: &mut SmallRng) -> (Module, Vec<VmValue>) {
    let n = rng.gen_range(0..12i64);
    let code = vec![
        Instr::Load(0),
        Instr::PushInt(2),
        Instr::Lt,
        Instr::JumpIfFalse(6),
        Instr::Load(0),
        Instr::Ret,
        // 6: recursive case
        Instr::Load(0),
        Instr::PushInt(1),
        Instr::Sub,
        Instr::Call(0),
        Instr::Load(0),
        Instr::PushInt(2),
        Instr::Sub,
        Instr::Call(0),
        Instr::Add,
        Instr::Ret,
    ];
    (single_fn_module(code), vec![VmValue::Int(n)])
}

/// Nested calls from a callee's frame: `f1` calls `host.invoke`, keeps the
/// answer in a local, then scatters it with `host.invoke_many`; `f0` lists
/// what it kept in its own local and on its stack around the call. (The
/// instruction soup almost never builds a well-typed call, so this is
/// where the suspension check runs.)
fn tmpl_nested_calls(rng: &mut SmallRng) -> (Module, Vec<VmValue>) {
    let (kept, stacked) = (rng.gen_range(-5..50i64), rng.gen_range(-5..50i64));
    let f0 = vec![
        Instr::PushInt(kept),
        Instr::Store(1),
        Instr::PushInt(stacked),
        Instr::Call(1),
        Instr::Load(1),
        Instr::MakeList(3),
        Instr::Ret,
    ];
    let f1 = vec![
        Instr::PushConst(0),
        Instr::PushConst(2),
        Instr::PushInt(rng.gen_range(0..9i64)),
        Instr::MakeList(1),
        Instr::Host(HostFn::Invoke),
        Instr::Store(0),
        Instr::PushConst(1),
        Instr::PushConst(3),
        Instr::MakeList(2),
        Instr::PushConst(2),
        Instr::Load(0),
        Instr::MakeList(1),
        Instr::Host(HostFn::InvokeMany),
        Instr::Load(0),
        Instr::MakeList(2),
        Instr::Ret,
    ];
    let mut module = single_fn_module(f0);
    module.functions.push(FunctionDef {
        name: "f1".into(),
        arity: 0,
        locals: 1,
        read_only: false,
        deterministic: false,
        public: false,
        code: f1,
    });
    (module, vec![VmValue::Unit])
}

fn single_fn_module(code: Vec<Instr>) -> Module {
    Module {
        constants: constant_pool(),
        functions: vec![FunctionDef {
            name: "f0".into(),
            arity: 1,
            locals: 6,
            read_only: false,
            deterministic: false,
            public: true,
            code,
        }],
    }
}

// ---------------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------------

/// Instruction soup: rejection-sampled through the validator, then run
/// through the full limit sweep.
#[test]
fn random_programs_are_deterministic_and_exactly_metered() {
    let mut rng = SmallRng::seed_from_u64(fuzz_seed());
    let target = fuzz_programs();
    let mut valid = 0usize;
    for _ in 0..target * 40 {
        if valid >= target {
            break;
        }
        let m = random_module(&mut rng);
        if validate_module(&m).is_err() {
            continue;
        }
        valid += 1;
        let args = random_args(&mut rng);
        check_program(&m, "f0", &args);
    }
    assert!(valid >= target / 3, "validity rate collapsed: only {valid} valid programs");
}

/// Template programs with guaranteed-valid control flow: loops, recursion,
/// host-dense bodies — the shapes ReTwis workloads actually execute.
#[test]
fn template_programs_are_deterministic_and_exactly_metered() {
    let mut rng = SmallRng::seed_from_u64(fuzz_seed() ^ 0x7e3b);
    for round in 0..20 {
        let programs = [
            tmpl_sum_loop(&mut rng),
            tmpl_concat_loop(&mut rng),
            tmpl_host_heavy(&mut rng),
            tmpl_fib(&mut rng),
            tmpl_nested_calls(&mut rng),
        ];
        for (i, (m, args)) in programs.iter().enumerate() {
            validate_module(m).unwrap_or_else(|e| panic!("template {i} round {round}: {e}"));
            let suspended = check_program(m, "f0", args);
            assert_eq!(suspended, i == 4, "template {i} round {round}: stops at a nested call");
        }
    }
}

/// A hand-written ReTwis-flavoured module (post + timeline read) checked
/// across the sweep, including read-only backup-style execution.
#[test]
fn retwis_style_module_is_deterministic_and_exactly_metered() {
    let m = assemble(
        r#"
        fn post(1) locals=2 {
            push.s "timeline"
            load 0
            host.push
            pop
            push.s "timeline"
            host.count
            ret
        }
        fn read_timeline(1) ro {
            push.s "timeline"
            load 0
            push.i 1
            host.scan
            ret
        }
        fn main(1) locals=2 {
            load 0
            call post
            store 1
            push.i 3
            call read_timeline
            len
            load 1
            add
            ret
        }
        "#,
    )
    .expect("retwis-style module assembles");
    validate_module(&m).expect("retwis-style module validates");
    for payload in [&b"hello"[..], b"", b"a longer post body with some bytes"] {
        let args = vec![VmValue::Bytes(payload.to_vec())];
        check_program(&m, "main", &args);
        check_program(&m, "read_timeline", &[VmValue::Int(2)]);
    }
}

/// Fuzzed round-trip property: `disassemble` output reassembles to a
/// module that disassembles to the same text, behaves like the original,
/// and holds the full limit sweep itself.
#[test]
fn fuzzed_modules_round_trip_through_disasm() {
    let mut rng = SmallRng::seed_from_u64(fuzz_seed() ^ 0x5eed);
    let mut checked = 0usize;
    for _ in 0..4_000 {
        if checked >= 60 {
            break;
        }
        let m = random_module(&mut rng);
        if validate_module(&m).is_err() {
            continue;
        }
        checked += 1;
        let text1 = disassemble(&m);
        let m2 = assemble(&text1)
            .unwrap_or_else(|e| panic!("disassembly must reassemble: {e}\n{text1}"));
        let text2 = disassemble(&m2);
        assert_eq!(text1, text2, "disassemble∘assemble must be a fixed point");
        // The reassembled module must behave exactly like the original
        // (constant-pool indices may be renumbered).
        let args = random_args(&mut rng);
        let (r1, t1, h1) = observe(&m, "f0", &args, big_limits());
        let (r2, t2, h2) = observe(&m2, "f0", &args, big_limits());
        match (&r1, &r2) {
            (Ok((v1, _)), Ok((v2, _))) => assert_eq!(v1, v2, "{text1}"),
            (Err(e1), Err(e2)) => assert_eq!(e1, e2, "{text1}"),
            _ => panic!("round-trip behaviour diverged\n{text1}\n{r1:?} vs {r2:?}"),
        }
        assert_eq!(t1, t2, "{text1}");
        assert_eq!(h1, h2, "{text1}");
        check_program(&m2, "f0", &args);
    }
    assert!(checked >= 40, "too few valid modules for round-trip: {checked}");
}

/// A trap after a host write surfaces the same error and the same trace on
/// every run, and under every limit that lets it get that far.
#[test]
fn abort_paths_are_deterministic() {
    let m = assemble(
        r#"
        fn boom(1) {
            push.s "k"
            load 0
            host.put
            pop
            trap "stop here"
        }
        "#,
    )
    .expect("abort module assembles");
    check_program(&m, "boom", &[VmValue::Bytes(b"v".to_vec())]);
}
