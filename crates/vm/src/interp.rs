//! The bytecode interpreter: [`Interpreter`], and the error and report
//! types of one execution.
//!
//! There is one execution loop. It decodes each [`Instr`] as it dispatches
//! it, charges fuel one instruction at a time before running it, and keeps
//! the frame stack in a `Vec<Frame>`. Metering is exact: an execution stops
//! at the first charge or allocation that crosses its [`Limits`], so a run
//! that uses `f` fuel succeeds at a limit of `f` and fails with
//! [`VmError::FuelExhausted`] at `f - 1`, and likewise for peak memory and
//! [`VmError::MemoryLimit`]. The seeded fuzz in `tests/diff_interp.rs`
//! checks those boundaries and that every run is deterministic.
//!
//! A body is a value: [`Interpreter::start`] runs it until it returns or
//! reaches a nested call (`host.invoke` / `host.invoke_many`), and hands
//! back a [`Suspended`] that owns the frames, the fuel and memory
//! accounting and the module; [`Suspended::resume`] answers the call and
//! runs on. [`Interpreter::execute`] is that plus a loop answering each
//! call from the synchronous [`Host::invoke`] / [`Host::invoke_many`].

use std::fmt;
use std::sync::Arc;

use crate::bytecode::{HostFn, Instr, Module};
use crate::host::{Host, HostError};
use crate::native::NativeThen;
use crate::value::VmValue;
use crate::Limits;

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The fuel budget ran out; the invocation is aborted.
    FuelExhausted,
    /// The memory ceiling was exceeded.
    MemoryLimit,
    /// Too many nested calls.
    CallDepthExceeded,
    /// No function with this name in the module.
    UnknownFunction(String),
    /// Wrong number of call arguments.
    ArityMismatch {
        /// Function name.
        name: String,
        /// Declared arity.
        expected: u8,
        /// Arguments supplied.
        got: usize,
    },
    /// An operand had the wrong runtime type.
    Type {
        /// Operation that failed.
        op: &'static str,
        /// Type actually found.
        found: &'static str,
    },
    /// Arithmetic fault (overflow, division by zero) or explicit trap.
    Trap(String),
    /// Operand stack underflow (unreachable for validated modules).
    StackUnderflow,
    /// Reference to a missing constant/local/function/jump target
    /// (unreachable for validated modules).
    BadReference(String),
    /// A host call failed.
    Host(HostError),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::FuelExhausted => write!(f, "fuel exhausted"),
            VmError::MemoryLimit => write!(f, "memory limit exceeded"),
            VmError::CallDepthExceeded => write!(f, "call depth exceeded"),
            VmError::UnknownFunction(n) => write!(f, "unknown function {n:?}"),
            VmError::ArityMismatch { name, expected, got } => {
                write!(f, "function {name:?} expects {expected} args, got {got}")
            }
            VmError::Type { op, found } => {
                write!(f, "type error in {op}: unexpected {found}")
            }
            VmError::Trap(m) => write!(f, "trap: {m}"),
            VmError::StackUnderflow => write!(f, "operand stack underflow"),
            VmError::BadReference(m) => write!(f, "bad reference: {m}"),
            VmError::Host(e) => write!(f, "host error: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<HostError> for VmError {
    fn from(e: HostError) -> Self {
        VmError::Host(e)
    }
}

/// Resource usage of one completed (or failed) execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Fuel consumed.
    pub fuel_used: u64,
    /// Peak live bytes across stacks and locals.
    pub peak_memory: usize,
    /// Number of host calls performed.
    pub host_calls: u64,
    /// Instructions retired.
    pub instructions: u64,
}

/// Base fuel charged exactly once per host call, on top of per-byte
/// argument/result charges.
pub const HOST_CALL_BASE_FUEL: u64 = 20;

/// Executes functions of a [`Module`] under [`Limits`].
#[derive(Debug, Clone)]
pub struct Interpreter {
    limits: Limits,
}

impl Interpreter {
    /// Create an interpreter with the given resource limits.
    pub fn new(limits: Limits) -> Interpreter {
        Interpreter { limits }
    }

    /// Same as [`new`](Self::new): `capacity` is ignored, as there is no
    /// module cache to size. Kept because the `benchmark` package calls it.
    pub fn with_cache_capacity(limits: Limits, _capacity: usize) -> Interpreter {
        Interpreter::new(limits)
    }

    /// The configured resource limits.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Execute `function` with `args`, returning its result.
    ///
    /// # Errors
    /// Any [`VmError`]; on error all host-side buffering is the caller's
    /// responsibility to discard (the `lambda-objects` layer does this).
    pub fn execute(
        &self,
        module: &Module,
        function: &str,
        args: Vec<VmValue>,
        host: &mut dyn Host,
    ) -> Result<VmValue, VmError> {
        self.execute_with_report(module, function, args, host).map(|(v, _)| v)
    }

    /// Execute and also return resource accounting: [`start`](Self::start)
    /// plus a loop that answers each nested call from `host`.
    ///
    /// # Errors
    /// Same as [`execute`](Self::execute).
    pub fn execute_with_report(
        &self,
        module: &Module,
        function: &str,
        args: Vec<VmValue>,
        host: &mut dyn Host,
    ) -> Result<(VmValue, ExecutionReport), VmError> {
        let mut machine = self.machine(module, function, args)?;
        loop {
            match machine.run(module, host)? {
                Exit::Return(value) => return Ok((value, machine.report)),
                Exit::Call(call) => machine.answer(call.many, call.answer_from(host))?,
            }
        }
    }

    /// Start `function` with `args`: run it until it returns or stops at
    /// its first nested call.
    ///
    /// # Errors
    /// Same as [`execute`](Self::execute), up to the first nested call.
    pub fn start(
        &self,
        module: Arc<Module>,
        function: &str,
        args: Vec<VmValue>,
        host: &mut dyn Host,
    ) -> Result<Step, VmError> {
        let machine = self.machine(&module, function, args)?;
        Suspended::step(module, machine, host)
    }

    /// A machine about to run `function`'s first instruction.
    fn machine(
        &self,
        module: &Module,
        function: &str,
        args: Vec<VmValue>,
    ) -> Result<Machine, VmError> {
        let (idx, def) = module
            .function(function)
            .ok_or_else(|| VmError::UnknownFunction(function.to_string()))?;
        if args.len() != def.arity as usize {
            return Err(VmError::ArityMismatch {
                name: function.to_string(),
                expected: def.arity,
                got: args.len(),
            });
        }
        let mut machine = Machine { limits: self.limits, ..Machine::default() };
        let mut frames = Vec::new();
        machine.push_frame(module, &mut frames, idx as usize, args)?;
        machine.frames = frames;
        Ok(machine)
    }
}

/// The nested call a body stopped at: `method(args)` on every object of
/// `targets`, as one scatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedCall {
    /// The objects called, in order: one for `host.invoke`.
    pub targets: Vec<Vec<u8>>,
    /// The method called on each.
    pub method: String,
    /// The arguments each call gets.
    pub args: Vec<VmValue>,
    /// `host.invoke_many`, answered with the list of results, rather than
    /// `host.invoke`, answered with its one result.
    pub many: bool,
}

impl NestedCall {
    /// Answer the call from a synchronous host, one result per target.
    ///
    /// # Errors
    /// Whatever the host's call fails with.
    pub fn answer_from(self, host: &mut dyn Host) -> Result<Vec<VmValue>, HostError> {
        let NestedCall { mut targets, method, args, many } = self;
        if many {
            host.invoke_many(targets, &method, args)
        } else {
            let target = targets.pop().expect("host.invoke names one target");
            host.invoke(&target, &method, args).map(|value| vec![value])
        }
    }
}

/// What a body did when started or resumed.
#[derive(Debug)]
pub enum Step {
    /// It returned, with its value and the whole run's accounting (none
    /// for a native body).
    Done(VmValue, ExecutionReport),
    /// It stopped at a nested call.
    Suspended(Suspended),
}

/// A body stopped at a nested call, ready to go on once the call is
/// answered: a bytecode body's frames, pc, fuel and memory accounting and
/// module, or a native body's continuation. Owns everything, so it can
/// wait anywhere and resume on any thread.
pub struct Suspended {
    call: NestedCall,
    rest: Rest,
}

enum Rest {
    Bytecode(Arc<Module>, Machine),
    Native(NativeThen),
}

impl fmt::Debug for Suspended {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Suspended").field("call", &self.call).finish()
    }
}

impl Suspended {
    /// The call the body waits on.
    pub fn call(&self) -> &NestedCall {
        &self.call
    }

    /// Answer the call — one result per target, or the error the call
    /// failed with — and run the body on to its return or its next nested
    /// call. `host` serves the body's other host calls from here on.
    ///
    /// # Errors
    /// Any [`VmError`]: `VmError::Host(e)` at once for an `Err(e)` answer
    /// to a bytecode body.
    pub fn resume(
        self,
        answer: Result<Vec<VmValue>, HostError>,
        host: &mut dyn Host,
    ) -> Result<Step, VmError> {
        match self.rest {
            Rest::Bytecode(module, mut machine) => {
                machine.answer(self.call.many, answer)?;
                Suspended::step(module, machine, host)
            }
            Rest::Native(then) => Ok(then(host, answer)?),
        }
    }

    /// A native body's stop at `call`, going on with `then`.
    pub(crate) fn native(call: NestedCall, then: NativeThen) -> Step {
        Step::Suspended(Suspended { call, rest: Rest::Native(then) })
    }

    fn step(
        module: Arc<Module>,
        mut machine: Machine,
        host: &mut dyn Host,
    ) -> Result<Step, VmError> {
        Ok(match machine.run(&module, host)? {
            Exit::Return(value) => Step::Done(value, machine.report),
            Exit::Call(call) => {
                Step::Suspended(Suspended { call, rest: Rest::Bytecode(module, machine) })
            }
        })
    }
}

struct Frame {
    func: usize,
    pc: usize,
    locals: Vec<VmValue>,
    stack: Vec<VmValue>,
}

/// How a run of the loop ended.
enum Exit {
    Return(VmValue),
    Call(NestedCall),
}

/// One body's state between runs of the loop.
#[derive(Default)]
struct Machine {
    /// Empty while the loop runs (it holds them) and after the return.
    frames: Vec<Frame>,
    limits: Limits,
    report: ExecutionReport,
    mem: usize,
}

impl Machine {
    fn charge(&mut self, fuel: u64) -> Result<(), VmError> {
        self.report.fuel_used += fuel;
        if self.report.fuel_used > self.limits.fuel {
            return Err(VmError::FuelExhausted);
        }
        Ok(())
    }

    fn alloc(&mut self, bytes: usize) -> Result<(), VmError> {
        self.mem += bytes;
        if self.mem > self.limits.memory_bytes {
            return Err(VmError::MemoryLimit);
        }
        self.report.peak_memory = self.report.peak_memory.max(self.mem);
        Ok(())
    }

    fn free(&mut self, bytes: usize) {
        self.mem = self.mem.saturating_sub(bytes);
    }

    /// Run the loop until the body returns or stops at a nested call.
    fn run(&mut self, module: &Module, host: &mut dyn Host) -> Result<Exit, VmError> {
        let mut frames = std::mem::take(&mut self.frames);
        let exit = self.run_frames(module, host, &mut frames);
        self.frames = frames;
        exit
    }

    /// Push the answer to the nested call the body stopped at, as that
    /// host call's result.
    fn answer(
        &mut self,
        many: bool,
        answer: Result<Vec<VmValue>, HostError>,
    ) -> Result<(), VmError> {
        let mut results = answer?;
        let result = match many {
            true => VmValue::List(results),
            false => results.pop().expect("one result per target"),
        };
        self.charge((result.approx_bytes() / 16) as u64)?;
        self.alloc(result.approx_bytes())?;
        self.frames.last_mut().expect("a suspended body has a frame").stack.push(result);
        Ok(())
    }

    fn run_frames(
        &mut self,
        module: &Module,
        host: &mut dyn Host,
        frames: &mut Vec<Frame>,
    ) -> Result<Exit, VmError> {
        loop {
            let frame = frames.last_mut().expect("at least one frame");
            let code = &module.functions[frame.func].code;
            if frame.pc >= code.len() {
                // Fall off the end: implicit `ret` of Unit.
                let ret = VmValue::Unit;
                if self.pop_frame(frames, ret)? {
                    continue;
                }
                return Ok(Exit::Return(VmValue::Unit));
            }
            let instr = code[frame.pc].clone();
            frame.pc += 1;
            self.report.instructions += 1;
            self.charge(1)?;

            match instr {
                Instr::PushInt(v) => self.push(frames.last_mut().unwrap(), VmValue::Int(v))?,
                Instr::PushBool(b) => self.push(frames.last_mut().unwrap(), VmValue::Bool(b))?,
                Instr::PushUnit => self.push(frames.last_mut().unwrap(), VmValue::Unit)?,
                Instr::PushConst(i) => {
                    let c = module
                        .constants
                        .get(i as usize)
                        .ok_or_else(|| VmError::BadReference(format!("constant {i}")))?
                        .clone();
                    self.push(frames.last_mut().unwrap(), VmValue::Bytes(c))?;
                }
                Instr::Dup => {
                    let f = frames.last_mut().unwrap();
                    let top = f.stack.last().ok_or(VmError::StackUnderflow)?.clone();
                    self.push(frames.last_mut().unwrap(), top)?;
                }
                Instr::Pop => {
                    let v = self.pop(frames.last_mut().unwrap())?;
                    self.free(v.approx_bytes());
                }
                Instr::Swap => {
                    let f = frames.last_mut().unwrap();
                    let len = f.stack.len();
                    if len < 2 {
                        return Err(VmError::StackUnderflow);
                    }
                    f.stack.swap(len - 1, len - 2);
                }
                Instr::Load(i) => {
                    let f = frames.last_mut().unwrap();
                    let v = f
                        .locals
                        .get(i as usize)
                        .ok_or_else(|| VmError::BadReference(format!("local {i}")))?
                        .clone();
                    self.push(frames.last_mut().unwrap(), v)?;
                }
                Instr::Store(i) => {
                    let v = self.pop(frames.last_mut().unwrap())?;
                    let f = frames.last_mut().unwrap();
                    let slot = f
                        .locals
                        .get_mut(i as usize)
                        .ok_or_else(|| VmError::BadReference(format!("local {i}")))?;
                    // Memory: the popped value stays live in the local;
                    // the old local content is freed.
                    let old = std::mem::replace(slot, v);
                    self.free(old.approx_bytes());
                }
                Instr::Add => self.int_binop(frames, "add", i64::checked_add)?,
                Instr::Sub => self.int_binop(frames, "sub", i64::checked_sub)?,
                Instr::Mul => self.int_binop(frames, "mul", i64::checked_mul)?,
                Instr::Div => self.int_binop(frames, "div", i64::checked_div)?,
                Instr::Mod => self.int_binop(frames, "mod", i64::checked_rem)?,
                Instr::Eq => {
                    let b = self.pop(frames.last_mut().unwrap())?;
                    let a = self.pop(frames.last_mut().unwrap())?;
                    self.free(a.approx_bytes() + b.approx_bytes());
                    self.push(frames.last_mut().unwrap(), VmValue::Bool(a == b))?;
                }
                Instr::Lt => self.cmp_binop(frames, "lt", |o| o.is_lt())?,
                Instr::Le => self.cmp_binop(frames, "le", |o| o.is_le())?,
                Instr::Not => {
                    let v = self.pop(frames.last_mut().unwrap())?;
                    self.free(v.approx_bytes());
                    self.push(frames.last_mut().unwrap(), VmValue::Bool(!v.is_truthy()))?;
                }
                Instr::Concat => {
                    let b = self.pop(frames.last_mut().unwrap())?;
                    let a = self.pop(frames.last_mut().unwrap())?;
                    match (a, b) {
                        (VmValue::Bytes(mut a), VmValue::Bytes(b)) => {
                            self.charge((b.len() / 16) as u64)?;
                            a.extend_from_slice(&b);
                            self.free(24 + b.len());
                            self.push(frames.last_mut().unwrap(), VmValue::Bytes(a))?;
                            // a grew by b.len: account for it.
                            self.alloc(0)?;
                        }
                        (a, _) => return Err(VmError::Type { op: "concat", found: a.type_name() }),
                    }
                }
                Instr::Len => {
                    let v = self.pop(frames.last_mut().unwrap())?;
                    let len = match &v {
                        VmValue::Bytes(b) => b.len() as i64,
                        VmValue::List(l) => l.len() as i64,
                        other => return Err(VmError::Type { op: "len", found: other.type_name() }),
                    };
                    self.free(v.approx_bytes());
                    self.push(frames.last_mut().unwrap(), VmValue::Int(len))?;
                }
                Instr::IntToBytes => {
                    let v = self.pop_int(frames.last_mut().unwrap(), "itob")?;
                    self.push(
                        frames.last_mut().unwrap(),
                        VmValue::Bytes(v.to_le_bytes().to_vec()),
                    )?;
                }
                Instr::BytesToInt => {
                    let v = self.pop(frames.last_mut().unwrap())?;
                    let n = match &v {
                        VmValue::Unit => 0,
                        VmValue::Int(i) => *i,
                        VmValue::Bytes(b) if b.len() <= 8 => {
                            let mut buf = [0u8; 8];
                            buf[..b.len()].copy_from_slice(b);
                            i64::from_le_bytes(buf)
                        }
                        VmValue::Bytes(_) => {
                            return Err(VmError::Trap("btoi: more than 8 bytes".into()))
                        }
                        other => {
                            return Err(VmError::Type { op: "btoi", found: other.type_name() })
                        }
                    };
                    self.free(v.approx_bytes());
                    self.push(frames.last_mut().unwrap(), VmValue::Int(n))?;
                }
                Instr::MakeList(n) => {
                    let f = frames.last_mut().unwrap();
                    if f.stack.len() < n as usize {
                        return Err(VmError::StackUnderflow);
                    }
                    let items = f.stack.split_off(f.stack.len() - n as usize);
                    self.push(frames.last_mut().unwrap(), VmValue::List(items))?;
                }
                Instr::Index => {
                    let idx = self.pop_int(frames.last_mut().unwrap(), "index")?;
                    let list = self.pop(frames.last_mut().unwrap())?;
                    match list {
                        VmValue::List(items) => {
                            let item = items.get(idx as usize).cloned().ok_or_else(|| {
                                VmError::Trap(format!(
                                    "list index {idx} out of bounds (len {})",
                                    items.len()
                                ))
                            })?;
                            self.free(VmValue::List(items).approx_bytes());
                            self.push(frames.last_mut().unwrap(), item)?;
                        }
                        other => {
                            return Err(VmError::Type { op: "index", found: other.type_name() })
                        }
                    }
                }
                Instr::Append => {
                    let v = self.pop(frames.last_mut().unwrap())?;
                    let list = self.pop(frames.last_mut().unwrap())?;
                    match list {
                        VmValue::List(mut items) => {
                            items.push(v);
                            self.push(frames.last_mut().unwrap(), VmValue::List(items))?;
                        }
                        other => {
                            return Err(VmError::Type { op: "append", found: other.type_name() })
                        }
                    }
                }
                Instr::Jump(target) => {
                    let f = frames.last_mut().unwrap();
                    if target as usize > module.functions[f.func].code.len() {
                        return Err(VmError::BadReference(format!("jump to {target}")));
                    }
                    f.pc = target as usize;
                }
                Instr::JumpIfFalse(target) => {
                    let v = self.pop(frames.last_mut().unwrap())?;
                    self.free(v.approx_bytes());
                    if !v.is_truthy() {
                        let f = frames.last_mut().unwrap();
                        if target as usize > module.functions[f.func].code.len() {
                            return Err(VmError::BadReference(format!("jump to {target}")));
                        }
                        f.pc = target as usize;
                    }
                }
                Instr::Call(idx) => {
                    let def = module
                        .functions
                        .get(idx as usize)
                        .ok_or_else(|| VmError::BadReference(format!("function {idx}")))?;
                    let arity = def.arity as usize;
                    let f = frames.last_mut().unwrap();
                    if f.stack.len() < arity {
                        return Err(VmError::StackUnderflow);
                    }
                    let args = f.stack.split_off(f.stack.len() - arity);
                    self.push_frame(module, frames, idx as usize, args)?;
                }
                Instr::Ret => {
                    let f = frames.last_mut().unwrap();
                    let ret = f.stack.pop().unwrap_or(VmValue::Unit);
                    if self.pop_frame(frames, ret.clone())? {
                        continue;
                    }
                    return Ok(Exit::Return(ret));
                }
                Instr::Host(hf) => {
                    if let Some(call) = self.host_call(host, frames, hf)? {
                        return Ok(Exit::Call(call));
                    }
                }
                Instr::Trap(cidx) => {
                    let msg = module
                        .constants
                        .get(cidx as usize)
                        .map(|c| String::from_utf8_lossy(c).into_owned())
                        .unwrap_or_else(|| format!("trap #{cidx}"));
                    return Err(VmError::Trap(msg));
                }
            }
        }
    }

    fn push_frame(
        &mut self,
        module: &Module,
        frames: &mut Vec<Frame>,
        func: usize,
        args: Vec<VmValue>,
    ) -> Result<(), VmError> {
        if frames.len() >= self.limits.call_depth {
            return Err(VmError::CallDepthExceeded);
        }
        let def = &module.functions[func];
        if args.len() != def.arity as usize {
            return Err(VmError::ArityMismatch {
                name: def.name.clone(),
                expected: def.arity,
                got: args.len(),
            });
        }
        let mut locals = args;
        locals.resize(def.locals.max(def.arity as u16) as usize, VmValue::Unit);
        for v in &locals {
            self.alloc(v.approx_bytes())?;
        }
        frames.push(Frame { func, pc: 0, locals, stack: Vec::new() });
        self.charge(2)?;
        Ok(())
    }

    /// Pop the current frame, pushing `ret` into the caller. Returns true
    /// when execution continues (a caller remains).
    fn pop_frame(&mut self, frames: &mut Vec<Frame>, ret: VmValue) -> Result<bool, VmError> {
        let frame = frames.pop().expect("frame");
        for v in frame.locals.iter().chain(frame.stack.iter()) {
            self.free(v.approx_bytes());
        }
        if let Some(caller) = frames.last_mut() {
            caller.stack.push(ret.clone());
            self.alloc(ret.approx_bytes())?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn push(&mut self, frame: &mut Frame, v: VmValue) -> Result<(), VmError> {
        self.alloc(v.approx_bytes())?;
        frame.stack.push(v);
        Ok(())
    }

    fn pop(&mut self, frame: &mut Frame) -> Result<VmValue, VmError> {
        frame.stack.pop().ok_or(VmError::StackUnderflow)
    }

    fn pop_int(&mut self, frame: &mut Frame, op: &'static str) -> Result<i64, VmError> {
        match self.pop(frame)? {
            VmValue::Int(v) => Ok(v),
            other => Err(VmError::Type { op, found: other.type_name() }),
        }
    }

    fn int_binop(
        &mut self,
        frames: &mut [Frame],
        op: &'static str,
        f: fn(i64, i64) -> Option<i64>,
    ) -> Result<(), VmError> {
        let frame = frames.last_mut().unwrap();
        let b = self.pop_int(frame, op)?;
        let a = self.pop_int(frame, op)?;
        let r = f(a, b).ok_or_else(|| VmError::Trap(format!("arithmetic fault in {op}")))?;
        self.push(frames.last_mut().unwrap(), VmValue::Int(r))
    }

    fn cmp_binop(
        &mut self,
        frames: &mut [Frame],
        op: &'static str,
        accept: fn(std::cmp::Ordering) -> bool,
    ) -> Result<(), VmError> {
        let frame = frames.last_mut().unwrap();
        let b = self.pop(frame)?;
        let a = self.pop(frame)?;
        let ord = match (&a, &b) {
            (VmValue::Int(x), VmValue::Int(y)) => x.cmp(y),
            (VmValue::Bytes(x), VmValue::Bytes(y)) => x.cmp(y),
            (other, _) => return Err(VmError::Type { op, found: other.type_name() }),
        };
        self.free(a.approx_bytes() + b.approx_bytes());
        self.push(frames.last_mut().unwrap(), VmValue::Bool(accept(ord)))
    }

    /// Run host call `hf`; a nested call is not run but handed back, with
    /// its result still to be pushed ([`Machine::answer`]).
    fn host_call(
        &mut self,
        host: &mut dyn Host,
        frames: &mut [Frame],
        hf: HostFn,
    ) -> Result<Option<NestedCall>, VmError> {
        self.report.host_calls += 1;
        // The per-call base cost is charged exactly once, here; the
        // generic 1-fuel dispatch charge for the `Host` instruction itself
        // happened in the main loop before entering this function.
        self.charge(HOST_CALL_BASE_FUEL)?;
        let frame = frames.last_mut().unwrap();
        let argc = hf.arg_count();
        if frame.stack.len() < argc {
            return Err(VmError::StackUnderflow);
        }
        let args = frame.stack.split_off(frame.stack.len() - argc);
        for a in &args {
            self.free(a.approx_bytes());
            self.charge((a.approx_bytes() / 16) as u64)?;
        }

        let bytes_arg = |v: &VmValue, op: &'static str| -> Result<Vec<u8>, VmError> {
            v.as_bytes().map(<[u8]>::to_vec).ok_or(VmError::Type { op, found: v.type_name() })
        };
        let int_arg = |v: &VmValue, op: &'static str| -> Result<i64, VmError> {
            v.as_int().ok_or(VmError::Type { op, found: v.type_name() })
        };

        let result: VmValue = match hf {
            HostFn::Get => {
                let key = bytes_arg(&args[0], "host get")?;
                match host.get(&key)? {
                    Some(v) => VmValue::Bytes(v),
                    None => VmValue::Unit,
                }
            }
            HostFn::Put => {
                let key = bytes_arg(&args[0], "host put")?;
                let value = bytes_arg(&args[1], "host put")?;
                self.charge((value.len() / 16) as u64)?;
                host.put(&key, &value)?;
                VmValue::Unit
            }
            HostFn::Delete => {
                let key = bytes_arg(&args[0], "host delete")?;
                host.delete(&key)?;
                VmValue::Unit
            }
            HostFn::Push => {
                let field = bytes_arg(&args[0], "host push")?;
                let value = bytes_arg(&args[1], "host push")?;
                self.charge((value.len() / 16) as u64)?;
                host.push(&field, &value)?;
                VmValue::Unit
            }
            HostFn::Scan => {
                let field = bytes_arg(&args[0], "host scan")?;
                let limit = int_arg(&args[1], "host scan")?.max(0) as usize;
                let newest_first = args[2].is_truthy();
                let rows = host.scan(&field, limit, newest_first)?;
                let items: Vec<VmValue> = rows.into_iter().map(VmValue::Bytes).collect();
                VmValue::List(items)
            }
            HostFn::Count => {
                let field = bytes_arg(&args[0], "host count")?;
                VmValue::Int(host.count(&field)? as i64)
            }
            HostFn::InvokeMany => {
                let targets = match &args[0] {
                    VmValue::List(items) => items
                        .iter()
                        .map(|v| {
                            v.as_bytes().map(<[u8]>::to_vec).ok_or(VmError::Type {
                                op: "host invoke_many",
                                found: v.type_name(),
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    other => {
                        return Err(VmError::Type {
                            op: "host invoke_many",
                            found: other.type_name(),
                        })
                    }
                };
                let method =
                    String::from_utf8_lossy(&bytes_arg(&args[1], "host invoke_many")?).into_owned();
                let call_args = match &args[2] {
                    VmValue::List(items) => items.clone(),
                    VmValue::Unit => Vec::new(),
                    other => {
                        return Err(VmError::Type {
                            op: "host invoke_many",
                            found: other.type_name(),
                        })
                    }
                };
                return Ok(Some(NestedCall { targets, method, args: call_args, many: true }));
            }
            HostFn::Invoke => {
                let object = bytes_arg(&args[0], "host invoke")?;
                let method =
                    String::from_utf8_lossy(&bytes_arg(&args[1], "host invoke")?).into_owned();
                let call_args = match &args[2] {
                    VmValue::List(items) => items.clone(),
                    VmValue::Unit => Vec::new(),
                    other => {
                        return Err(VmError::Type { op: "host invoke", found: other.type_name() })
                    }
                };
                let targets = vec![object];
                return Ok(Some(NestedCall { targets, method, args: call_args, many: false }));
            }
            HostFn::SelfId => VmValue::Bytes(host.self_id()),
            HostFn::Time => VmValue::Int(host.now_millis()),
            HostFn::Log => {
                let msg = bytes_arg(&args[0], "host log")?;
                host.log(&String::from_utf8_lossy(&msg));
                VmValue::Unit
            }
            HostFn::Abort => {
                let msg = bytes_arg(&args[0], "host abort")?;
                return Err(VmError::Host(HostError::Aborted(
                    String::from_utf8_lossy(&msg).into_owned(),
                )));
            }
        };
        self.charge((result.approx_bytes() / 16) as u64)?;
        self.push(frames.last_mut().unwrap(), result)?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{FunctionDef, HostFn, Instr, ModuleBuilder};
    use crate::host::MemoryHost;

    fn func(name: &str, arity: u8, locals: u16, code: Vec<Instr>) -> FunctionDef {
        FunctionDef {
            name: name.into(),
            arity,
            locals,
            read_only: false,
            deterministic: false,
            public: true,
            code,
        }
    }

    fn run(module: &Module, name: &str, args: Vec<VmValue>) -> Result<VmValue, VmError> {
        let mut host = MemoryHost::default();
        Interpreter::new(Limits::default()).execute(module, name, args, &mut host)
    }

    #[test]
    fn arithmetic_and_return() {
        let m = ModuleBuilder::new()
            .function(func(
                "calc",
                2,
                2,
                vec![
                    Instr::Load(0),
                    Instr::Load(1),
                    Instr::Add,
                    Instr::PushInt(10),
                    Instr::Mul,
                    Instr::Ret,
                ],
            ))
            .build();
        assert_eq!(
            run(&m, "calc", vec![VmValue::Int(2), VmValue::Int(3)]).unwrap(),
            VmValue::Int(50)
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let m = ModuleBuilder::new()
            .function(func(
                "bad",
                0,
                0,
                vec![Instr::PushInt(1), Instr::PushInt(0), Instr::Div, Instr::Ret],
            ))
            .build();
        assert!(matches!(run(&m, "bad", vec![]), Err(VmError::Trap(_))));
    }

    #[test]
    fn overflow_traps() {
        let m = ModuleBuilder::new()
            .function(func(
                "over",
                0,
                0,
                vec![Instr::PushInt(i64::MAX), Instr::PushInt(1), Instr::Add, Instr::Ret],
            ))
            .build();
        assert!(matches!(run(&m, "over", vec![]), Err(VmError::Trap(_))));
    }

    #[test]
    fn control_flow_loop_sums() {
        // sum = 0; i = 0; while i < n { sum += i; i += 1 } return sum
        let m = ModuleBuilder::new()
            .function(func(
                "sum",
                1,
                3,
                vec![
                    // locals: 0=n, 1=i, 2=sum
                    /* 0 */ Instr::PushInt(0),
                    /* 1 */ Instr::Store(1),
                    /* 2 */ Instr::PushInt(0),
                    /* 3 */ Instr::Store(2),
                    // loop head
                    /* 4 */ Instr::Load(1),
                    /* 5 */ Instr::Load(0),
                    /* 6 */ Instr::Lt,
                    /* 7 */ Instr::JumpIfFalse(16),
                    /* 8 */ Instr::Load(2),
                    /* 9 */ Instr::Load(1),
                    /* 10 */ Instr::Add,
                    /* 11 */ Instr::Store(2),
                    /* 12 */ Instr::Load(1),
                    /* 13 */ Instr::PushInt(1),
                    /* 14 */ Instr::Add,
                    /* 15 */ Instr::Store(1),
                    // wrong: need jump back
                    /* 16 */ Instr::Load(2),
                    /* 17 */ Instr::Ret,
                ],
            ))
            .build();
        // Patch: insert the back jump properly.
        let mut m = m;
        m.functions[0].code.insert(16, Instr::Jump(4));
        // Fix the forward jump target (now one later).
        m.functions[0].code[7] = Instr::JumpIfFalse(17);
        assert_eq!(run(&m, "sum", vec![VmValue::Int(10)]).unwrap(), VmValue::Int(45));
    }

    #[test]
    fn nested_calls_and_recursion() {
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
        let m = ModuleBuilder::new()
            .function(func(
                "fib",
                1,
                1,
                vec![
                    /* 0 */ Instr::Load(0),
                    /* 1 */ Instr::PushInt(2),
                    /* 2 */ Instr::Lt,
                    /* 3 */ Instr::JumpIfFalse(6),
                    /* 4 */ Instr::Load(0),
                    /* 5 */ Instr::Ret,
                    /* 6 */ Instr::Load(0),
                    /* 7 */ Instr::PushInt(1),
                    /* 8 */ Instr::Sub,
                    /* 9 */ Instr::Call(0),
                    /* 10 */ Instr::Load(0),
                    /* 11 */ Instr::PushInt(2),
                    /* 12 */ Instr::Sub,
                    /* 13 */ Instr::Call(0),
                    /* 14 */ Instr::Add,
                    /* 15 */ Instr::Ret,
                ],
            ))
            .build();
        assert_eq!(run(&m, "fib", vec![VmValue::Int(10)]).unwrap(), VmValue::Int(55));
    }

    #[test]
    fn call_depth_limit_enforced() {
        let m = ModuleBuilder::new()
            .function(func("loop", 0, 0, vec![Instr::Call(0), Instr::Ret]))
            .build();
        let mut host = MemoryHost::default();
        let err =
            Interpreter::new(Limits::tiny()).execute(&m, "loop", vec![], &mut host).unwrap_err();
        assert_eq!(err, VmError::CallDepthExceeded);
    }

    #[test]
    fn fuel_exhaustion_on_infinite_loop() {
        let m = ModuleBuilder::new().function(func("spin", 0, 0, vec![Instr::Jump(0)])).build();
        let mut host = MemoryHost::default();
        let err =
            Interpreter::new(Limits::tiny()).execute(&m, "spin", vec![], &mut host).unwrap_err();
        assert_eq!(err, VmError::FuelExhausted);
    }

    #[test]
    fn memory_limit_on_unbounded_growth() {
        // Repeatedly double a byte string.
        let mut builder = ModuleBuilder::new();
        let c = builder.constant(vec![b'x'; 1024]);
        let m = builder
            .function(func(
                "grow",
                0,
                1,
                vec![
                    /* 0 */ Instr::PushConst(c),
                    /* 1 */ Instr::Store(0),
                    /* 2 */ Instr::Load(0),
                    /* 3 */ Instr::Load(0),
                    /* 4 */ Instr::Concat,
                    /* 5 */ Instr::Store(0),
                    /* 6 */ Instr::Jump(2),
                ],
            ))
            .build();
        let mut host = MemoryHost::default();
        let limits = Limits { fuel: u64::MAX, memory_bytes: 1 << 20, call_depth: 8 };
        let err = Interpreter::new(limits).execute(&m, "grow", vec![], &mut host).unwrap_err();
        assert_eq!(err, VmError::MemoryLimit);
    }

    #[test]
    fn host_get_put_round_trip() {
        let mut builder = ModuleBuilder::new();
        let key = builder.constant(b"name".to_vec());
        let val = builder.constant(b"ada".to_vec());
        let m = builder
            .function(func(
                "set_then_get",
                0,
                0,
                vec![
                    Instr::PushConst(key),
                    Instr::PushConst(val),
                    Instr::Host(HostFn::Put),
                    Instr::Pop,
                    Instr::PushConst(key),
                    Instr::Host(HostFn::Get),
                    Instr::Ret,
                ],
            ))
            .build();
        assert_eq!(run(&m, "set_then_get", vec![]).unwrap(), VmValue::Bytes(b"ada".to_vec()));
    }

    #[test]
    fn host_scan_returns_list() {
        let mut builder = ModuleBuilder::new();
        let field = builder.constant(b"timeline".to_vec());
        let m = builder
            .function(func(
                "read_tl",
                0,
                0,
                vec![
                    Instr::PushConst(field),
                    Instr::PushInt(2),
                    Instr::PushInt(1), // newest first
                    Instr::Host(HostFn::Scan),
                    Instr::Ret,
                ],
            ))
            .build();
        let mut host = MemoryHost::default();
        host.push(b"timeline", b"one").unwrap();
        host.push(b"timeline", b"two").unwrap();
        host.push(b"timeline", b"three").unwrap();
        let out =
            Interpreter::new(Limits::default()).execute(&m, "read_tl", vec![], &mut host).unwrap();
        assert_eq!(
            out,
            VmValue::List(vec![VmValue::Bytes(b"three".to_vec()), VmValue::Bytes(b"two".to_vec())])
        );
    }

    #[test]
    fn host_abort_discards_and_errors() {
        let mut builder = ModuleBuilder::new();
        let msg = builder.constant(b"insufficient funds".to_vec());
        let m = builder
            .function(func("fail", 0, 0, vec![Instr::PushConst(msg), Instr::Host(HostFn::Abort)]))
            .build();
        match run(&m, "fail", vec![]) {
            Err(VmError::Host(HostError::Aborted(m))) => {
                assert_eq!(m, "insufficient funds")
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn trap_instruction_reports_message() {
        let mut builder = ModuleBuilder::new();
        let msg = builder.constant(b"unreachable".to_vec());
        let m = builder.function(func("t", 0, 0, vec![Instr::Trap(msg)])).build();
        assert_eq!(run(&m, "t", vec![]), Err(VmError::Trap("unreachable".into())));
    }

    #[test]
    fn list_operations() {
        let m = ModuleBuilder::new()
            .function(func(
                "lists",
                0,
                1,
                vec![
                    Instr::PushInt(10),
                    Instr::PushInt(20),
                    Instr::MakeList(2),
                    Instr::PushInt(30),
                    Instr::Append,
                    Instr::Store(0),
                    Instr::Load(0),
                    Instr::PushInt(2),
                    Instr::Index,
                    Instr::Ret,
                ],
            ))
            .build();
        assert_eq!(run(&m, "lists", vec![]).unwrap(), VmValue::Int(30));
    }

    #[test]
    fn index_out_of_bounds_traps() {
        let m = ModuleBuilder::new()
            .function(func(
                "oob",
                0,
                0,
                vec![Instr::MakeList(0), Instr::PushInt(5), Instr::Index, Instr::Ret],
            ))
            .build();
        assert!(matches!(run(&m, "oob", vec![]), Err(VmError::Trap(_))));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let m = ModuleBuilder::new().function(func("two", 2, 2, vec![Instr::Ret])).build();
        assert!(matches!(
            run(&m, "two", vec![VmValue::Int(1)]),
            Err(VmError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unknown_function_rejected() {
        let m = Module::default();
        assert!(matches!(run(&m, "nope", vec![]), Err(VmError::UnknownFunction(_))));
    }

    #[test]
    fn type_error_on_bytes_arithmetic() {
        let mut builder = ModuleBuilder::new();
        let c = builder.constant(b"str".to_vec());
        let m = builder
            .function(func(
                "bad",
                0,
                0,
                vec![Instr::PushConst(c), Instr::PushInt(1), Instr::Add, Instr::Ret],
            ))
            .build();
        assert!(matches!(run(&m, "bad", vec![]), Err(VmError::Type { .. })));
    }

    #[test]
    fn fall_through_returns_unit() {
        let m = ModuleBuilder::new().function(func("empty", 0, 0, vec![])).build();
        assert_eq!(run(&m, "empty", vec![]).unwrap(), VmValue::Unit);
    }

    #[test]
    fn a_body_suspended_two_frames_deep_resumes_with_its_callers_state() {
        // main keeps 10 in a local and 7 on its stack, then calls mid; mid
        // keeps 5 on its stack and calls leaf; leaf keeps 1 on its stack and
        // stops at `host.invoke`. Each frame lists what it kept around the
        // call, so the value shows every frame's stack and locals as they
        // were when the body stopped, and the answer on top of leaf's.
        let mut builder = ModuleBuilder::new();
        let method = builder.constant("m");
        let module = builder
            .function(func(
                "main",
                1,
                2,
                vec![
                    Instr::PushInt(10),
                    Instr::Store(1),
                    Instr::PushInt(7),
                    Instr::Load(0),
                    Instr::Call(1),
                    Instr::Load(1),
                    Instr::MakeList(3),
                    Instr::Ret,
                ],
            ))
            .function(func(
                "mid",
                1,
                1,
                vec![
                    Instr::PushInt(5),
                    Instr::Load(0),
                    Instr::Call(2),
                    Instr::MakeList(2),
                    Instr::Ret,
                ],
            ))
            .function(func(
                "leaf",
                1,
                1,
                vec![
                    Instr::PushInt(1),
                    Instr::Load(0),
                    Instr::PushConst(method),
                    Instr::PushInt(3),
                    Instr::MakeList(1),
                    Instr::Host(HostFn::Invoke),
                    Instr::MakeList(2),
                    Instr::Ret,
                ],
            ))
            .build();
        let module = Arc::new(module);
        let interp = Interpreter::new(Limits::default());
        let mut host = MemoryHost::default();
        let args = vec![VmValue::str("peer")];
        let Step::Suspended(body) =
            interp.start(Arc::clone(&module), "main", args, &mut host).unwrap()
        else {
            panic!("the body returned without its nested call");
        };
        let call = NestedCall {
            targets: vec![b"peer".to_vec()],
            method: "m".into(),
            args: vec![VmValue::Int(3)],
            many: false,
        };
        assert_eq!(*body.call(), call);
        // The answer `MemoryHost` gives, so that `execute` on one runs the
        // same body in one piece.
        let Step::Done(value, report) = body.resume(Ok(vec![VmValue::Unit]), &mut host).unwrap()
        else {
            panic!("the body stopped again");
        };
        let leaf = VmValue::List(vec![VmValue::Int(1), VmValue::Unit]);
        let mid = VmValue::List(vec![VmValue::Int(5), leaf]);
        assert_eq!(value, VmValue::List(vec![VmValue::Int(7), mid, VmValue::Int(10)]));
        assert!(host.invocations.is_empty(), "the host answered no call itself");

        let mut whole = MemoryHost::default();
        let args = vec![VmValue::str("peer")];
        let run = interp.execute_with_report(&module, "main", args, &mut whole).unwrap();
        assert_eq!(run, (value, report), "suspending changed nothing observable");
        assert_eq!(whole.invocations, vec![(call.targets[0].clone(), call.method, call.args)]);
    }

    #[test]
    fn report_counts_resources() {
        let m = ModuleBuilder::new()
            .function(func(
                "work",
                0,
                0,
                vec![
                    Instr::PushInt(1),
                    Instr::PushInt(2),
                    Instr::Add,
                    Instr::Pop,
                    Instr::Host(HostFn::SelfId),
                    Instr::Ret,
                ],
            ))
            .build();
        let mut host = MemoryHost::default();
        let (_, report) = Interpreter::new(Limits::default())
            .execute_with_report(&m, "work", vec![], &mut host)
            .unwrap();
        assert_eq!(report.instructions, 6);
        assert_eq!(report.host_calls, 1);
        // Exact fuel: 2 (frame entry) + 6 (instructions) + host base +
        // result charge for the self_id bytes. Pinned so a double charge
        // of HOST_CALL_BASE_FUEL fails loudly.
        let id_charge = ((24 + host.self_id().len()) / 16) as u64;
        assert_eq!(report.fuel_used, 2 + 6 + HOST_CALL_BASE_FUEL + id_charge);
        assert!(report.peak_memory > 0);
    }

    #[test]
    fn host_call_base_fuel_charged_once() {
        // One Get on an empty host: 2 (entry) + 3 (instructions) + base +
        // 1 (arg bytes "key" = 27/16) + 1 (Unit result).
        let mut builder = ModuleBuilder::new();
        let key = builder.constant(b"key".to_vec());
        let m = builder
            .function(func(
                "probe",
                0,
                0,
                vec![Instr::PushConst(key), Instr::Host(HostFn::Get), Instr::Ret],
            ))
            .build();
        let expected = 2 + 3 + HOST_CALL_BASE_FUEL + ((24 + 3) / 16) as u64 + 1;
        let mut host = MemoryHost::default();
        let (v, report) = Interpreter::new(Limits::default())
            .execute_with_report(&m, "probe", vec![], &mut host)
            .unwrap();
        assert_eq!(v, VmValue::Unit);
        assert_eq!(report.fuel_used, expected);
        assert_eq!(report.host_calls, 1);
    }

    #[test]
    fn comparisons_on_bytes() {
        let mut builder = ModuleBuilder::new();
        let a = builder.constant(b"apple".to_vec());
        let b = builder.constant(b"banana".to_vec());
        let m = builder
            .function(func(
                "cmp",
                0,
                0,
                vec![Instr::PushConst(a), Instr::PushConst(b), Instr::Lt, Instr::Ret],
            ))
            .build();
        assert_eq!(run(&m, "cmp", vec![]).unwrap(), VmValue::Bool(true));
    }
}
