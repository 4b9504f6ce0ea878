//! Object identifiers, field schemas and object types.
//!
//! §3 of the paper: "object types hold a set of functions... \[and\] a set of
//! fields, which are either a single opaque piece of data or \[a\] collection
//! of data entries indexed by a key. Objects can then be instantiated from
//! these types."

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use lambda_vm::bytecode::HostFn;
use lambda_vm::{validate_module, Instr, Module, NativeRegistry, ValidateError};

/// Identifies an object. Arbitrary bytes; application-meaningful ids like
/// `user/alice` are encouraged because microshard pins use them directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub Vec<u8>);

impl ObjectId {
    /// Construct from anything byte-like.
    pub fn new(id: impl Into<Vec<u8>>) -> ObjectId {
        ObjectId(id.into())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", String::from_utf8_lossy(&self.0))
    }
}

impl From<&str> for ObjectId {
    fn from(s: &str) -> Self {
        ObjectId(s.as_bytes().to_vec())
    }
}

impl From<Vec<u8>> for ObjectId {
    fn from(v: Vec<u8>) -> Self {
        ObjectId(v)
    }
}

/// Kinds of fields an object type declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldKind {
    /// One opaque value.
    Scalar,
    /// An append-ordered collection of entries.
    Collection,
}

/// A declared field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldDef {
    /// Field name (used as part of the key layout).
    pub name: String,
    /// Scalar or collection.
    pub kind: FieldKind,
}

/// Where a method's code lives.
#[derive(Clone)]
pub enum MethodSet {
    /// Untrusted bytecode executed by the metered VM (the paper's primary
    /// path — WebAssembly in the original).
    Bytecode(Arc<Module>),
    /// Trusted native Rust (the paper's "containers/VMs on the same node"
    /// alternative, §4.2).
    Native(Arc<NativeRegistry>),
}

impl fmt::Debug for MethodSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodSet::Bytecode(m) => {
                write!(f, "Bytecode({} functions)", m.functions.len())
            }
            MethodSet::Native(r) => write!(f, "Native({} methods)", r.len()),
        }
    }
}

fn may_nest(instr: &Instr) -> bool {
    matches!(instr, Instr::Call(_) | Instr::Host(HostFn::Invoke | HostFn::InvokeMany))
}

/// Metadata about one method, uniform across bytecode and native.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodMeta {
    /// May not mutate; can run on backups and concurrently.
    pub read_only: bool,
    /// Result depends only on object state + args; cacheable.
    pub deterministic: bool,
    /// Externally callable.
    pub public: bool,
    /// May invoke other objects — and so park its thread at the nested
    /// call. Conservative: any bytecode method containing a nested-invoke
    /// host call or a local call, and any mutating native method.
    pub nests: bool,
}

/// A deployable object type: schema + methods.
#[derive(Debug, Clone)]
pub struct ObjectType {
    /// Type name, unique within a deployment.
    pub name: String,
    /// Declared fields.
    pub fields: Vec<FieldDef>,
    /// The method implementations.
    pub methods: MethodSet,
}

impl ObjectType {
    /// Create a bytecode-backed type, validating the module.
    ///
    /// # Errors
    /// Propagates [`ValidateError`] from module validation.
    pub fn from_module(
        name: impl Into<String>,
        fields: Vec<FieldDef>,
        module: Module,
    ) -> std::result::Result<ObjectType, ValidateError> {
        validate_module(&module)?;
        Ok(ObjectType { name: name.into(), fields, methods: MethodSet::Bytecode(Arc::new(module)) })
    }

    /// Create a native-backed type.
    pub fn from_native(
        name: impl Into<String>,
        fields: Vec<FieldDef>,
        registry: NativeRegistry,
    ) -> ObjectType {
        ObjectType { name: name.into(), fields, methods: MethodSet::Native(Arc::new(registry)) }
    }

    /// Look up a field definition.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Metadata for `method`, if it exists.
    pub fn method_meta(&self, method: &str) -> Option<MethodMeta> {
        match &self.methods {
            MethodSet::Bytecode(module) => module.function(method).map(|(_, f)| MethodMeta {
                read_only: f.read_only,
                deterministic: f.deterministic,
                public: f.public,
                // Nested invokes are mutating host calls: a validated
                // read-only method has none, so reads skip the scan.
                nests: !f.read_only && f.code.iter().any(may_nest),
            }),
            MethodSet::Native(reg) => reg.method(method).map(|m| MethodMeta {
                read_only: m.read_only,
                deterministic: m.deterministic,
                public: m.public,
                nests: !m.read_only,
            }),
        }
    }

    /// Names of all methods.
    pub fn method_names(&self) -> Vec<String> {
        match &self.methods {
            MethodSet::Bytecode(module) => {
                module.functions.iter().map(|f| f.name.clone()).collect()
            }
            MethodSet::Native(reg) => reg.method_names().into_iter().map(str::to_string).collect(),
        }
    }
}

/// A registry of deployed object types.
#[derive(Debug, Default)]
pub struct TypeRegistry {
    types: parking_lot::RwLock<BTreeMap<String, Arc<ObjectType>>>,
}

impl TypeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TypeRegistry::default()
    }

    /// Deploy (or replace) a type.
    pub fn register(&self, ty: ObjectType) {
        self.types.write().insert(ty.name.clone(), Arc::new(ty));
    }

    /// Look up a type.
    pub fn get(&self, name: &str) -> Option<Arc<ObjectType>> {
        self.types.read().get(name).cloned()
    }

    /// Names of all deployed types.
    pub fn type_names(&self) -> Vec<String> {
        self.types.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_vm::assemble;

    fn user_fields() -> Vec<FieldDef> {
        vec![
            FieldDef { name: "name".into(), kind: FieldKind::Scalar },
            FieldDef { name: "timeline".into(), kind: FieldKind::Collection },
        ]
    }

    #[test]
    fn object_id_display_and_conversions() {
        let id = ObjectId::from("user/alice");
        assert_eq!(id.to_string(), "user/alice");
        assert_eq!(id.as_bytes(), b"user/alice");
        assert_eq!(ObjectId::new(b"x".to_vec()), ObjectId(b"x".to_vec()));
    }

    #[test]
    fn from_module_validates() {
        let module =
            assemble("fn get_name(0) ro det {\n push.s \"name\"\n host.get\n ret\n}").unwrap();
        let ty = ObjectType::from_module("User", user_fields(), module).unwrap();
        let meta = ty.method_meta("get_name").unwrap();
        assert!(meta.read_only && meta.deterministic && meta.public);
        assert!(ty.method_meta("missing").is_none());
        assert_eq!(ty.method_names(), vec!["get_name".to_string()]);
    }

    #[test]
    fn from_module_rejects_invalid() {
        // Hand-built module bypassing the assembler's validation.
        let mut module = Module::default();
        module.functions.push(lambda_vm::FunctionDef {
            name: "bad".into(),
            arity: 0,
            locals: 0,
            read_only: false,
            deterministic: false,
            public: true,
            code: vec![lambda_vm::Instr::Pop],
        });
        assert!(ObjectType::from_module("Broken", vec![], module).is_err());
    }

    #[test]
    fn native_type_metadata() {
        let mut reg = NativeRegistry::new();
        reg.register("touch", false, false, true, |_| Ok(lambda_vm::VmValue::Unit));
        reg.register("peek", true, true, false, |_| Ok(lambda_vm::VmValue::Unit));
        let ty = ObjectType::from_native("Thing", vec![], reg);
        assert_eq!(
            ty.method_meta("peek"),
            Some(MethodMeta { read_only: true, deterministic: true, public: false, nests: false })
        );
        assert_eq!(ty.method_names(), vec!["peek".to_string(), "touch".to_string()]);
    }

    #[test]
    fn field_lookup() {
        let module = assemble("fn f(0) {\n unit\n ret\n}").unwrap();
        let ty = ObjectType::from_module("User", user_fields(), module).unwrap();
        assert_eq!(ty.field("timeline").unwrap().kind, FieldKind::Collection);
        assert_eq!(ty.field("name").unwrap().kind, FieldKind::Scalar);
        assert!(ty.field("nope").is_none());
    }

    #[test]
    fn registry_round_trip() {
        let reg = TypeRegistry::new();
        assert!(reg.get("User").is_none());
        let module = assemble("fn f(0) {\n unit\n ret\n}").unwrap();
        reg.register(ObjectType::from_module("User", vec![], module).unwrap());
        assert!(reg.get("User").is_some());
        assert_eq!(reg.type_names(), vec!["User".to_string()]);
    }
}
