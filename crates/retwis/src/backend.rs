//! Backends: how each architecture serves the ReTwis operations.

use crossbeam::channel;
use lambda_net::NodeId;
use lambda_objects::{InvokeError, ObjectId};
use lambda_store::{StoreClient, StoreRequest};
use lambda_vm::VmValue;

use crate::app::{account_id, user_fields, user_module, USER_TYPE};

/// The operations a ReTwis deployment must serve, independent of
/// architecture.
pub trait RetwisBackend: Send + Sync {
    /// Upload the `User` type.
    ///
    /// # Errors
    /// Deployment failures.
    fn deploy(&self) -> Result<(), InvokeError>;

    /// Create account `i`.
    ///
    /// # Errors
    /// Creation failures.
    fn create_account(&self, i: usize, name: &str) -> Result<(), InvokeError>;

    /// `follower` starts following `target` (the Follow workload of §5).
    ///
    /// # Errors
    /// Invocation failures.
    fn follow(&self, target: usize, follower: usize) -> Result<(), InvokeError>;

    /// Account `author` creates a post (the Post workload: stores the post
    /// and updates all follower timelines).
    ///
    /// # Errors
    /// Invocation failures.
    fn post(&self, author: usize, msg: &str) -> Result<(), InvokeError>;

    /// Read `user`'s timeline (read-only), returning the number of posts.
    ///
    /// # Errors
    /// Invocation failures.
    fn get_timeline(&self, user: usize, limit: i64) -> Result<usize, InvokeError>;

    /// Human-readable architecture label.
    fn label(&self) -> &'static str;
}

/// Aggregated architecture: clients invoke methods directly on the storage
/// nodes.
#[derive(Debug, Clone)]
pub struct AggregatedBackend {
    /// The routing client.
    pub client: StoreClient,
}

impl RetwisBackend for AggregatedBackend {
    fn deploy(&self) -> Result<(), InvokeError> {
        self.client.deploy_type(USER_TYPE, user_fields(), &user_module())
    }

    fn create_account(&self, i: usize, name: &str) -> Result<(), InvokeError> {
        let id = ObjectId::new(account_id(i));
        self.client.create_object(USER_TYPE, &id, &[("name", name.as_bytes())])
    }

    fn follow(&self, target: usize, follower: usize) -> Result<(), InvokeError> {
        let id = ObjectId::new(account_id(target));
        self.client
            .invoke(&id, "follow", vec![VmValue::Bytes(account_id(follower))], false)
            .map(|_| ())
    }

    fn post(&self, author: usize, msg: &str) -> Result<(), InvokeError> {
        let id = ObjectId::new(account_id(author));
        self.client.invoke(&id, "create_post", vec![VmValue::str(msg)], false).map(|_| ())
    }

    fn get_timeline(&self, user: usize, limit: i64) -> Result<usize, InvokeError> {
        let id = ObjectId::new(account_id(user));
        let v = self.client.invoke(&id, "get_timeline", vec![VmValue::Int(limit)], true)?;
        Ok(v.as_list().map(<[VmValue]>::len).unwrap_or(0))
    }

    fn label(&self) -> &'static str {
        "aggregated"
    }
}

/// A backend that sends every request to one fixed endpoint — the compute
/// node of the disaggregated baseline, or the serverless gateway.
#[derive(Debug, Clone)]
pub struct EndpointBackend {
    /// A client used purely as an RPC conduit.
    pub client: StoreClient,
    /// The executing endpoint.
    pub endpoint: NodeId,
    /// Label reported in results.
    pub name: &'static str,
}

impl EndpointBackend {
    /// Invoke `method` on account `i` at the endpoint: `invoke_async_at`
    /// plus one join, so both sides of a comparison take one client path.
    fn invoke(
        &self,
        i: usize,
        method: &str,
        args: Vec<VmValue>,
        read_only: bool,
    ) -> Result<VmValue, InvokeError> {
        let (tx, rx) = channel::bounded(1);
        let id = ObjectId::new(account_id(i));
        let done = Box::new(move |outcome| drop(tx.send(outcome)));
        self.client.invoke_async_at(self.endpoint, &id, method, args, read_only, done);
        rx.recv().unwrap_or_else(|_| Err(InvokeError::Nested("client shut down".into())))
    }
}

impl RetwisBackend for EndpointBackend {
    fn deploy(&self) -> Result<(), InvokeError> {
        let req = StoreRequest::DeployType {
            name: USER_TYPE.into(),
            fields: user_fields(),
            module: user_module(),
        };
        self.client.raw(self.endpoint, &req)?.into_ok()
    }

    fn create_account(&self, i: usize, name: &str) -> Result<(), InvokeError> {
        let req = StoreRequest::CreateObject {
            type_name: USER_TYPE.into(),
            object: account_id(i),
            fields: vec![("name".into(), name.as_bytes().to_vec())],
        };
        self.client.raw(self.endpoint, &req)?.into_ok()
    }

    fn follow(&self, target: usize, follower: usize) -> Result<(), InvokeError> {
        self.invoke(target, "follow", vec![VmValue::Bytes(account_id(follower))], false).map(|_| ())
    }

    fn post(&self, author: usize, msg: &str) -> Result<(), InvokeError> {
        self.invoke(author, "create_post", vec![VmValue::str(msg)], false).map(|_| ())
    }

    fn get_timeline(&self, user: usize, limit: i64) -> Result<usize, InvokeError> {
        let v = self.invoke(user, "get_timeline", vec![VmValue::Int(limit)], true)?;
        Ok(v.as_list().map(<[VmValue]>::len).unwrap_or(0))
    }

    fn label(&self) -> &'static str {
        self.name
    }
}
