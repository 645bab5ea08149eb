//! Multi-tenant job descriptions.
//!
//! A [`JobSpec`] names one tenant of a shared fabric: when it arrives,
//! which QoS class its collective traffic gets, and which collective
//! engine / server provisioning its communicator is built with. The
//! workload engine (crate `diomp-apps`) replays a set of overlapping
//! `JobSpec`s against one contention-armed simulator; each job owns its
//! communicator — built via [`JobSpec::comm_opts`] — so its chunk
//! transfers are charged to a flow with that class's weight and
//! concurrent jobs fair-share every wire they collide on.

use diomp_sim::{Dur, QosClass};
use diomp_xccl::{CollEngine, CommOpts, ServerSpec};

/// One tenant job of a shared-fabric workload.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name; keys the per-job latency/bandwidth rows
    /// in the benchmark output.
    pub name: String,
    /// QoS class of the job's collective traffic (weighted fair share
    /// on every contended wire).
    pub qos: QosClass,
    /// Virtual-time arrival offset from the start of the workload.
    pub arrival: Dur,
    /// Collective engine the job's communicator runs.
    pub engine: CollEngine,
    /// In-network reduction servers carved from the job's communicator
    /// (disabled by default; see `diomp_xccl::ServerSpec`). A job with
    /// servers gets a second flow for its server fan-back traffic, so
    /// per-job fabric accounting still attributes every byte.
    pub servers: ServerSpec,
    /// Elastic-recovery retry budget: how many times a collective the
    /// job lost to a member death may be re-run on the shrunk
    /// communicator before the job is declared failed. Each retry backs
    /// off exponentially in *virtual* time (base backoff doubling per
    /// attempt), modelling the reconnection storms a real rebuild rides
    /// out. 0 (the default) disables job-level retry: the first
    /// detected death fails the job.
    pub max_retries: u32,
}

impl JobSpec {
    /// A job arriving at `arrival` with `qos`-class traffic, running
    /// the default engine with no reduction servers.
    pub fn new(name: impl Into<String>, qos: QosClass, arrival: Dur) -> Self {
        JobSpec {
            name: name.into(),
            qos,
            arrival,
            engine: CollEngine::default(),
            servers: ServerSpec::default(),
            max_retries: 0,
        }
    }

    /// Select the job's collective engine.
    pub fn with_engine(mut self, e: CollEngine) -> Self {
        self.engine = e;
        self
    }

    /// Provision in-network reduction servers on the job's communicator.
    pub fn with_servers(mut self, s: ServerSpec) -> Self {
        self.servers = s;
        self
    }

    /// Set the elastic-recovery retry budget (see
    /// [`JobSpec::max_retries`]).
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Communicator options for this job: its QoS class, engine and
    /// server provisioning. Pass to `XcclComm::init` so the job's
    /// collectives are charged to a flow of the right weight.
    pub fn comm_opts(&self) -> CommOpts {
        CommOpts { qos: self.qos, engine: self.engine, servers: self.servers }
    }
}
