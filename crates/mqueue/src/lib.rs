//! Replicated message queues with the paper's documented failures.
//!
//! Two broker architectures from the study:
//!
//! - **Coordinator mode** ([`broker`]): ActiveMQ-like master/replica brokers
//!   tracking mastership through an embedded coordination ensemble —
//!   reproducing the Figure 6 hang (AMQ-7064), the Listing 2 double dequeue
//!   (AMQ-6978), and the rabbitmq #714 demotion deadlock.
//! - **Autocluster mode** ([`autocluster`]): RabbitMQ-like peer discovery —
//!   reproducing the rabbitmq #1455 permanent cluster split (the paper's
//!   flagship "lasting damage" example, Finding 3).

pub mod autocluster;
pub mod broker;
pub mod cluster;
pub mod explorer;
pub mod load;
pub mod scenarios;

pub use autocluster::{AcFlaws, AcMsg, PeerBroker};
pub use broker::{Broker, BrokerFlaws, MqMsg, QOp};
pub use cluster::{AcClient, AcCluster, AcProc, MqClient, MqCluster, MqProc, MqResult};
