//! Wall-clock benchmark of the Multicoordinated Paxos stack with a
//! per-layer cost ledger. See `NOTES.md` for the workloads and metrics.

pub mod bench;
pub mod calib;
pub mod oracle;
pub mod report;
pub mod sim;
pub mod span;
pub mod sysinfo;
pub mod tcp;
pub mod traced;
