//! KVM-like hypervisor substrate and machine run loop.
//!
//! This crate implements the software side of nested virtualization the
//! paper builds on (its § 2): the [`Machine`] run loop executes a
//! [`GuestProgram`] at L0 (native), L1 (single-level) or L2 (nested), and
//! the nested path reproduces Algorithm 1 literally — trap into L0, VMCS
//! transformation, injection into vmcs12, reflection into L1's handler
//! (whose own privileged operations trap again), and the emulated
//! VMRESUME back. The *mechanics* of moving between levels are pluggable
//! through [`Reflector`]; this crate ships the single-hardware-thread
//! [`BaselineReflector`], and the `svt-core` crate adds the paper's HW-SVt
//! and SW-SVt engines.
//!
//! # Examples
//!
//! ```
//! use svt_hv::{Machine, MachineConfig, Level, OpLoop, GuestOp};
//! use svt_sim::SimDuration;
//!
//! // One cpuid in a nested VM costs ~10.4us on the baseline (Table 1).
//! let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
//! let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
//! let start = m.clock.now();
//! m.run(&mut prog)?;
//! let elapsed = m.clock.now().since(start);
//! assert!((elapsed.as_us() - 10.4).abs() < 0.3, "{elapsed}");
//! # Ok::<(), svt_hv::MachineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod machine;
mod program;
mod reflector;
mod state;
mod vcpu;

pub use device::{Completion, DeviceModel, DeviceOutcome};
pub use machine::{cpuid_value, Machine, MachineError, RunReport, VmcsId};
pub use program::{ComputeOnly, GuestCtx, GuestOp, GuestProgram, OpLoop};
pub use reflector::{BaselineReflector, Reflector};
pub use state::{L0State, L1State, Level, MachineConfig, MachineEvent, VcpuState};
pub use vcpu::{Vcpu, VMCS_REGION_STRIDE};
