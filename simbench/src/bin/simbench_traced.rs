//! Traced benchmark run: installs the counting allocator and arms the host
//! profiler, and reports the per-layer metrics.

#[global_allocator]
static ALLOC: svt_obs::CountingAlloc = svt_obs::CountingAlloc;

fn main() -> std::process::ExitCode {
    simbench::main_with(true)
}
