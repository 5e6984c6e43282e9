//! Untraced benchmark run: end-to-end metrics, with neither the counting
//! allocator nor the host profiler.

fn main() -> std::process::ExitCode {
    simbench::main_with(false)
}
