//! Crash guard for the benchmark binaries: persist the flight recorder
//! on the way down.
//!
//! A campaign that panics or is interrupted with Ctrl-C should leave a
//! post-mortem behind, not just a half-scrolled table. [`install`] arms
//! two exits:
//!
//! * a **panic hook** that, after the standard panic report, writes the
//!   process's most recent flight-recorder dump (see
//!   [`svt_obs::latest_global_dump`]) — or a minimal crash-context
//!   document when no machine tripped the recorder — to the `--dump`
//!   path, or `<bin>-crash-flight.json` next to the working directory
//!   when none was given;
//! * a **SIGINT handler** that writes the same dump and exits with
//!   status 130 (the conventional `128 + SIGINT`), so a Ctrl-C'd
//!   `--checkpoint-dir` campaign leaves both its cell journal *and* a
//!   flight dump for the resume to inspect.
//!
//! Both paths write atomically (temp + rename): an operator can never
//! find a torn dump, only the previous one or the complete new one.
//! The guard deliberately stays dependency-free — the signal binding is
//! a direct `extern "C"` declaration, not a crate.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::BenchCli;

/// Where the crash dump goes; set once by [`install`].
static CRASH_DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Name of the installing binary, for the crash-context document.
static BIN_NAME: Mutex<Option<String>> = Mutex::new(None);

/// Guards double-installation (tests, or a bin calling install twice).
static INSTALLED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn _exit(status: i32) -> !;
}

/// Arms the panic hook and SIGINT handler for `bin`. Call once, right
/// after [`BenchCli::parse`]. The dump destination is the `--dump` path
/// when one was given, else `<bin>-crash-flight.json`.
pub fn install(cli: &BenchCli, bin: &str) {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let path = cli
        .dump
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("{bin}-crash-flight.json")));
    *CRASH_DUMP_PATH.lock().unwrap_or_else(|e| e.into_inner()) = Some(path);
    *BIN_NAME.lock().unwrap_or_else(|e| e.into_inner()) = Some(bin.to_string());

    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        let what = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        write_crash_dump("panic", &what);
    }));

    // SAFETY: installing a handler for SIGINT; the handler itself is
    // `extern "C"` with the required `fn(i32)` shape. The work it does
    // (allocating, locking, file I/O) is not strictly async-signal-safe,
    // but the only lock it can contend is the dump slot above, which
    // main-thread code touches only during `install`, and the process
    // exits immediately afterwards either way.
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

extern "C" fn on_sigint(_sig: i32) {
    write_crash_dump("sigint", "interrupted (Ctrl-C)");
    // 128 + SIGINT, the shell convention for death-by-signal.
    unsafe { _exit(130) }
}

/// Writes the most recent flight dump (or a minimal crash-context
/// document) to the configured path, atomically. Never panics — a guard
/// that panics while the process dies would mask the original failure.
fn write_crash_dump(reason: &'static str, detail: &str) {
    let Some(path) = CRASH_DUMP_PATH
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
    else {
        return;
    };
    let bin = BIN_NAME
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_default();
    let text = match svt_obs::latest_global_dump() {
        Some(dump) => dump,
        None => svt_obs::Json::obj([
            ("kind", svt_obs::Json::from("svt-crash-context")),
            ("bin", svt_obs::Json::from(bin)),
            ("reason", svt_obs::Json::from(reason)),
            ("detail", svt_obs::Json::from(detail.to_string())),
            (
                "note",
                svt_obs::Json::from(
                    "no machine tripped the flight recorder before the crash; \
                     re-run with --dump-on-exit or a telemetry cell for tails",
                ),
            ),
        ])
        .pretty(),
    };
    match svt_sim::snapshot::atomic_write(&path, text.as_bytes()) {
        Ok(()) => eprintln!("crash guard: flight dump written to {}", path.display()),
        Err(e) => eprintln!(
            "crash guard: flight dump write to {} failed: {e}",
            path.display()
        ),
    }
}
