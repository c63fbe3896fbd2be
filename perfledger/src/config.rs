//! Configuration pinning and the host fingerprint.
//!
//! Every knob the engine would otherwise read from a `MAXSON_*` variable is
//! set through a public setter, so a stray variable in the caller's
//! environment cannot change what is measured. Variables the benchmark has
//! no setter for make it refuse to run.

use std::path::Path;
use std::sync::Arc;

use maxson_engine::session::{JsonParserKind, Session};
use maxson_json::kernels::{self, Kernel};
use maxson_storage::file::MmapMode;

/// `MAXSON_*` variables the benchmark overrides through public setters.
const PINNED: [&str; 9] = [
    "MAXSON_PARSER",
    "MAXSON_THREADS",
    "MAXSON_SHARED_PARSE",
    "MAXSON_SIMD",
    "MAXSON_RESULT_CACHE",
    "MAXSON_RESULT_CACHE_MB",
    "MAXSON_TRACE",
    "MAXSON_QUERY_LOG",
    "MAXSON_SLOW_MS",
];

/// The `MAXSON_*` variables set in `vars` that no setter can pin (for
/// example `MAXSON_MMAP` or `MAXSON_META_CACHE_BYTES`).
pub fn unpinnable<I: IntoIterator<Item = (String, String)>>(vars: I) -> Vec<String> {
    let mut out: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MAXSON_") && !PINNED.contains(&k.as_str()))
        .collect();
    out.sort();
    out
}

/// Engine worker threads: the host's available parallelism.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How one session is configured.
#[derive(Debug, Clone, Copy)]
pub struct SessionPins {
    /// Parser for JSONPaths the Maxson cache does not answer.
    pub parser: JsonParserKind,
    /// Engine worker threads.
    pub threads: usize,
    /// Reuse-cache budget in MiB, or `None` for off.
    pub reuse_mb: Option<u64>,
}

/// Open a session over `root` with every knob pinned.
pub fn pinned_session(root: &Path, pins: SessionPins) -> Result<Session, String> {
    let mut session = Session::open(root).map_err(|e| format!("open {}: {e}", root.display()))?;
    session.set_parser(pins.parser);
    session.set_threads(Some(pins.threads));
    session.set_shared_parse(Some(true));
    session.set_prefilter_enabled(false);
    session.set_result_cache(pins.reuse_mb);
    session.set_simd(kernels::best_available());
    session.set_trace_path(None);
    session
        .set_query_log(None)
        .map_err(|e| format!("query log: {e}"))?;
    session.set_slow_threshold(std::time::Duration::from_secs(3600));
    session.set_metrics_registry(Arc::clone(maxson_engine::Registry::global()));
    Ok(session)
}

/// What every result is recorded with.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Active structural-kernel tier.
    pub kernel: Kernel,
    /// Norc body acquisition mode.
    pub mmap: MmapMode,
    /// Norc footer-cache budget in bytes.
    pub footer_cache_bytes: u64,
}

impl Fingerprint {
    /// The fingerprint of this process, read after [`pinned_session`] has
    /// pinned the kernel tier.
    pub fn current(session: &Session) -> Fingerprint {
        Fingerprint {
            parallelism: host_threads(),
            kernel: kernels::active(),
            mmap: MmapMode::from_env(),
            footer_cache_bytes: session.catalog().meta_cache().budget_bytes(),
        }
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        format!(
            "host: available_parallelism={} kernel={} mmap={} footer_cache_bytes={}",
            self.parallelism,
            self.kernel.name(),
            match self.mmap {
                MmapMode::Enabled => "on",
                MmapMode::Disabled => "off",
            },
            self.footer_cache_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpinnable_variables_are_reported() {
        let vars = [
            ("MAXSON_MMAP".to_string(), "0".to_string()),
            ("MAXSON_THREADS".to_string(), "3".to_string()),
            ("MAXSON_META_CACHE_BYTES".to_string(), "1".to_string()),
            ("PATH".to_string(), "/bin".to_string()),
        ];
        assert_eq!(
            unpinnable(vars),
            vec![
                "MAXSON_META_CACHE_BYTES".to_string(),
                "MAXSON_MMAP".to_string()
            ]
        );
    }
}
