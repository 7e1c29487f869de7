//! Host fingerprint and the default-configuration environment.

/// Clear every `LTTF_*` variable except `LTTF_QUIET`, which the benchmark
/// sets so the trainer's per-epoch progress lines stay off stderr.
/// Returns the raw `LTTF_*` environment the process started with.
///
/// Must run before any thread starts and before the library first reads
/// its (process-cached) settings.
pub fn default_config_env() -> Vec<(String, String)> {
    let mut raw: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .filter(|(k, _)| k.starts_with("LTTF_"))
        .collect();
    raw.sort();
    for (k, _) in &raw {
        if k != "LTTF_QUIET" {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("LTTF_QUIET", "1");
    raw
}

/// The processor's brand string, read with CPUID (no file access).
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID exists on every x86-64 processor; leaves 0x8000_0002
    // to 0x8000_0004 are read only when leaf 0x8000_0000 reports them.
    #[allow(unused_unsafe)]
    let model = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".to_string();
        }
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for word in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        bytes
    };
    String::from_utf8_lossy(&model)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// What a result must match before it is compared with another.
pub struct Fingerprint {
    pub cores: usize,
    pub cpu: String,
    pub backend: &'static str,
    pub threads: usize,
    pub lttf_env: Vec<(String, String)>,
}

impl Fingerprint {
    pub fn take(lttf_env: Vec<(String, String)>) -> Self {
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            backend: lttf::tensor::simd::backend_name(),
            threads: lttf::parallel::num_threads(),
            lttf_env,
        }
    }

    /// One string naming the host; results compare only when it matches.
    pub fn key(&self) -> String {
        format!(
            "cores={};cpu={};backend={};threads={}",
            self.cores, self.cpu, self.backend, self.threads
        )
    }
}
