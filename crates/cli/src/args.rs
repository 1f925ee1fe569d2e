//! The options several `shm` subcommands share, read through
//! [`shm_bench::cli::Args`]: the trace to simulate (`-b`, `--trace`,
//! `--custom`, `--events`, `--seed`), the design (`-d`) and the placement
//! policies (`--pools`).

use std::fs::File;
use std::io::BufReader;

use gpu_mem_sim::{read_trace, ContextTrace, DesignPoint};
use shm_bench::cli::Args;
use shm_pool::PlacementPolicy;
use shm_workloads::BenchmarkProfile;

/// Builds a one-off profile from `--custom ro=0.8,stream=0.9,write=0.1,...`.
fn custom_profile(spec: &str) -> Result<BenchmarkProfile, String> {
    let mut p = BenchmarkProfile {
        name: "custom",
        bandwidth_util: 0.5,
        readonly_frac: 0.5,
        streaming_frac: 0.5,
        write_frac: 0.2,
        l2_locality: 0.3,
        uses_texture: false,
        kernels: 1,
        reuses_input: false,
        unmarked_readonly_frac: 0.0,
        ..BenchmarkProfile::suite().remove(0)
    };
    for kv in spec.split(',').filter(|s| !s.is_empty()) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad --custom entry {kv:?}, want key=value"))?;
        let fval = || -> Result<f64, String> {
            v.parse().map_err(|_| format!("bad number {v:?} for {k}"))
        };
        match k {
            "ro" | "readonly" => p.readonly_frac = fval()?,
            "stream" | "streaming" => p.streaming_frac = fval()?,
            "write" | "writes" => p.write_frac = fval()?,
            "util" | "bandwidth" => p.bandwidth_util = fval()?,
            "locality" => p.l2_locality = fval()?,
            "kernels" => p.kernels = v.parse().map_err(|_| format!("bad count {v:?}"))?,
            "texture" => p.uses_texture = v == "1" || v == "true",
            "reuse" => p.reuses_input = v == "1" || v == "true",
            "footprint_mb" => {
                p.footprint_bytes = v.parse::<u64>().map_err(|_| format!("bad size {v:?}"))? << 20
            }
            other => return Err(format!("unknown --custom key {other:?}")),
        }
    }
    if p.readonly_frac + p.write_frac > 1.0 {
        return Err(format!(
            "ro ({}) + write ({}) exceeds 1.0: writes never target read-only data",
            p.readonly_frac, p.write_frac
        ));
    }
    Ok(p)
}

/// The trace `--trace FILE`, `--custom SPEC` or `-b BENCH` names, with
/// `--events N` and `--seed S` applied to a generated one.
pub fn load_trace(args: &Args) -> Result<ContextTrace, String> {
    if let Some(path) = args.get("trace") {
        let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        return read_trace(BufReader::new(f)).map_err(|e| format!("parse {path}: {e}"));
    }
    let mut profile = match args.get("custom") {
        Some(spec) => custom_profile(spec)?,
        None => {
            let bench = args
                .get("b")
                .or_else(|| args.get("benchmark"))
                .ok_or("need --benchmark/-b or --trace")?;
            BenchmarkProfile::by_name(bench)
                .ok_or_else(|| format!("unknown benchmark {bench:?}"))?
        }
    };
    if let Some(n) = args.get_u64("events")? {
        profile.events_per_kernel = n;
    }
    Ok(profile.generate(seed(args)?))
}

/// `--seed S` for a generated trace.
pub fn seed(args: &Args) -> Result<u64, String> {
    Ok(args.get_u64("seed")?.unwrap_or(0xBEEF))
}

/// `-d`/`--design NAME`.
pub fn design(args: &Args) -> Result<DesignPoint, String> {
    let name = args
        .get("d")
        .or_else(|| args.get("design"))
        .ok_or("need --design/-d")?;
    DesignPoint::from_name(name).ok_or_else(|| format!("unknown design {name:?}"))
}

/// `--pools <policy|all>` → the placement policies to run under; `None`
/// when the flag is absent (single-pool default).
pub fn pools(args: &Args) -> Result<Option<Vec<PlacementPolicy>>, String> {
    let Some(raw) = args.get("pools") else {
        return Ok(None);
    };
    if raw == "all" {
        return Ok(Some(PlacementPolicy::ALL.to_vec()));
    }
    PlacementPolicy::parse(raw)
        .map(|p| Some(vec![p]))
        .ok_or_else(|| {
            format!("unknown --pools {raw:?} (want gpu-only|static-split|hot-page-migrate|all)")
        })
}

/// How `shm` reads its command line through the shared parser.
#[cfg(test)]
mod tests {
    use shm_bench::cli::{ArgError, Args};

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_long_and_short_options() {
        let a = Args::parse(&argv(&["--benchmark", "lbm", "-d", "SHM"])).expect("parse");
        assert_eq!(a.get("benchmark"), Some("lbm"));
        assert_eq!(a.get("d"), Some("SHM"));
    }

    #[test]
    fn parses_flags() {
        let a = Args::parse(&argv(&["--csv", "-b", "atax"])).expect("parse");
        assert!(a.flag("csv"));
        assert!(!a.flag("resume"));
        assert_eq!(a.get("b"), Some("atax"));
    }

    #[test]
    fn numeric_options() {
        let a = Args::parse(&argv(&["--events", "5000"])).expect("parse");
        assert_eq!(a.get_u64("events").expect("number"), Some(5000));
        assert_eq!(a.get_u64("seed").expect("absent ok"), None);
        let a = Args::parse(&argv(&["--events", "xyz"])).expect("parse");
        assert!(a.get_u64("events").is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(matches!(
            Args::parse(&argv(&["--benchmark"])),
            Err(ArgError::MissingValue(_))
        ));
    }

    #[test]
    fn positional_tokens_are_rejected() {
        assert!(matches!(
            Args::parse(&argv(&["stray"])),
            Err(ArgError::Unexpected(_))
        ));
    }
}
