//! Roofline microbenchmarks in the style of Choi et al.'s energy-roofline
//! ubenchmarks: synthetic workloads with controlled operational intensity,
//! expressed directly as machine counters (the machine model consumes
//! counters, so a microbenchmark is exactly its counter signature).

use polyufc_machine::KernelCounters;

/// A flop-only microbenchmark (peak-compute probe): no memory traffic.
pub fn flop_microbench(flops: u64, line_bytes: u64) -> KernelCounters {
    KernelCounters {
        name: format!("ubench_flops_{flops}"),
        flops,
        accesses: 0,
        hits: vec![0; 3],
        misses: vec![0; 3],
        dram_fills: 0,
        dram_writebacks: 0,
        line_bytes,
        parallel: true,
    }
}

/// A pure streaming microbenchmark (peak-bandwidth probe): every access
/// misses all levels; no arithmetic.
pub fn stream_microbench(bytes: u64, line_bytes: u64) -> KernelCounters {
    let lines = bytes / line_bytes;
    KernelCounters {
        name: format!("ubench_stream_{bytes}"),
        flops: 0,
        accesses: bytes / 8,
        hits: vec![0; 3],
        misses: vec![lines; 3],
        dram_fills: lines,
        dram_writebacks: 0,
        line_bytes,
        parallel: true,
    }
}

/// A dependent pointer chase (DRAM latency probe): serialized misses on a
/// single thread — the paper's miss-penalty microbenchmark.
pub fn pointer_chase(n_misses: u64, line_bytes: u64) -> KernelCounters {
    KernelCounters {
        name: format!("ubench_chase_{n_misses}"),
        flops: 0,
        accesses: n_misses,
        hits: vec![0; 3],
        misses: vec![n_misses; 3],
        dram_fills: n_misses,
        dram_writebacks: 0,
        line_bytes,
        parallel: false,
    }
}

/// An LLC-resident pointer chase (LLC hit latency probe): every access
/// misses the private levels and hits the LLC.
pub fn llc_chase(n_hits: u64, line_bytes: u64) -> KernelCounters {
    KernelCounters {
        name: format!("ubench_llc_chase_{n_hits}"),
        flops: 0,
        accesses: n_hits,
        hits: vec![0, 0, n_hits],
        misses: vec![n_hits, n_hits, 0],
        dram_fills: 0,
        dram_writebacks: 0,
        line_bytes,
        parallel: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_machine::{ExecutionEngine, Platform};

    #[test]
    fn flop_bench_hits_peak() {
        let plat = Platform::broadwell();
        let peak = plat.peak_flops(plat.cores);
        let eng = ExecutionEngine::noiseless(plat);
        let c = flop_microbench(1_000_000_000, 64);
        let r = eng.run_kernel(&c, 2.0);
        let achieved = c.flops as f64 / r.time_s;
        assert!(
            (achieved / peak - 1.0).abs() < 0.05,
            "achieved {achieved} vs peak {peak}"
        );
    }

    #[test]
    fn stream_bench_hits_bandwidth() {
        let plat = Platform::broadwell();
        let eng = ExecutionEngine::noiseless(plat.clone());
        let c = stream_microbench(1 << 30, 64);
        for f in [1.2, 2.0, 2.8] {
            let r = eng.run_kernel(&c, f);
            let bw = (1u64 << 30) as f64 / r.time_s;
            let expect = plat.dram_bandwidth(f);
            assert!(
                (bw / expect - 1.0).abs() < 0.1,
                "bw {bw} vs {expect} at {f}"
            );
        }
    }

    #[test]
    fn pointer_chase_reveals_latency_shape() {
        let plat = Platform::broadwell();
        let eng = ExecutionEngine::noiseless(plat);
        let c = pointer_chase(1_000_000, 64);
        let lo = eng.run_kernel(&c, 1.2);
        let hi = eng.run_kernel(&c, 2.8);
        // Latency per miss falls with uncore frequency.
        assert!(lo.time_s > hi.time_s);
    }
}
