//! Generators for the paper's three evaluation workloads.
//!
//! Section IV of the paper evaluates R2D3 with GEMM, GEMV and FFT — "FFT is
//! widely used in communication and visual processing systems. GEMM and
//! GEMV are ubiquitous kernels in machine learning". Each generator emits a
//! real assembly program (loops, loads/stores, FP multiply-accumulate) plus
//! a deterministic input data image and a Rust reference function so tests
//! can check the simulated output bit-for-bit.

mod conv2d;
mod fft;
mod gemm;
mod gemv;
mod trapmix;

pub use conv2d::conv2d;
pub use fft::fft;
pub use gemm::gemm;
pub use gemv::gemv;
pub use trapmix::trap_mix;

use crate::program::Program;
use std::fmt;

/// Which of the paper's three workloads a [`Kernel`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// General matrix-matrix multiply.
    Gemm,
    /// General matrix-vector multiply.
    Gemv,
    /// Radix-2 Cooley–Tukey fast Fourier transform.
    Fft,
}

impl KernelKind {
    /// All three workloads.
    pub const ALL: [KernelKind; 3] = [KernelKind::Gemm, KernelKind::Gemv, KernelKind::Fft];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Gemm => "GEMM",
            KernelKind::Gemv => "GEMV",
            KernelKind::Fft => "FFT",
        }
    }

    /// Fraction of the 8 cores the workload keeps busy in steady state.
    ///
    /// §V-C of the paper: "GEMV is highly parallel compared to the rest. It
    /// exhibits higher utilization, power and temperature". These
    /// occupancy profiles seed the lifetime simulation's demand model
    /// (`n_workload / n_live` in Eq. 1). Even GEMV stays below 100 % —
    /// per §III-C, "the nature of the workloads as well as thermal issues
    /// rarely allow 100 % utilization of all cores".
    #[must_use]
    pub fn core_demand_fraction(self) -> f64 {
        match self {
            KernelKind::Gemv => 0.9,
            KernelKind::Fft => 0.75,
            KernelKind::Gemm => 0.75,
        }
    }

    /// Relative switching-activity (dynamic power) weight of the workload.
    #[must_use]
    pub fn activity_weight(self) -> f64 {
        match self {
            KernelKind::Gemv => 1.0,
            KernelKind::Fft => 0.85,
            KernelKind::Gemm => 0.80,
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A generated workload: program image plus output location and the
/// expected (reference) result.
#[derive(Debug, Clone)]
pub struct Kernel {
    kind: KernelKind,
    program: Program,
    output_addr: u32,
    expected: Vec<f32>,
}

impl Kernel {
    pub(crate) fn new(
        kind: KernelKind,
        program: Program,
        output_addr: u32,
        expected: Vec<f32>,
    ) -> Self {
        Kernel { kind, program, output_addr, expected }
    }

    /// Which workload this is.
    #[must_use]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The executable image.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Word address of the first output element.
    #[must_use]
    pub fn output_addr(&self) -> u32 {
        self.output_addr
    }

    /// Number of output words.
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.expected.len()
    }

    /// The reference output (computed in Rust with identical f32 ordering).
    #[must_use]
    pub fn expected(&self) -> &[f32] {
        &self.expected
    }

    /// Extracts the kernel's output region from a memory image.
    #[must_use]
    pub fn extract_output(&self, memory: &[u32]) -> Vec<f32> {
        memory
            .iter()
            .skip(self.output_addr as usize)
            .take(self.expected.len())
            .map(|w| f32::from_bits(*w))
            .collect()
    }

    /// Checks a memory image against the reference output.
    ///
    /// Comparison is exact (bit equality) because the assembly performs the
    /// floating-point operations in the same order as the reference.
    #[must_use]
    pub fn verify(&self, memory: &[u32]) -> bool {
        let got = self.extract_output(memory);
        got.len() == self.expected.len()
            && got.iter().zip(&self.expected).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Deterministic pseudo-random `f32` stream in roughly `[-1, 1]`, used to
/// fill kernel inputs without depending on `rand`.
#[derive(Debug, Clone)]
pub(crate) struct ValueStream {
    state: u64,
}

impl ValueStream {
    pub(crate) fn new(seed: u64) -> Self {
        ValueStream { state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 }
    }

    pub(crate) fn next_f32(&mut self) -> f32 {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let x = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        // Map the top 24 bits to [-1, 1).
        let frac = (x >> 40) as f32 / (1u64 << 24) as f32;
        frac * 2.0 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    fn run_and_verify(kernel: &Kernel, budget: u64) {
        let mut cpu = Interp::new(kernel.program());
        cpu.run(budget).expect("kernel must halt within budget");
        assert!(
            kernel.verify(cpu.memory()),
            "{} output mismatch: got {:?} want {:?}",
            kernel.kind(),
            kernel.extract_output(cpu.memory()),
            kernel.expected()
        );
    }

    #[test]
    fn gemm_small_matches_reference() {
        run_and_verify(&gemm(3, 4, 2, 1), 100_000);
    }

    #[test]
    fn gemm_square_matches_reference() {
        run_and_verify(&gemm(8, 8, 8, 42), 2_000_000);
    }

    #[test]
    fn gemv_matches_reference() {
        run_and_verify(&gemv(6, 5, 7), 100_000);
    }

    #[test]
    fn fft_size_8_matches_reference() {
        run_and_verify(&fft(3, 5), 200_000);
    }

    #[test]
    fn fft_size_32_matches_reference() {
        run_and_verify(&fft(5, 11), 2_000_000);
    }

    #[test]
    fn value_stream_is_deterministic_and_bounded() {
        let mut a = ValueStream::new(7);
        let mut b = ValueStream::new(7);
        for _ in 0..1000 {
            let x = a.next_f32();
            assert_eq!(x, b.next_f32());
            assert!((-1.0..=1.0).contains(&x), "{x} out of range");
        }
    }

    #[test]
    fn kernel_kind_profiles() {
        // GEMV is the most parallel workload (paper §V-C).
        for k in KernelKind::ALL {
            assert!(k.core_demand_fraction() <= KernelKind::Gemv.core_demand_fraction());
        }
    }
}
