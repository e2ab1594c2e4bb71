//! Problem-size presets for the PolyBench suite.

/// Size preset. `Large` corresponds to the paper's evaluation setting
/// (scaled to simulation-tractable extents, preserving the CB/BB class);
/// `ExtraLarge` is the unscaled paper-scale setting (N >= 4000), reachable
/// at compile time only through the closed-form symbolic counting layer;
/// `Small`/`Mini` are for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolybenchSize {
    /// Tiny sizes for unit/integration tests.
    Mini,
    /// Moderate sizes (fast harness runs).
    Small,
    /// The evaluation sizes (default for the figure harnesses).
    Large,
    /// Paper-scale sizes (Table IV's EXTRALARGE column).
    ExtraLarge,
}

/// Looks a preset up by name: `mini`, `small`, `large`, or `xl` /
/// `extralarge`.
impl std::str::FromStr for PolybenchSize {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "mini" => Ok(PolybenchSize::Mini),
            "small" => Ok(PolybenchSize::Small),
            "large" => Ok(PolybenchSize::Large),
            "xl" | "extralarge" => Ok(PolybenchSize::ExtraLarge),
            _ => Err(()),
        }
    }
}

impl PolybenchSize {
    /// Extent for 3-D (matmul-like) kernels.
    pub fn n3(self) -> usize {
        match self {
            PolybenchSize::Mini => 24,
            PolybenchSize::Small => 96,
            PolybenchSize::Large => 512,
            PolybenchSize::ExtraLarge => 4000,
        }
    }

    /// Extent for 2-D (matrix-vector / elementwise) kernels.
    pub fn n2(self) -> usize {
        match self {
            PolybenchSize::Mini => 48,
            PolybenchSize::Small => 512,
            PolybenchSize::Large => 2000,
            PolybenchSize::ExtraLarge => 8000,
        }
    }

    /// Extent for 1-D kernels.
    pub fn n1(self) -> usize {
        match self {
            PolybenchSize::Mini => 256,
            PolybenchSize::Small => 100_000,
            PolybenchSize::Large => 2_000_000,
            PolybenchSize::ExtraLarge => 16_000_000,
        }
    }

    /// Time steps for stencils.
    pub fn tsteps(self) -> usize {
        match self {
            PolybenchSize::Mini => 4,
            PolybenchSize::Small => 10,
            PolybenchSize::Large => 20,
            PolybenchSize::ExtraLarge => 50,
        }
    }

    /// Extent for 2-D stencil grids.
    pub fn stencil_n(self) -> usize {
        match self {
            PolybenchSize::Mini => 32,
            PolybenchSize::Small => 250,
            PolybenchSize::Large => 1000,
            PolybenchSize::ExtraLarge => 4000,
        }
    }

    /// Extent for 3-D stencil grids.
    pub fn stencil3_n(self) -> usize {
        match self {
            PolybenchSize::Mini => 12,
            PolybenchSize::Small => 40,
            PolybenchSize::Large => 100,
            PolybenchSize::ExtraLarge => 250,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_ordered() {
        assert!(PolybenchSize::Mini.n3() < PolybenchSize::Small.n3());
        assert!(PolybenchSize::Small.n3() < PolybenchSize::Large.n3());
        assert!(PolybenchSize::Large.n3() < PolybenchSize::ExtraLarge.n3());
        assert!(PolybenchSize::Mini.n2() < PolybenchSize::Large.n2());
        assert!(PolybenchSize::Large.n2() < PolybenchSize::ExtraLarge.n2());
        assert!(PolybenchSize::Large.stencil_n() < PolybenchSize::ExtraLarge.stencil_n());
    }
}
