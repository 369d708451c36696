//! The retired costing-kernel knob.
//!
//! The batched evaluator has one arithmetic path, the scalar
//! `price_class` sequence in [`crate::batch`]. [`KernelChoice`] and
//! [`KernelBackend`] have one value each and remain only until a
//! benchmark change drops the per-layer probe's use of them
//! (`perfbench/src/layers.rs` passes `KernelBackend::resolve(..)` to
//! [`evaluate_chunk_kernel`](crate::batch::evaluate_chunk_kernel)).

/// The former kernel knob. Config files may still spell it
/// `kernel = auto | scalar | lanes | avx2`; every spelling parses to
/// this one value and changes nothing.
///
/// Remains only until a benchmark change drops the per-layer probe's
/// use of it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// The scalar costing path, the only one there is.
    #[default]
    Scalar,
}

impl std::str::FromStr for KernelChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "scalar" | "lanes" | "avx2" => Ok(Self::Scalar),
            other => Err(format!(
                "unknown kernel `{other}` (expected auto, scalar, lanes or avx2)"
            )),
        }
    }
}

/// The resolved form of [`KernelChoice`]: the scalar costing path.
///
/// Remains only until a benchmark change drops the per-layer probe's
/// use of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The scalar costing path.
    Scalar,
}

impl KernelBackend {
    /// Resolves a choice; there is only the scalar path.
    pub fn resolve(_choice: KernelChoice) -> Self {
        Self::Scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parses_and_displays() {
        for spelled in ["auto", "scalar", "lanes", "avx2", "  AVX2 "] {
            assert_eq!(
                spelled.parse::<KernelChoice>().unwrap(),
                KernelChoice::default()
            );
        }
        // An unknown spelling is an error that displays the offending
        // value and the accepted ones.
        let err = "sse9".parse::<KernelChoice>().unwrap_err();
        assert!(err.contains("sse9"), "unhelpful error: {err}");
        assert!(err.contains("auto, scalar, lanes or avx2"), "{err}");
    }

    #[test]
    fn explicit_choices_resolve_cleanly() {
        for spelled in ["auto", "scalar", "lanes", "avx2"] {
            let choice = spelled.parse::<KernelChoice>().unwrap();
            assert_eq!(KernelBackend::resolve(choice), KernelBackend::Scalar);
        }
    }
}
