//! Error type for memory operations.

use core::fmt;

/// The ways a simulated memory access can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MemError {
    /// The address is not mapped by any segment.
    Unmapped {
        /// The faulting address.
        addr: u64,
    },
    /// The access crosses a segment boundary or runs past the end of one.
    OutOfRange {
        /// First byte of the attempted access.
        addr: u64,
        /// Length of the attempted access.
        len: u64,
    },
    /// A capability access was not 16-byte aligned.
    Misaligned {
        /// The misaligned address.
        addr: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "address {addr:#x} is not mapped"),
            MemError::OutOfRange { addr, len } => {
                write!(
                    f,
                    "access of {len} bytes at {addr:#x} runs outside its segment"
                )
            }
            MemError::Misaligned { addr } => {
                write!(f, "capability access at {addr:#x} is not 16-byte aligned")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MemError::Unmapped { addr: 0x40 }
            .to_string()
            .contains("0x40"));
        assert!(MemError::OutOfRange { addr: 1, len: 2 }
            .to_string()
            .contains("2 bytes"));
        assert!(MemError::Misaligned { addr: 3 }
            .to_string()
            .contains("aligned"));
    }
}
