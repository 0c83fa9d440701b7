//! Memory-system error conditions.

use std::error::Error;
use std::fmt;

/// A memory operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemError {
    /// The access touched bytes outside the backing store.
    OutOfRange {
        /// First byte of the attempted access.
        addr: u64,
        /// Width of the attempted access in bytes.
        len: u64,
    },
    /// A capability load or store used an address not aligned to the
    /// 32-byte capability granule.
    Misaligned {
        /// The misaligned address.
        addr: u64,
    },
    /// `free` was called on an address with no live allocation.
    BadFree {
        /// The offending address.
        addr: u64,
    },
    /// The allocator could not satisfy the request.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
    },
    /// A tagged capability could not be stored because it is not
    /// representable in the configured 128-bit compressed format and the
    /// memory's policy is to trap rather than escape to the side table.
    Unrepresentable {
        /// The store's target address.
        addr: u64,
    },
    /// A scalar access asked for a width other than 1, 2, 4 or 8 bytes.
    UnsupportedWidth {
        /// The requested width in bytes.
        width: u8,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(f, "access of {len} bytes at {addr:#x} is outside memory")
            }
            MemError::Misaligned { addr } => {
                write!(f, "capability access at {addr:#x} is not 32-byte aligned")
            }
            MemError::BadFree { addr } => write!(f, "free of {addr:#x} which is not allocated"),
            MemError::OutOfMemory { requested } => {
                write!(f, "allocator cannot satisfy request for {requested} bytes")
            }
            MemError::Unrepresentable { addr } => {
                write!(
                    f,
                    "capability stored at {addr:#x} is not representable in 128 bits"
                )
            }
            MemError::UnsupportedWidth { width } => {
                write!(f, "unsupported access width of {width} bytes")
            }
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MemError::OutOfRange { addr: 0x10, len: 8 }
            .to_string()
            .contains("0x10"));
        assert!(MemError::Misaligned { addr: 3 }
            .to_string()
            .contains("aligned"));
        assert!(MemError::BadFree { addr: 1 }.to_string().contains("free"));
        assert!(MemError::OutOfMemory { requested: 9 }
            .to_string()
            .contains('9'));
        assert!(MemError::UnsupportedWidth { width: 3 }
            .to_string()
            .contains("width of 3"));
    }
}
