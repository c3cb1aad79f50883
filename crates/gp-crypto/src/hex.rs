//! Minimal lower-case hexadecimal encoding.
//!
//! Renders digests and MACs printable, e.g. to compare them against
//! published test vectors.

const ALPHABET: &[u8; 16] = b"0123456789abcdef";

/// Encode `bytes` as a lower-case hexadecimal string.
///
/// ```
/// assert_eq!(gp_crypto::hex::encode(&[0xde, 0xad, 0xbe, 0xef]), "deadbeef");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(ALPHABET[(b >> 4) as usize] as char);
        out.push(ALPHABET[(b & 0x0f) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_empty() {
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn encode_every_byte_value() {
        let all: Vec<u8> = (0u16..256).map(|b| b as u8).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(encode(&all), expected);
    }
}
