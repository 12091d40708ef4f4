//! L9 fixture parser: enforces `MAX_RECORDS` and `MAX_NAMES`; the
//! fixture limits module (`l9_limits.rs`) declares only the first, so
//! the `MAX_NAMES` guard must fail the anchor check.

use crate::limits::{MAX_NAMES, MAX_RECORDS};

pub fn from_bytes(cur: &mut Cursor) -> Vec<u64> {
    let n_records = cur.get_u32_le();
    if n_records > MAX_RECORDS {
        return Vec::new();
    }
    let n_names = cur.get_u32_le();
    if n_names > MAX_NAMES {
        return Vec::new();
    }
    Vec::with_capacity(crate::convert::to_usize(n_records))
}
