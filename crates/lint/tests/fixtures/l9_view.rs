//! L9 fixture parser: enforces `MAX_RECORDS` and `MAX_EXE_LEN`; the
//! fixture limits module (`l9_limits.rs`) declares only the first, so
//! the `MAX_EXE_LEN` guard must fail the anchor check.

use crate::limits::{MAX_EXE_LEN, MAX_RECORDS};

pub fn parse(cur: &mut Cursor) -> Vec<u64> {
    let n_records = cur.get_u32_le();
    if n_records > MAX_RECORDS {
        return Vec::new();
    }
    let exe_len = cur.get_u32_le();
    if exe_len > MAX_EXE_LEN {
        return Vec::new();
    }
    Vec::with_capacity(crate::convert::to_usize(n_records))
}

pub fn validate_view(len: u32) -> bool {
    len <= MAX_RECORDS
}
