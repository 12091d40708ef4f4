//! L9 fixture limits module: declares only `MAX_RECORDS`, so every
//! other guard constant the fixture parsers compare against must fail the
//! anchor check — bomb bounds live here or nowhere.

pub const MAX_RECORDS: u32 = 16_777_216;
