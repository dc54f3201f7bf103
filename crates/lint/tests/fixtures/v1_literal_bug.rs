//! Fixture: the deleted v1 scanner missed the `.unwrap()` after the `'\\'`
//! literal in `take` and flagged the raw identifier `r#unsafe` in `shadow`.

pub fn shadow() -> u32 { let r#unsafe = 1; r#unsafe }

pub fn take(x: Option<u32>) -> u32 { let _sep = '\\'; x.unwrap() }
