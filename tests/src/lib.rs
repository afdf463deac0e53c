//! Integration-test crate: the tests live under `tests/tests/`.

#![forbid(unsafe_code)]
