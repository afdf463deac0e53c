//! Integration-test crate: the tests live under `tests/tests/`.
