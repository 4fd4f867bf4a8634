//! Helpers shared by the wafe-serve integration tests.

use wafe_serve::Registry;

/// One numeric value of the `serve status` view, by key.
pub fn status(registry: &Registry, key: &str) -> u64 {
    let words = registry.status_words();
    let i = words
        .iter()
        .step_by(2)
        .position(|w| w == key)
        .unwrap_or_else(|| panic!("no status key {key}: {words:?}"));
    words[2 * i + 1].parse().expect("numeric status value")
}
