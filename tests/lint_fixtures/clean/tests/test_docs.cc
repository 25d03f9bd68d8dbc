// Fixture test_docs.cc for mcd_lint's `lint-docs` rule: pins the
// rule ids, as the real tests/test_docs.cc does.
//
// fingerprint-complete, cache-version-pin, determinism,
// locale-safety, registration, library-exit, lint-docs
