//! Fixture: a root-level test referencing an arm whose scenario is not
//! in the campaign registry. `bench::reports::unregistered_arm_literals`
//! lexes arm-shaped string literals (`…/flawed`, `…/fixed`) out of
//! `tests/*.rs` and reports this one. It lives under `fixtures/`, which
//! neither that check nor the determinism lint reads.

#[test]
fn drives_a_ghost_arm() {
    let arm = "ghost_scenario/flawed";
    assert!(!arm.is_empty());
}
