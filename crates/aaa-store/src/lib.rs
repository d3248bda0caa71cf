//! Empty on purpose. The compressed graph store that lived here had no
//! engine path reading it and was deleted. The crate stays only because
//! `benchmark/Cargo.lock` records it and the unused `aaa-core → aaa-store`
//! and `aaa-partition → aaa-store` manifest edges; it goes, with those
//! edges, when that lockfile is next unfrozen (ROADMAP item 10).
