//! # pm-datagen
//!
//! Seeded synthetic population generators.
//!
//! The paper evaluates on the UCI *Adult* census dataset (14,210 records,
//! eight quasi-identifier attributes, `education` as the 16-value sensitive
//! attribute). The dataset is not redistributable inside this offline
//! environment, so [`adult`] provides a **synthetic substitute with the same
//! schema**: identical attribute names, identical domain arities, and a
//! hand-built latent-class dependence model that produces the correlated,
//! heavy-tailed QI↔SA structure association-rule mining needs.
//!
//! [`workload`] adds smaller parameterised generators used by unit tests and
//! the solver-scaling benchmarks.

pub mod adult;
pub mod medical;
pub mod workload;
