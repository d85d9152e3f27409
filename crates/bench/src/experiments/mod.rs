//! One module per experiment: the paper's tables and figures plus the
//! beyond-paper benchmarks (see DESIGN.md section 4 for the index).

pub mod ablations;
pub mod checkpoint;
pub mod dse;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod pareto;
pub mod placement;
pub mod repair;
pub mod rewrite;
pub mod service;
pub mod sim;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
