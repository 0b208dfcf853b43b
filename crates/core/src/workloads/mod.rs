//! Workload adapters: the paper's three case studies plus the dense-GEMM
//! motivating workload, each implementing [`crate::framework`]'s traits.

pub mod cc;
pub mod dense;
pub mod list;
pub mod scalefree;
pub mod sort;
pub mod spmm;
pub mod spmv;

pub use cc::{CcSampler, CcWorkload};
pub use dense::DenseGemmWorkload;
pub use list::ListRankingWorkload;
pub use scalefree::{HhProfile, HhSampler, HhWorkload};
pub use sort::SortWorkload;
pub use spmm::{SpmmProfile, SpmmWorkload};
pub use spmv::SpmvWorkload;
