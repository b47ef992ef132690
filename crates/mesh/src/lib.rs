//! # cm5-mesh — unstructured-mesh substrate
//!
//! Everything needed to recreate the paper's "real problem" communication
//! patterns (Table 12) from scratch:
//!
//! * [`delaunay`](mod@delaunay): Bowyer–Watson Delaunay triangulation of 2-D point sets;
//! * [`meshgen`]: seeded generators, including stand-ins for the paper's
//!   Euler meshes (545/2K/3K/9K vertices) and the CG 16K system;
//! * [`partition`]: recursive coordinate bisection;
//! * [`csr`]: CSR sparse matrices (graph Laplacians, SpMV);
//! * [`halo`]: halo-exchange extraction — partition + edges + ring depth →
//!   the sparse send lists and the byte matrix the irregular schedulers
//!   consume.
//!
//! ```
//! use cm5_mesh::prelude::*;
//!
//! let mesh = euler_mesh(545);
//! let parts = rcb(mesh.points(), 32);
//! let halo = Halo::build(32, &parts, &mesh.edges(), 2); // two-ring halo
//! let pattern = halo.pattern(32); // 4 conserved f64s per halo vertex
//! assert!(pattern.density() > 0.1 && pattern.density() < 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod delaunay;
pub mod halo;
pub mod meshgen;
pub mod partition;
pub mod point;

pub use csr::Csr;
pub use delaunay::{delaunay, Triangulation};
pub use halo::Halo;
pub use point::Point;

/// Convenient glob import of the whole public surface.
pub mod prelude {
    pub use crate::csr::Csr;
    pub use crate::delaunay::{delaunay, Triangulation};
    pub use crate::halo::Halo;
    pub use crate::meshgen::{
        cg_mesh, euler_mesh, jittered_grid, random_points, CG_MESH_SIZE, EULER_MESH_SIZES,
    };
    pub use crate::partition::{noisy_strips, part_sizes, rcb, strips};
    pub use crate::point::{circumcenter, in_circumcircle, orient2d, Point};
}
