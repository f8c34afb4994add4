//! # semcluster-analysis
//!
//! Output analysis for the semcluster experiments:
//!
//! * [`FactorialDesign`] — the §6 two-level factorial effect analysis
//!   (main effects and interactions of the eight control parameters,
//!   Figure 6.1),
//! * [`Corners`] — interaction-plot classification (parallel / minor /
//!   crossing, Figure 6.2),
//! * [`find_break_even`] — the Table 5.1 read/write-ratio break-even
//!   search, and
//! * [`Table`] — ASCII rendering shared by the exhibits.

#![warn(missing_docs)]

mod breakeven;
mod factorial;
mod interaction;
mod table;

pub use breakeven::{find_break_even, BreakEven};
pub use factorial::{DesignError, Effect, FactorialDesign};
pub use interaction::{Corners, InteractionClass};
pub use table::{fmt3, fmt_ratio, Table};
